package haqwa

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/systemstest"
	"repro/internal/workload"
)

func newEngine() *Engine {
	return New(spark.NewContext(spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4}))
}

func TestConformance(t *testing.T) {
	systemstest.Run(t, func() core.Engine { return newEngine() })
}

func TestRandomized(t *testing.T) {
	systemstest.RunRandomized(t, func() core.Engine { return newEngine() })
}

func TestInfo(t *testing.T) {
	info := newEngine().Info()
	if info.Name != "HAQWA" || info.Optimized {
		t.Fatalf("info = %+v", info)
	}
	if info.Partitioning != "Hash / Query Aware" {
		t.Fatalf("partitioning = %s", info.Partitioning)
	}
}

func TestStarQueryIsShuffleFree(t *testing.T) {
	// HAQWA's core claim: subject-hash fragmentation makes star queries
	// fully local — no shuffle beyond the load.
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?s ?n ?a WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`,
		workload.UnivNS, workload.UnivNS))
	before := e.Context().Snapshot()
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Context().Snapshot().Diff(before)
	if d.ShuffleRecords != 0 {
		t.Fatalf("star query shuffled %d records, want 0", d.ShuffleRecords)
	}
	if res.Len() == 0 {
		t.Fatal("star query returned nothing")
	}
}

func TestLinearQueryShufflesWithoutAllocation(t *testing.T) {
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
	before := e.Context().Snapshot()
	if _, err := e.Execute(q); err != nil {
		t.Fatal(err)
	}
	d := e.Context().Snapshot().Diff(before)
	if d.ShuffleRecords == 0 {
		t.Fatal("unallocated linear query should shuffle")
	}
}

func TestWorkloadAwareAllocationMakesLinearLocal(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))

	// Reference answer.
	want, err := sparql.Evaluate(q, rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}

	e := newEngine()
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	e.Allocate([]*sparql.Query{q})

	before := e.Context().Snapshot()
	got, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Context().Snapshot().Diff(before)
	if d.ShuffleRecords != 0 {
		t.Fatalf("allocated linear query shuffled %d records, want 0", d.ShuffleRecords)
	}
	if !got.Equal(want) {
		t.Fatalf("allocated execution wrong: %d rows vs %d", got.Len(), want.Len())
	}
}

func TestAllocationPreservesCorrectnessOnOtherQueries(t *testing.T) {
	// Replication must never change answers of other queries (the
	// replicated fragment is only used when coverage holds).
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	ref := rdf.NewGraph(triples)
	linkQ := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
	e := newEngine()
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	e.Allocate([]*sparql.Query{linkQ})

	star := sparql.MustParse(fmt.Sprintf(
		`SELECT ?s ?n WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`, workload.UnivNS, workload.UnivNS))
	want, _ := sparql.Evaluate(star, ref)
	got, err := e.Execute(star)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("star query wrong after allocation")
	}

	deep := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?u WHERE { ?st <%sadvisor> ?p . ?p <%sworksFor> ?d . ?d <%ssubOrganizationOf> ?u }`,
		workload.UnivNS, workload.UnivNS, workload.UnivNS))
	want2, _ := sparql.Evaluate(deep, ref)
	got2, err := e.Execute(deep)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want2) {
		t.Fatalf("deep query wrong after allocation: %d vs %d rows", got2.Len(), want2.Len())
	}
}

func TestDictionaryEncodingApplied(t *testing.T) {
	e := newEngine()
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	stats := rdf.NewGraph(triples).Stats()
	// Dictionary must assign ids to every distinct term.
	if e.data.Dict.Len() < stats.DistinctSubjects {
		t.Fatalf("dictionary too small: %d", e.data.Dict.Len())
	}
}

func TestExecuteWithoutLoad(t *testing.T) {
	e := newEngine()
	if _, err := e.Execute(sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`)); err == nil {
		t.Fatal("expected error before Load")
	}
}
