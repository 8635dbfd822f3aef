package gxsubgraph

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
	if info.Name != "GX-Subgraph" || info.SPARQL != core.FragmentBGP || !info.Optimized {
		t.Fatalf("info = %+v", info)
	}
}

func TestRejectsNonBGP(t *testing.T) {
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?x WHERE { { ?x <http://e/p> ?y } UNION { ?x <http://e/q> ?y } }`)
	if _, err := e.Execute(q); err == nil {
		t.Fatal("UNION must be rejected (fragment is BGP)")
	}
}

func TestOneSuperstepPerPattern(t *testing.T) {
	// The algorithm runs one aggregateMessages round per BGP triple.
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	run := func(q string) int64 {
		before := e.Context().Snapshot()
		if _, err := e.Execute(sparql.MustParse(q)); err != nil {
			t.Fatal(err)
		}
		return e.Context().Snapshot().Diff(before).Supersteps
	}
	one := run(fmt.Sprintf(`SELECT ?s WHERE { ?s <%sname> ?n }`, workload.UnivNS))
	three := run(fmt.Sprintf(
		`SELECT ?st WHERE { ?st <%sadvisor> ?p . ?p <%sworksFor> ?d . ?d <%ssubOrganizationOf> ?u }`,
		workload.UnivNS, workload.UnivNS, workload.UnivNS))
	if one != 1 {
		t.Fatalf("single pattern ran %d supersteps", one)
	}
	if three != 3 {
		t.Fatalf("three patterns ran %d supersteps", three)
	}
}

func TestMatchTrackRelocationMetersShuffle(t *testing.T) {
	// A star query connects through the subject while tracks sit at
	// objects, forcing a relocation — visible as shuffle records.
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?s ?n ?a WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`, workload.UnivNS, workload.UnivNS))
	before := e.Context().Snapshot()
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Context().Snapshot().Diff(before)
	if d.ShuffleRecords == 0 {
		t.Fatal("relocation should shuffle the match-track tables")
	}
	if res.Len() == 0 {
		t.Fatal("no results")
	}
}

func TestConstantEndpoints(t *testing.T) {
	e := newEngine()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	if err := e.Load([]rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("b")},
		{S: iri("c"), P: iri("p"), O: iri("b")},
		{S: iri("a"), P: iri("q"), O: iri("c")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(sparql.MustParse(`SELECT ?s WHERE { ?s <http://t/p> <http://t/b> }`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Canonical())
	}
	res2, err := e.Execute(sparql.MustParse(`ASK { <http://t/a> <http://t/q> <http://t/c> }`))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Ask {
		t.Fatal("ASK should be true")
	}
}

func TestExecuteWithoutLoad(t *testing.T) {
	if _, err := newEngine().Execute(sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`)); err == nil {
		t.Fatal("expected error before Load")
	}
}
