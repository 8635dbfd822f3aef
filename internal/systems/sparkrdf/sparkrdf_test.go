package sparkrdf

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

func TestConformanceAllLevels(t *testing.T) {
	for _, lvl := range []IndexLevel{Level1, Level2, Level3} {
		lvl := lvl
		t.Run(fmt.Sprintf("level%d", lvl), func(t *testing.T) {
			systemstest.Run(t, func() core.Engine {
				return NewWithLevel(spark.NewContext(spark.DefaultConfig()), lvl)
			})
		})
	}
}

func TestRandomized(t *testing.T) {
	systemstest.RunRandomized(t, func() core.Engine { return newEngine() })
}

func TestInfo(t *testing.T) {
	info := newEngine().Info()
	if info.Name != "SparkRDF" || info.QueryProcessing != "Custom" {
		t.Fatalf("info = %+v", info)
	}
	if info.Model != core.GraphModel || info.Abstractions[0] != core.RDDAbstraction {
		t.Fatal("SparkRDF is a graph-model system built directly on RDDs")
	}
}

func typedQuery() *sparql.Query {
	return sparql.MustParse(fmt.Sprintf(
		`SELECT ?s ?prof WHERE { ?s <%s> <%sStudent> . ?prof <%s> <%sProfessor> . ?s <%sadvisor> ?prof }`,
		rdf.RDFType, workload.UnivNS, rdf.RDFType, workload.UnivNS, workload.UnivNS))
}

func TestDeeperIndexScansFewerTriples(t *testing.T) {
	// The MESG claim: deeper index levels load smaller sub-graphs.
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	scanned := map[IndexLevel]int64{}
	for _, lvl := range []IndexLevel{Level1, Level2, Level3} {
		e := NewWithLevel(spark.NewContext(spark.DefaultConfig()), lvl)
		if err := e.Load(triples); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Execute(typedQuery()); err != nil {
			t.Fatal(err)
		}
		scanned[lvl] = e.ScannedTriples
	}
	if !(scanned[Level3] <= scanned[Level2] && scanned[Level2] < scanned[Level1]) {
		t.Fatalf("scan counts not monotone: L1=%d L2=%d L3=%d",
			scanned[Level1], scanned[Level2], scanned[Level3])
	}
}

func TestLevelsAgreeOnAnswers(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	want, err := sparql.Evaluate(typedQuery(), rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []IndexLevel{Level1, Level2, Level3} {
		e := NewWithLevel(spark.NewContext(spark.DefaultConfig()), lvl)
		if err := e.Load(triples); err != nil {
			t.Fatal(err)
		}
		got, err := e.Execute(typedQuery())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("level %d wrong: %d vs %d rows", lvl, got.Len(), want.Len())
		}
	}
}

func TestClassMessagePruningRemovesTypePatterns(t *testing.T) {
	// With class pruning, the type patterns should not add to the scan
	// count beyond the CR/CRC-reduced relation lookups.
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	e := newEngine()
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(typedQuery()); err != nil {
		t.Fatal(err)
	}
	var advisorTriples int64
	for _, tr := range rdf.NewGraph(triples).Triples() {
		if tr.P == workload.UnivAdvisor {
			advisorTriples++
		}
	}
	if e.ScannedTriples > advisorTriples {
		t.Fatalf("scanned %d > advisor relation size %d — type patterns not pruned",
			e.ScannedTriples, advisorTriples)
	}
}

func TestDynamicPrePartitioningMetersShuffle(t *testing.T) {
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
		t.Fatal("pre-partitioning should be metered as shuffle")
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

func TestExecuteWithoutLoad(t *testing.T) {
	if _, err := newEngine().Execute(sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`)); err == nil {
		t.Fatal("expected error before Load")
	}
}
