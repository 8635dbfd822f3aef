package hybrid

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

func ctx() *spark.Context {
	return spark.NewContext(spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4})
}

func TestConformanceHybrid(t *testing.T) {
	systemstest.Run(t, func() core.Engine { return New(ctx()) })
}

func TestConformanceRDDStrategy(t *testing.T) {
	systemstest.Run(t, func() core.Engine { return NewWithStrategy(ctx(), StrategyRDD) })
}

func TestConformanceDataFrameStrategy(t *testing.T) {
	systemstest.Run(t, func() core.Engine { return NewWithStrategy(ctx(), StrategyDataFrame) })
}

func TestConformanceSparkSQLStrategy(t *testing.T) {
	systemstest.Run(t, func() core.Engine { return NewWithStrategy(ctx(), StrategySparkSQL) })
}

func TestRandomizedAllStrategies(t *testing.T) {
	for _, s := range []Strategy{StrategyHybrid, StrategyRDD, StrategyDataFrame, StrategySparkSQL} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			systemstest.RunRandomized(t, func() core.Engine { return NewWithStrategy(ctx(), s) })
		})
	}
}

func TestInfo(t *testing.T) {
	info := New(ctx()).Info()
	if info.Name != "Hybrid" || info.SPARQL != core.FragmentBGP {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Abstractions) != 2 {
		t.Fatalf("hybrid spans RDD and DataFrames: %v", info.Abstractions)
	}
}

func TestRejectsNonBGP(t *testing.T) {
	e := New(ctx())
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <http://e/p> ?y FILTER(?y > 1) }`)
	if _, err := e.Execute(q); err == nil {
		t.Fatal("non-BGP query must be rejected (fragment is BGP)")
	}
}

func starQuery() *sparql.Query {
	return sparql.MustParse(fmt.Sprintf(
		`SELECT ?s ?n ?a WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`,
		workload.UnivNS, workload.UnivNS))
}

func linearQuery() *sparql.Query {
	return sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
}

func TestHybridStarJoinIsCoPartitioned(t *testing.T) {
	// Subject-subject joins over subject-hash-partitioned data must not
	// shuffle under the hybrid planner.
	e := New(ctx())
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	before := e.Context().Snapshot()
	res, err := e.Execute(starQuery())
	if err != nil {
		t.Fatal(err)
	}
	d := e.Context().Snapshot().Diff(before)
	if d.ShuffleRecords != 0 {
		t.Fatalf("hybrid star join shuffled %d records", d.ShuffleRecords)
	}
	if res.Len() == 0 {
		t.Fatal("no results")
	}
}

func TestRDDStrategyShufflesOnStar(t *testing.T) {
	// The pure RDD strategy keys each join explicitly, so even star
	// joins shuffle — the inefficiency the hybrid planner removes.
	e := NewWithStrategy(ctx(), StrategyRDD)
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	before := e.Context().Snapshot()
	if _, err := e.Execute(starQuery()); err != nil {
		t.Fatal(err)
	}
	d := e.Context().Snapshot().Diff(before)
	if d.ShuffleRecords == 0 {
		t.Fatal("RDD strategy should shuffle on star joins")
	}
}

func TestStrategiesAgreeOnAnswers(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	want, err := sparql.Evaluate(linearQuery(), rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{StrategyHybrid, StrategyRDD, StrategyDataFrame, StrategySparkSQL} {
		e := NewWithStrategy(ctx(), s)
		if err := e.Load(triples); err != nil {
			t.Fatal(err)
		}
		got, err := e.Execute(linearQuery())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%v: wrong answers (%d rows vs %d)", s, got.Len(), want.Len())
		}
	}
}

func TestHybridBeatsPureStrategiesOnShuffle(t *testing.T) {
	// The paper's claim: the hybrid plan's network cost is at most that
	// of the pure partitioned plan, and its total data movement
	// (shuffle + broadcast) at most the Cartesian strategy's.
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	shuffleOf := func(s Strategy, q *sparql.Query) int64 {
		e := NewWithStrategy(ctx(), s)
		if err := e.Load(triples); err != nil {
			t.Fatal(err)
		}
		before := e.Context().Snapshot()
		if _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
		return e.Context().Snapshot().Diff(before).ShuffleRecords
	}
	for _, q := range []*sparql.Query{starQuery(), linearQuery()} {
		hybrid := shuffleOf(StrategyHybrid, q)
		rddOnly := shuffleOf(StrategyRDD, q)
		if hybrid > rddOnly {
			t.Fatalf("hybrid shuffled more (%d) than pure partitioned (%d)", hybrid, rddOnly)
		}
	}
}

func TestSparkSQLCartesianIsExpensive(t *testing.T) {
	// The naive Spark SQL strategy's Cartesian product must do far more
	// record comparisons — visible as broadcast traffic of the whole
	// pattern match sets.
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	e := NewWithStrategy(ctx(), StrategySparkSQL)
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	before := e.Context().Snapshot()
	if _, err := e.Execute(starQuery()); err != nil {
		t.Fatal(err)
	}
	cartesian := e.Context().Snapshot().Diff(before)

	h := New(ctx())
	if err := h.Load(triples); err != nil {
		t.Fatal(err)
	}
	before = h.Context().Snapshot()
	if _, err := h.Execute(starQuery()); err != nil {
		t.Fatal(err)
	}
	hybridCost := h.Context().Snapshot().Diff(before)

	if cartesian.BroadcastRecords <= hybridCost.BroadcastRecords {
		t.Fatalf("cartesian broadcast %d should exceed hybrid %d",
			cartesian.BroadcastRecords, hybridCost.BroadcastRecords)
	}
}

func TestExecuteWithoutLoad(t *testing.T) {
	if _, err := New(ctx()).Execute(starQuery()); err == nil {
		t.Fatal("expected error before Load")
	}
}
