package s2x

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
	if info.Name != "S2X" || info.Model != core.GraphModel {
		t.Fatalf("info = %+v", info)
	}
	if info.Abstractions[0] != core.GraphXAbstraction {
		t.Fatalf("abstractions = %v", info.Abstractions)
	}
}

func TestPropertyGraphConstruction(t *testing.T) {
	e := newEngine()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	if err := e.Load([]rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("b")},
		{S: iri("b"), P: iri("p"), O: iri("c")},
		{S: iri("a"), P: iri("q"), O: rdf.NewLiteral("x")},
	}); err != nil {
		t.Fatal(err)
	}
	// Vertices: a, b, c, "x" — literals become vertices too.
	if e.graph.NumVertices() != 4 {
		t.Fatalf("vertices = %d", e.graph.NumVertices())
	}
	if e.graph.NumEdges() != 3 {
		t.Fatalf("edges = %d", e.graph.NumEdges())
	}
}

func TestValidationPrunesAndMeters(t *testing.T) {
	// Linear query on a chain: validation must run supersteps and
	// discard impossible candidates.
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
	before := e.Context().Snapshot()
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Context().Snapshot().Diff(before)
	if d.Supersteps == 0 {
		t.Fatal("validation ran no supersteps")
	}
	if res.Len() == 0 {
		t.Fatal("no results")
	}
}

func TestSuperstepsGrowWithDiameter(t *testing.T) {
	// A longer chain query needs at least as many validation rounds.
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
	star := run(fmt.Sprintf(`SELECT ?s WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`, workload.UnivNS, workload.UnivNS))
	chain := run(fmt.Sprintf(`SELECT ?st WHERE { ?st <%sadvisor> ?p . ?p <%sworksFor> ?d . ?d <%ssubOrganizationOf> ?u }`,
		workload.UnivNS, workload.UnivNS, workload.UnivNS))
	if chain < star {
		t.Fatalf("chain supersteps %d < star %d", chain, star)
	}
}

func TestExecuteWithoutLoad(t *testing.T) {
	if _, err := newEngine().Execute(sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`)); err == nil {
		t.Fatal("expected error before Load")
	}
}
