package sparkql

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/spark/graphx"
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
	if info.Name != "Spar(k)ql" || info.SPARQL != core.FragmentBGP {
		t.Fatalf("info = %+v", info)
	}
}

func TestNodeModelSplitsProperties(t *testing.T) {
	e := newEngine()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	if err := e.Load([]rdf.Triple{
		{S: iri("a"), P: iri("knows"), O: iri("b")},                               // object property -> edge
		{S: iri("a"), P: iri("name"), O: rdf.NewLiteral("Ann")},                   // data property -> node
		{S: iri("a"), P: rdf.NewIRI(rdf.RDFType), O: iri("Person")},               // rdf:type -> node
		{S: iri("b"), P: iri("age"), O: rdf.NewTypedLiteral("7", rdf.XSDInteger)}, // data property
	}); err != nil {
		t.Fatal(err)
	}
	if e.graph.Edges().Count() != 1 {
		t.Fatalf("edges = %d, want only the object property", e.graph.Edges().Count())
	}
	aProps := e.props[graphx.VertexID(e.data.ID(iri("a")))]
	if len(aProps[e.data.ID(iri("name"))]) != 1 {
		t.Fatalf("name not stored as node property: %v", aProps)
	}
	if len(aProps[e.data.ID(rdf.NewIRI(rdf.RDFType))]) != 1 {
		t.Fatal("rdf:type not stored in node properties")
	}
}

func TestBFSTreeDepthDrivesSupersteps(t *testing.T) {
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
	// Star over data properties: no edge patterns, no message rounds.
	star := run(fmt.Sprintf(`SELECT ?s ?n ?a WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`,
		workload.UnivNS, workload.UnivNS))
	if star != 0 {
		t.Fatalf("data-property star used %d supersteps, want 0", star)
	}
	// Two-edge chain: two tree links, two message rounds.
	chain := run(fmt.Sprintf(`SELECT ?st ?d WHERE { ?st <%sadvisor> ?p . ?p <%sworksFor> ?d }`,
		workload.UnivNS, workload.UnivNS))
	if chain != 2 {
		t.Fatalf("two-edge chain used %d supersteps, want 2", chain)
	}
}

func TestTypeFromNodeProperties(t *testing.T) {
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> <%sProfessor> }`,
		rdf.RDFType, workload.UnivNS))
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.SmallUniversity()
	want := cfg.Universities * cfg.DepartmentsPerUniv * cfg.ProfessorsPerDept
	if res.Len() != want {
		t.Fatalf("professors = %d, want %d", res.Len(), want)
	}
}

func TestCyclicQueryFallsBackCorrectly(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?c WHERE { ?st <%stakesCourse> ?c . ?prof <%steacherOf> ?c . ?st <%sadvisor> ?prof }`,
		workload.UnivNS, workload.UnivNS, workload.UnivNS))
	want, err := sparql.Evaluate(q, rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine()
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("cyclic query wrong: %d vs %d rows", got.Len(), want.Len())
	}
}

func TestRejectsNonBGP(t *testing.T) {
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <http://e/p> ?y FILTER(?y > 1) }`)
	if _, err := e.Execute(q); err == nil {
		t.Fatal("FILTER must be rejected (fragment is BGP)")
	}
}

func TestExecuteWithoutLoad(t *testing.T) {
	if _, err := newEngine().Execute(sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`)); err == nil {
		t.Fatal("expected error before Load")
	}
}

// A child vertex's table is the message it sends to every parent, and
// the merge of a parent's messages must not append into it: c's three
// rows reach a and b, each followed by another child's row, and an
// in-place append wrote b's extra row over a's (found by
// TestEnginesAgree: `?x <p> ?y . ?y <p> ?z` lost rows and gained
// others).
func TestSharedChildTableNotOverwritten(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	var triples []rdf.Triple
	for _, e := range [][2]string{{"a", "c"}, {"a", "g"}, {"b", "c"}, {"b", "k"}, {"c", "d"}, {"c", "e"}, {"c", "f"}, {"g", "h"}, {"k", "m"}} {
		triples = append(triples, rdf.Triple{S: iri(e[0]), P: iri("p"), O: iri(e[1])})
	}
	q := sparql.MustParse(`SELECT * WHERE { ?x <http://t/p> ?y . ?y <http://t/p> ?z }`)
	want, err := sparql.Evaluate(q, rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine()
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("rows %v\nwant %v", got.Canonical(), want.Canonical())
	}
}
