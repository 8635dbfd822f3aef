package sparqlgx

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
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
	if info.Name != "SPARQLGX" || info.Partitioning != "Vertical" || !info.Optimized {
		t.Fatalf("info = %+v", info)
	}
	if info.Model != core.TripleModel {
		t.Fatal("SPARQLGX is a triple-model system")
	}
}

func TestExecuteWithoutLoad(t *testing.T) {
	e := newEngine()
	if _, err := e.Execute(sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`)); err == nil {
		t.Fatal("expected error before Load")
	}
}

func TestVerticalPartitioningBoundsScans(t *testing.T) {
	// A bounded-predicate query must read only that predicate's file —
	// the core SPARQLGX claim ("response time is minimized when queries
	// have bounded predicates").
	e := newEngine()
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	advisorCount := 0
	for _, tr := range rdf.NewGraph(triples).Triples() {
		if tr.P == workload.UnivAdvisor {
			advisorCount++
		}
	}

	tp := sparql.TriplePattern{
		S: sparql.VarElem("s"),
		P: sparql.TermElem(workload.UnivAdvisor),
		O: sparql.VarElem("o"),
	}
	rdd := e.scanPattern(solutions.NewSchema(sparql.BGP{Patterns: []sparql.TriplePattern{tp}}, e.data), tp)
	if rdd.Count() != advisorCount {
		t.Fatalf("scan returned %d bindings, want %d", rdd.Count(), advisorCount)
	}
}

func TestJoinReorderPutsSelectiveFirst(t *testing.T) {
	e := newEngine()
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	// takesCourse is much more frequent than subOrganizationOf.
	tps := []sparql.TriplePattern{
		{S: sparql.VarElem("st"), P: sparql.TermElem(workload.UnivTakesCourse), O: sparql.VarElem("c")},
		{S: sparql.VarElem("d"), P: sparql.TermElem(workload.UnivSubOrgOf), O: sparql.VarElem("u")},
	}
	ordered := e.reorder(tps)
	if ordered[0].P.Term != workload.UnivSubOrgOf {
		t.Fatalf("reorder did not put the selective pattern first: %v", ordered[0])
	}
}

func TestSameVariableSubjectObject(t *testing.T) {
	e := newEngine()
	self := rdf.NewIRI("http://t/self")
	p := rdf.NewIRI("http://t/p")
	other := rdf.NewIRI("http://t/o")
	if err := e.Load([]rdf.Triple{
		{S: self, P: p, O: self},
		{S: other, P: p, O: self},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(sparql.MustParse(`SELECT ?x WHERE { ?x <http://t/p> ?x }`))
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := res.Term(0, 0); res.Len() != 1 || x != self {
		t.Fatalf("self-loop rows = %v", res.Canonical())
	}
}

func TestReloadReplacesData(t *testing.T) {
	e := newEngine()
	p := rdf.NewIRI("http://t/p")
	a, b := rdf.NewIRI("http://t/a"), rdf.NewIRI("http://t/b")
	if err := e.Load([]rdf.Triple{{S: a, P: p, O: b}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Load([]rdf.Triple{{S: b, P: p, O: a}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(sparql.MustParse(`SELECT ?s WHERE { ?s <http://t/p> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := res.Term(0, 0); res.Len() != 1 || s != b {
		t.Fatalf("rows = %v", res.Canonical())
	}
}

func TestDisconnectedBGPCrossProduct(t *testing.T) {
	e := newEngine()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	triples := []rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("b")},
		{S: iri("c"), P: iri("q"), O: iri("d")},
		{S: iri("e"), P: iri("q"), O: iri("f")},
	}
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?x ?y WHERE { ?x <http://t/p> ?o1 . ?y <http://t/q> ?o2 }`)
	want, err := sparql.Evaluate(q, rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || got.Len() != 2 {
		t.Fatalf("cross product rows = %v", got.Canonical())
	}
}

func TestNestedGroupWithUnionAndOptional(t *testing.T) {
	e := newEngine()
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(fmt.Sprintf(`SELECT ?s ?n WHERE {
		?s <%sname> ?n .
		{ ?s <%sage> ?a } UNION { ?s <%semailAddress> ?m }
		OPTIONAL { ?s <%sworksFor> ?d }
	}`, workload.UnivNS, workload.UnivNS, workload.UnivNS, workload.UnivNS))
	want, err := sparql.Evaluate(q, rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("nested group wrong: %d vs %d rows", got.Len(), want.Len())
	}
}

func TestContextAccessor(t *testing.T) {
	e := newEngine()
	if e.Context() == nil {
		t.Fatal("nil context")
	}
}

func TestJoinAfterOptionalUnboundSharedVar(t *testing.T) {
	// SPARQL compatibility: a row whose shared variable is unbound
	// (from OPTIONAL) joins with any row — the keyed join alone would
	// drop it.
	e := newEngine()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	triples := []rdf.Triple{
		{S: iri("a"), P: iri("name"), O: rdf.NewLiteral("A")},
		{S: iri("b"), P: iri("name"), O: rdf.NewLiteral("B")},
		{S: iri("a"), P: iri("email"), O: iri("mboxA")},
		{S: iri("x"), P: iri("box"), O: iri("mboxA")},
		{S: iri("y"), P: iri("box"), O: iri("mboxY")},
	}
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?s ?m ?o WHERE {
		?s <http://t/name> ?n
		OPTIONAL { ?s <http://t/email> ?m }
		?o <http://t/box> ?m
	}`)
	want, err := sparql.Evaluate(q, rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("unbound shared-var join wrong:\nengine %v\nreference %v",
			got.Canonical(), want.Canonical())
	}
	// Reference semantics: b (unbound ?m) joins both box rows; a joins
	// only mboxA. 3 rows total.
	if got.Len() != 3 {
		t.Fatalf("rows = %d, want 3", got.Len())
	}
}
