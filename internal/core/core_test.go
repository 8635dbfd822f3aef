package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
)

// fakeEngine implements Engine for framework tests without pulling in
// the real systems (which live above core in the import graph).
type fakeEngine struct {
	info SystemInfo
	ctx  *spark.Context
	g    *rdf.Graph
	fail bool
}

func newFake(name, cite string, m DataModel, abs []Abstraction) *fakeEngine {
	return &fakeEngine{
		info: SystemInfo{
			Name: name, Citation: cite, Model: m, Abstractions: abs,
			QueryProcessing: "test", Optimized: true, Partitioning: "none", SPARQL: FragmentBGPPlus,
		},
		ctx: spark.NewContext(spark.DefaultConfig()),
	}
}

func (f *fakeEngine) Info() SystemInfo        { return f.info }
func (f *fakeEngine) Context() *spark.Context { return f.ctx }

func (f *fakeEngine) Load(ts []rdf.Triple) error {
	f.g = rdf.NewGraph(ts)
	return nil
}

func (f *fakeEngine) Execute(q *sparql.Query) (*sparql.Results, error) {
	res, err := sparql.Evaluate(q, f.g)
	if err != nil {
		return nil, err
	}
	if f.fail {
		// Corrupt the answer to exercise correctness checking.
		res = &sparql.Results{Vars: res.Vars}
	}
	return res, nil
}

func sampleTriples() []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	return []rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("b")},
		{S: iri("b"), P: iri("p"), O: iri("c")},
		{S: iri("a"), P: iri("name"), O: rdf.NewLiteral("A")},
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	e1 := newFake("One", "[1]", TripleModel, []Abstraction{RDDAbstraction})
	e2 := newFake("Two", "[2]", GraphModel, []Abstraction{GraphXAbstraction})
	r.Register(e1)
	r.Register(e2)
	if len(r.Engines()) != 2 {
		t.Fatalf("engines = %d", len(r.Engines()))
	}
	if r.Engines()[0] != e1 || r.Engines()[1] != e2 {
		t.Fatal("engines out of registration order")
	}
}

func TestRunQueryMetersAndVerifies(t *testing.T) {
	e := newFake("X", "[9]", TripleModel, []Abstraction{RDDAbstraction})
	if err := e.Load(sampleTriples()); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <http://t/p> ?y }`)
	want, _ := sparql.Evaluate(q, rdf.NewGraph(sampleTriples()))
	m := RunQuery(e, "q1", q, want)
	if !m.Correct || m.Err != nil {
		t.Fatalf("measurement = %+v", m)
	}
	if m.Rows != 2 {
		t.Fatalf("rows = %d", m.Rows)
	}

	bad := newFake("Y", "[8]", TripleModel, []Abstraction{RDDAbstraction})
	bad.fail = true
	_ = bad.Load(sampleTriples())
	m2 := RunQuery(bad, "q1", q, want)
	if m2.Correct {
		t.Fatal("wrong answer passed verification")
	}
}

func TestRunAssessment(t *testing.T) {
	e1 := newFake("One", "[1]", TripleModel, []Abstraction{RDDAbstraction})
	e2 := newFake("Two", "[2]", GraphModel, []Abstraction{GraphXAbstraction})
	w := Workload{Name: "sample", Triples: sampleTriples()}
	w.AddQuery("q-star", sparql.MustParse(`SELECT ?x ?n WHERE { ?x <http://t/p> ?y . ?x <http://t/name> ?n }`))
	w.AddQuery("q-linear", sparql.MustParse(`SELECT ?x ?z WHERE { ?x <http://t/p> ?y . ?y <http://t/p> ?z }`))

	a, err := RunAssessment([]Engine{e1, e2}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Measurements) != 4 {
		t.Fatalf("measurements = %d", len(a.Measurements))
	}
	for _, m := range a.Measurements {
		if !m.Correct {
			t.Fatalf("measurement incorrect: %+v", m)
		}
	}
	text := RenderAssessment(a)
	if !strings.Contains(text, "q-star") || !strings.Contains(text, "One") {
		t.Fatalf("render = %s", text)
	}
}

func TestRenderFig1AndTables(t *testing.T) {
	engines := []Engine{
		newFake("TripleRDD", "[7]", TripleModel, []Abstraction{RDDAbstraction}),
		newFake("GraphGX", "[23]", GraphModel, []Abstraction{GraphXAbstraction}),
		newFake("Both", "[21]", TripleModel, []Abstraction{RDDAbstraction, DataFramesAbstraction}),
	}
	fig := RenderFig1(engines)
	if !strings.Contains(fig, "Data Model") || !strings.Contains(fig, "TripleRDD") {
		t.Fatalf("fig1 = %s", fig)
	}
	t1 := RenderTableI(engines)
	if !strings.Contains(t1, "[7], [21]") {
		t.Fatalf("table I should group citations per cell:\n%s", t1)
	}
	if !strings.Contains(t1, "GraphX") || !strings.Contains(t1, "GraphFrames") {
		t.Fatalf("table I missing abstraction rows:\n%s", t1)
	}
	t2 := RenderTableII(engines)
	if !strings.Contains(t2, "[23]") || !strings.Contains(t2, "Partitioning") {
		t.Fatalf("table II = %s", t2)
	}
}

func TestDimensionStrings(t *testing.T) {
	if TripleModel.String() != "The Triple Model" || GraphModel.String() != "The Graph Model" {
		t.Fatal("data model names changed")
	}
	names := map[Abstraction]string{
		RDDAbstraction:         "RDD",
		DataFramesAbstraction:  "DataFrames",
		SparkSQLAbstraction:    "Spark SQL",
		GraphXAbstraction:      "GraphX",
		GraphFramesAbstraction: "GraphFrames",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%v != %s", a, want)
		}
	}
	if len(Abstractions()) != 5 {
		t.Fatal("five abstractions expected")
	}
}

func TestRenderAssessmentCSV(t *testing.T) {
	e1 := newFake("One", "[1]", TripleModel, []Abstraction{RDDAbstraction})
	w := Workload{Name: "sample", Triples: sampleTriples()}
	w.AddQuery("q", sparql.MustParse(`SELECT ?x WHERE { ?x <http://t/p> ?y }`))
	a, err := RunAssessment([]Engine{e1}, w)
	if err != nil {
		t.Fatal(err)
	}
	csv := RenderAssessmentCSV(a)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[1], "sample,3,q,star,One,ok,2,") {
		t.Fatalf("csv row = %s", lines[1])
	}
}

// cannedEngine answers every query with one fixed result.
type cannedEngine struct {
	*fakeEngine
	answer *sparql.Results
}

func (c cannedEngine) Execute(*sparql.Query) (*sparql.Results, error) { return c.answer, nil }

// TestRunAssessmentTopKTies runs an ORDER BY + LIMIT query whose LIMIT
// cuts through a tie: s0 has age 1, s1..s4 tie on age 2, s5 has age 3,
// and LIMIT 3 keeps s0 plus any two of s1..s4. Every such cut is
// correct; an answer of the right length that misses s0, repeats a
// tied row or reaches past the tie group is not.
func TestRunAssessmentTopKTies(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	ages := []string{"1", "2", "2", "2", "2", "3"}
	var triples []rdf.Triple
	for i, a := range ages {
		triples = append(triples, rdf.Triple{S: iri(fmt.Sprint("s", i)), P: iri("age"), O: rdf.NewLiteral(a)})
	}
	q := sparql.MustParse(`SELECT ?s ?a WHERE { ?s <http://t/age> ?a } ORDER BY ?a LIMIT 3`)
	reference, err := sparql.Evaluate(q, rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	rows := func(ids ...int) *sparql.Results {
		dict := rdf.NewDictionary()
		var table [][]rdf.TermID
		for _, i := range ids {
			table = append(table, []rdf.TermID{dict.Encode(iri(fmt.Sprint("s", i))), dict.Encode(rdf.NewLiteral(ages[i]))})
		}
		res, err := sparql.Answer(sparql.MustParse(`SELECT ?s ?a WHERE { ?s <http://t/age> ?a }`), []sparql.Var{"s", "a"}, dict, table)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cases := []struct {
		name   string
		answer *sparql.Results
		want   bool
	}{
		{"cut-1-2", rows(0, 1, 2), true},
		{"cut-3-4", rows(0, 3, 4), true},
		{"cut-unordered", rows(4, 0, 1), true},
		{"prefix-missing", rows(1, 2, 3), false},
		{"past-the-group", rows(0, 1, 5), false},
		{"repeated-tie-row", rows(0, 2, 2), false},
		{"too-short", rows(0, 1), false},
	}
	differs := false
	var engines []Engine
	for _, c := range cases {
		differs = differs || (c.want && !c.answer.Equal(reference))
		engines = append(engines, cannedEngine{newFake(c.name, "[0]", TripleModel, nil), c.answer})
	}
	if !differs {
		t.Fatal("no correct cut differs from the reference: the query does not cut a tie")
	}
	w := Workload{Name: "ties", Triples: triples}
	w.AddQuery("top-3", q)
	a, err := RunAssessment(engines, w)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range a.Measurements {
		if m.Correct != cases[i].want {
			t.Errorf("%s: Correct = %v, want %v", m.System, m.Correct, cases[i].want)
		}
	}
}
