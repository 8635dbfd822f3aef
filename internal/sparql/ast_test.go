package sparql

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func TestPatternStringRendering(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?x <http://e/p> ?y .
		FILTER(?y > 3)
		OPTIONAL { ?x <http://e/q> ?z }
	}`)
	s := q.Where.String()
	for _, want := range []string{"?x", "<http://e/p>", "FILTER", "OPTIONAL", "3"} {
		if !strings.Contains(s, want) {
			t.Errorf("pattern string missing %q: %s", want, s)
		}
	}
	q2 := MustParse(`SELECT * WHERE { { ?a <http://e/p> ?b } UNION { ?a <http://e/q> ?b } }`)
	if !strings.Contains(q2.Where.String(), "UNION") {
		t.Errorf("union string = %s", q2.Where.String())
	}
}

func TestFilterExprStrings(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?x <http://e/p> ?y .
		FILTER((?y > 1 && ?y < 9) || !(?y = 5) && BOUND(?x))
	}`)
	f, ok := q.Where.(Filter)
	if !ok {
		t.Fatalf("top = %T", q.Where)
	}
	s := f.Cond.String()
	for _, want := range []string{"&&", "||", "!", "BOUND(?x)", "?y >"} {
		if !strings.Contains(s, want) {
			t.Errorf("filter string missing %q: %s", want, s)
		}
	}
}

func TestGroupUnionOptionalPatternVars(t *testing.T) {
	g := Group{Parts: []GraphPattern{
		BGP{Patterns: []TriplePattern{{S: VarElem("a"), P: TermElem(rdf.NewIRI("http://p")), O: VarElem("b")}}},
		Union{
			Left:  BGP{Patterns: []TriplePattern{{S: VarElem("b"), P: TermElem(rdf.NewIRI("http://q")), O: VarElem("c")}}},
			Right: BGP{Patterns: []TriplePattern{{S: VarElem("b"), P: TermElem(rdf.NewIRI("http://r")), O: VarElem("d")}}},
		},
		Optional{
			Left:  BGP{Patterns: []TriplePattern{{S: VarElem("a"), P: TermElem(rdf.NewIRI("http://s")), O: VarElem("e")}}},
			Right: BGP{Patterns: []TriplePattern{{S: VarElem("e"), P: TermElem(rdf.NewIRI("http://t")), O: VarElem("f")}}},
		},
	}}
	vars := g.PatternVars()
	if len(vars) != 6 {
		t.Fatalf("vars = %v", vars)
	}
	if s := g.String(); !strings.Contains(s, "UNION") || !strings.Contains(s, "OPTIONAL") {
		t.Fatalf("group string = %s", s)
	}
}

func TestBGPOfRejectsOperators(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <http://e/p> ?y OPTIONAL { ?x <http://e/q> ?z } }`)
	if _, ok := q.BGPOf(); ok {
		t.Fatal("OPTIONAL must not reduce to a BGP")
	}
	q2 := MustParse(`SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z }`)
	bgp, ok := q2.BGPOf()
	if !ok || len(bgp.Patterns) != 2 {
		t.Fatalf("bgp = %v %v", bgp, ok)
	}
}

func TestResultsString(t *testing.T) {
	r := newResults([]Var{"x", "y"}, [][]rdf.Term{{rdf.NewIRI("http://a"), Unbound}})
	s := r.String()
	if !strings.Contains(s, "?x") || !strings.Contains(s, "UNBOUND") {
		t.Fatalf("results string = %q", s)
	}
	ask := &Results{IsAsk: true, Ask: true}
	if !strings.Contains(ask.String(), "true") {
		t.Fatalf("ask string = %q", ask.String())
	}
}

func TestShapeStrings(t *testing.T) {
	names := map[Shape]string{
		ShapeStar: "star", ShapeLinear: "linear",
		ShapeSnowflake: "snowflake", ShapeComplex: "complex",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%v != %s", s, want)
		}
	}
}

// termRow is a FILTER row that holds its terms by slot.
type termRow []rdf.Term

func (r termRow) Term(slot int) rdf.Term { return r[slot] }

func TestFilterComparisonUnboundVars(t *testing.T) {
	c := CompileFilter(Comparison{Op: "=", L: Operand{IsVar: true, Var: "x"}, R: Operand{IsVar: true, Var: "y"}},
		map[Var]int{"x": 0, "y": 1})
	a := rdf.NewIRI("http://a")
	// Unbound operands make the comparison an error, which FILTER drops.
	if Holds(c, termRow{Unbound, Unbound}) {
		t.Fatal("comparison over unbound variables must not hold")
	}
	if Holds(c, termRow{a, Unbound}) {
		t.Fatal("half-bound comparison must not hold")
	}
	// An error, unlike false, stays an error under !.
	if Holds(&Cond{op: "!", x: c}, termRow{a, Unbound}) {
		t.Fatal("negated half-bound comparison must not hold")
	}
	if !Holds(c, termRow{a, a}) {
		t.Fatal("equal terms must compare true")
	}
}

func TestComparisonAllOperators(t *testing.T) {
	row := termRow{rdf.NewTypedLiteral("5", rdf.XSDInteger), rdf.NewTypedLiteral("6", rdf.XSDInteger)}
	cases := map[string]bool{"=": false, "!=": true, "<": true, "<=": true, ">": false, ">=": false}
	for op, want := range cases {
		c := CompileFilter(Comparison{Op: op, L: Operand{IsVar: true, Var: "x"}, R: Operand{IsVar: true, Var: "y"}},
			map[Var]int{"x": 0, "y": 1})
		if got := Holds(c, row); got != want {
			t.Errorf("5 %s 6 = %v, want %v", op, got, want)
		}
	}
}

func TestSelectedVarsOrdering(t *testing.T) {
	q := MustParse(`SELECT ?b ?a WHERE { ?a <http://e/p> ?b }`)
	vars := q.SelectedVars()
	if len(vars) != 2 || vars[0] != "b" || vars[1] != "a" {
		t.Fatalf("projection order not preserved: %v", vars)
	}
	star := MustParse(`SELECT * WHERE { ?b <http://e/p> ?a }`)
	vars = star.SelectedVars()
	if len(vars) != 2 || vars[0] != "a" { // sorted for SELECT *
		t.Fatalf("star vars = %v", vars)
	}
}

func TestEvaluateGroupWithUnionInside(t *testing.T) {
	g := rdf.NewGraph([]rdf.Triple{
		{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/p"), O: rdf.NewIRI("http://e/b")},
		{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/q"), O: rdf.NewIRI("http://e/c")},
	})
	q := MustParse(`SELECT ?x ?y WHERE {
		?x <http://e/p> ?b .
		{ ?x <http://e/q> ?y } UNION { ?x <http://e/p> ?y }
	}`)
	res, err := Evaluate(q, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Canonical())
	}
}

func TestAggregatesSumMinMax(t *testing.T) {
	g := rdf.NewGraph([]rdf.Triple{
		{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/v"), O: rdf.NewTypedLiteral("3", rdf.XSDInteger)},
		{S: rdf.NewIRI("http://e/b"), P: rdf.NewIRI("http://e/v"), O: rdf.NewTypedLiteral("7", rdf.XSDInteger)},
	})
	for _, c := range []struct {
		fn   string
		want string
	}{{"SUM", "10"}, {"MIN", "3"}, {"MAX", "7"}} {
		q := MustParse(`SELECT (` + c.fn + `(?v) AS ?r) WHERE { ?s <http://e/v> ?v }`)
		res, err := Evaluate(q, g)
		if err != nil {
			t.Fatal(err)
		}
		if res.bindings()[0]["r"].Value != c.want {
			t.Errorf("%s = %s, want %s", c.fn, res.bindings()[0]["r"].Value, c.want)
		}
	}
}

func TestUnquoteEscapes(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { ?x <http://e/p> "tab\tquote\"backslash\\newline\nret\r" }`)
	bgp, _ := q.BGPOf()
	if bgp.Patterns[0].O.Term.Value != "tab\tquote\"backslash\\newline\nret\r" {
		t.Fatalf("unquoted = %q", bgp.Patterns[0].O.Term.Value)
	}
	for _, bad := range []string{
		`SELECT ?x WHERE { ?x <http://e/p> "dangling\` + `" }`,
		`SELECT ?x WHERE { ?x <http://e/p> "bad\q" }`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestConstructQuery(t *testing.T) {
	g := rdf.NewGraph([]rdf.Triple{
		{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/advisor"), O: rdf.NewIRI("http://e/p1")},
		{S: rdf.NewIRI("http://e/b"), P: rdf.NewIRI("http://e/advisor"), O: rdf.NewIRI("http://e/p1")},
	})
	q := MustParse(`CONSTRUCT { ?prof <http://e/advises> ?st . ?prof <http://e/hasRole> <http://e/Advisor> }
		WHERE { ?st <http://e/advisor> ?prof }`)
	if q.Form != FormConstruct || len(q.Template) != 2 {
		t.Fatalf("form=%v template=%d", q.Form, len(q.Template))
	}
	res, err := Evaluate(q, g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsGraph {
		t.Fatal("expected graph result")
	}
	// 2 advises triples + 1 deduped hasRole triple.
	if len(res.Triples) != 3 {
		t.Fatalf("triples = %v", res.Triples)
	}
	if !slices.Contains(res.Triples, rdf.Triple{S: rdf.NewIRI("http://e/p1"), P: rdf.NewIRI("http://e/advises"), O: rdf.NewIRI("http://e/a")}) {
		t.Fatal("missing constructed triple")
	}
	if !strings.Contains(res.String(), "advises") {
		t.Fatalf("render = %s", res.String())
	}
}

func TestConstructSkipsInvalidInstantiations(t *testing.T) {
	g := rdf.NewGraph([]rdf.Triple{
		{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/name"), O: rdf.NewLiteral("Ann")},
	})
	// ?n is a literal: using it as subject must be silently dropped.
	q := MustParse(`CONSTRUCT { ?n <http://e/of> ?s } WHERE { ?s <http://e/name> ?n }`)
	res, err := Evaluate(q, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 0 {
		t.Fatalf("invalid triples kept: %v", res.Triples)
	}
}

func TestConstructWithOptionalUnboundVars(t *testing.T) {
	g := rdf.NewGraph([]rdf.Triple{
		{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/p"), O: rdf.NewIRI("http://e/b")},
	})
	q := MustParse(`CONSTRUCT { ?s <http://e/q> ?m } WHERE {
		?s <http://e/p> ?o OPTIONAL { ?s <http://e/missing> ?m } }`)
	res, err := Evaluate(q, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 0 {
		t.Fatalf("unbound template vars kept: %v", res.Triples)
	}
}

func TestConstructEqualSetSemantics(t *testing.T) {
	t1 := rdf.Triple{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/p"), O: rdf.NewIRI("http://e/b")}
	t2 := rdf.Triple{S: rdf.NewIRI("http://e/c"), P: rdf.NewIRI("http://e/p"), O: rdf.NewIRI("http://e/d")}
	a := &Results{IsGraph: true, Triples: []rdf.Triple{t1, t2}}
	b := &Results{IsGraph: true, Triples: []rdf.Triple{t2, t1}}
	if !a.Equal(b) {
		t.Fatal("graph equality must be order-insensitive")
	}
	c := &Results{IsGraph: true, Triples: []rdf.Triple{t1}}
	if a.Equal(c) {
		t.Fatal("different graphs compare equal")
	}
	sel := &Results{Vars: []Var{"x"}}
	if a.Equal(sel) {
		t.Fatal("graph vs select compare equal")
	}
}

func TestConstructParseErrors(t *testing.T) {
	for _, bad := range []string{
		`CONSTRUCT { } WHERE { ?s ?p ?o }`,
		`CONSTRUCT { ?s ?p ?o WHERE { ?s ?p ?o }`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestDescribeQuery(t *testing.T) {
	g := rdf.NewGraph([]rdf.Triple{
		{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/name"), O: rdf.NewLiteral("Ann")},
		{S: rdf.NewIRI("http://e/a"), P: rdf.NewIRI("http://e/knows"), O: rdf.NewIRI("http://e/b")},
		{S: rdf.NewIRI("http://e/b"), P: rdf.NewIRI("http://e/name"), O: rdf.NewLiteral("Bob")},
	})
	// Constant form without WHERE.
	res, err := Evaluate(MustParse(`DESCRIBE <http://e/a>`), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsGraph || len(res.Triples) != 2 {
		t.Fatalf("describe a = %v", res.Triples)
	}
	// Variable form with WHERE.
	res2, err := Evaluate(MustParse(`DESCRIBE ?x WHERE { ?x <http://e/knows> ?y }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Triples) != 2 {
		t.Fatalf("describe ?x = %v", res2.Triples)
	}
	// Multiple targets dedupe overlapping descriptions.
	res3, err := Evaluate(MustParse(`DESCRIBE ?x ?y WHERE { ?x <http://e/knows> ?y }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Triples) != 3 {
		t.Fatalf("describe ?x ?y = %v", res3.Triples)
	}
}

func TestDescribeParseErrors(t *testing.T) {
	for _, bad := range []string{
		`DESCRIBE`,
		`DESCRIBE WHERE { ?s ?p ?o }`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}
