package sparql

import (
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }

func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

func num(s string) rdf.Term { return rdf.NewTypedLiteral(s, rdf.XSDInteger) }

// socialGraph is the fixture most tests query.
func socialGraph() *rdf.Graph {
	return rdf.NewGraph([]rdf.Triple{
		{S: iri("ann"), P: iri("knows"), O: iri("bob")},
		{S: iri("bob"), P: iri("knows"), O: iri("cid")},
		{S: iri("ann"), P: iri("age"), O: num("31")},
		{S: iri("bob"), P: iri("age"), O: num("25")},
		{S: iri("cid"), P: iri("age"), O: num("44")},
		{S: iri("ann"), P: iri("name"), O: lit("Ann")},
		{S: iri("bob"), P: iri("name"), O: lit("Bob")},
		{S: iri("ann"), P: rdf.NewIRI(rdf.RDFType), O: iri("Person")},
		{S: iri("bob"), P: rdf.NewIRI(rdf.RDFType), O: iri("Person")},
	})
}

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse(`SELECT ?x ?y WHERE { ?x <http://ex.org/knows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != FormSelect || q.Distinct {
		t.Fatalf("form = %v distinct=%v", q.Form, q.Distinct)
	}
	if !reflect.DeepEqual(q.Projection, []Var{"x", "y"}) {
		t.Fatalf("projection = %v", q.Projection)
	}
	bgp, ok := q.BGPOf()
	if !ok || len(bgp.Patterns) != 1 {
		t.Fatalf("BGP = %v %v", bgp, ok)
	}
}

func TestParsePrefixes(t *testing.T) {
	q, err := Parse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:knows ex:bob }`)
	if err != nil {
		t.Fatal(err)
	}
	bgp, _ := q.BGPOf()
	if bgp.Patterns[0].P.Term != iri("knows") {
		t.Fatalf("predicate = %v", bgp.Patterns[0].P)
	}
	if bgp.Patterns[0].O.Term != iri("bob") {
		t.Fatalf("object = %v", bgp.Patterns[0].O)
	}
}

// The lexer's terminals as SPARQL 1.1 §19.8 writes them: the empty
// prefix (PNAME_NS ":" and PNAME_LN ":local"), DECIMAL beside INTEGER,
// and a '.' that ends a triple right after a number or a name (a number
// takes a dot only before a digit; PN_LOCAL and VARNAME never end in
// one), and VARNAME's characters past ASCII (PN_CHARS_U, U+00B7 and
// the combining marks). Each row's want is the BGP the text parses to.
func TestLexTerminals(t *testing.T) {
	dec := func(s string) rdf.Term { return rdf.NewTypedLiteral(s, rdf.XSDDecimal) }
	pat := func(s, p, o TPElem) TriplePattern { return TriplePattern{S: s, P: p, O: o} }
	x, y := VarElem("x"), VarElem("y")
	for _, tc := range []struct {
		text string
		want []TriplePattern
	}{
		{`PREFIX : <http://ex.org/> SELECT ?x WHERE { ?x :knows :bob }`,
			[]TriplePattern{pat(x, TermElem(iri("knows")), TermElem(iri("bob")))}},
		{`PREFIX : <http://ex.org/> SELECT ?x WHERE { ?x :knows :bob. ?x :age ?y }`,
			[]TriplePattern{pat(x, TermElem(iri("knows")), TermElem(iri("bob"))), pat(x, TermElem(iri("age")), y)}},
		{`SELECT ?x WHERE { ?x <http://ex.org/age> 2.5 }`,
			[]TriplePattern{pat(x, TermElem(iri("age")), TermElem(dec("2.5")))}},
		{`SELECT ?x WHERE { ?x <http://ex.org/age> -0.25 }`,
			[]TriplePattern{pat(x, TermElem(iri("age")), TermElem(dec("-0.25")))}},
		{`SELECT ?x ?y WHERE { ?x <http://ex.org/age> 25. ?x <http://ex.org/name> ?y }`,
			[]TriplePattern{pat(x, TermElem(iri("age")), TermElem(num("25"))), pat(x, TermElem(iri("name")), y)}},
		{`SELECT ?x ?y WHERE { ?x <http://ex.org/age> 2.5. ?x <http://ex.org/name> ?y }`,
			[]TriplePattern{pat(x, TermElem(iri("age")), TermElem(dec("2.5"))), pat(x, TermElem(iri("name")), y)}},
		{`SELECT ?x ?y WHERE { ?x <http://ex.org/name> ?y. }`,
			[]TriplePattern{pat(x, TermElem(iri("name")), y)}},
		{`SELECT ?ünï WHERE { ?ünï <http://ex.org/knows> ?名前. ?名前 <http://ex.org/name> ?a·b́ }`,
			[]TriplePattern{
				pat(VarElem("ünï"), TermElem(iri("knows")), VarElem("名前")),
				pat(VarElem("名前"), TermElem(iri("name")), VarElem("a·b́")),
			}},
	} {
		q, err := Parse(tc.text)
		if err != nil {
			t.Errorf("%s: %v", tc.text, err)
			continue
		}
		if bgp, ok := q.BGPOf(); !ok || !reflect.DeepEqual(bgp.Patterns, tc.want) {
			t.Errorf("%s:\n got  %v\n want %v", tc.text, q.Where, tc.want)
		}
	}
	// A decimal compares by value in a FILTER, as the integer it equals.
	res, err := Evaluate(MustParse(`SELECT ?x WHERE { ?x <http://ex.org/age> ?a FILTER(?a > 30.5) }`), socialGraph())
	if err != nil || res.Len() != 2 {
		t.Fatalf("FILTER(?a > 30.5): %v rows, err %v; want ann and cid", res, err)
	}
}

func TestParseAKeyword(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x a <http://ex.org/Person> }`)
	if err != nil {
		t.Fatal(err)
	}
	bgp, _ := q.BGPOf()
	if bgp.Patterns[0].P.Term.Value != rdf.RDFType {
		t.Fatalf("a did not expand to rdf:type: %v", bgp.Patterns[0].P)
	}
}

func TestParseSemicolonComma(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { ?x <http://e/p> ?y ; <http://e/q> ?z , ?w }`)
	if err != nil {
		t.Fatal(err)
	}
	bgp, _ := q.BGPOf()
	if len(bgp.Patterns) != 3 {
		t.Fatalf("patterns = %d", len(bgp.Patterns))
	}
	if bgp.Patterns[1].S != bgp.Patterns[0].S || bgp.Patterns[2].P != bgp.Patterns[1].P {
		t.Fatalf("continuations wrong: %v", bgp.Patterns)
	}
}

func TestParseModifiers(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT ?x WHERE { ?x <http://e/p> ?y } ORDER BY DESC(?x) LIMIT 5 OFFSET 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct || q.Limit != 5 || q.Offset != 2 {
		t.Fatalf("modifiers = %+v", q)
	}
	if len(q.OrderBy) != 1 || q.OrderBy[0].Asc {
		t.Fatalf("orderBy = %v", q.OrderBy)
	}
}

func TestParseFilterOptionalUnion(t *testing.T) {
	q, err := Parse(`SELECT * WHERE {
		?x <http://e/p> ?y .
		FILTER(?y > 3 && ?y != 10)
		OPTIONAL { ?x <http://e/q> ?z }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Where.(Optional); !ok {
		t.Fatalf("top pattern = %T", q.Where)
	}
	q2, err := Parse(`SELECT * WHERE { { ?x <http://e/p> ?y } UNION { ?x <http://e/q> ?y } }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q2.Where.(Union); !ok {
		t.Fatalf("top pattern = %T", q2.Where)
	}
}

func TestParseAsk(t *testing.T) {
	q, err := Parse(`ASK { <http://e/s> <http://e/p> <http://e/o> }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != FormAsk {
		t.Fatalf("form = %v", q.Form)
	}
}

func TestParseAggregate(t *testing.T) {
	q, err := Parse(`SELECT (COUNT(?x) AS ?n) WHERE { ?x <http://e/p> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg == nil || q.Agg.Fn != "COUNT" || q.Agg.As != "n" {
		t.Fatalf("agg = %+v", q.Agg)
	}
	q2, err := Parse(`SELECT ?y AVG(?x) WHERE { ?s <http://e/p> ?x . ?s <http://e/q> ?y } GROUP BY ?y`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Agg == nil || q2.Agg.Fn != "AVG" || len(q2.Agg.Group) != 1 {
		t.Fatalf("agg = %+v", q2.Agg)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"SELECT WHERE { }",
		"SELECT ?x WHERE { ?x ?p }",
		"SELECT ?x WHERE { ?x ?p ?o",
		"SELECT ?x WHERE { ?x ?p ?o } LIMIT x",
		"SELECT ?x WHERE { ?x unknown:p ?o }",
		"SELECT ?x WHERE { ?x ?p ?o } trailing",
		"SELECT ?x WHERE { ?x ?p \"unterminated }",
		"SELECT ?x WHERE { FILTER() ?x ?p ?o }",
		"SELECT ?x WHERE { ?x ?p ?o } GROUP BY ?x",
		"ASK { ?x ?p ?o } ORDER BY",
		"SELECT ?x WHERE { ?x ?p ?× }", // U+00D7 is no PN_CHARS_BASE
		// §19.8 VARNAME holds no '-' and no '.': ?x-1 is ?x then -1.
		"SELECT ?x WHERE { ?x <http://ex/p> ?y FILTER(?x-1 > 1) }",
		"SELECT ?a-b WHERE { ?s <http://ex/p> ?a }",
		"SELECT ?a.b WHERE { ?s <http://ex/p> ?a }",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

// An aggregate's alias may not be in scope already (§18.2.1): the parse
// fails with a *ScopeError. WHERE is optional before a SELECT's or a
// CONSTRUCT's pattern (§19.8 WhereClause).
func TestParseSelectScopeAndWhere(t *testing.T) {
	for _, bad := range []string{
		`SELECT (COUNT(*) AS ?s) WHERE { ?s <http://e/k> ?x } GROUP BY ?s`,
		`SELECT (COUNT(*) AS ?x) WHERE { ?s <http://e/k> ?x }`,
		`SELECT (SUM(?x) AS ?g) WHERE { ?s <http://e/k> ?x } GROUP BY ?g`,
		`SELECT ?s (MAX(?x) AS ?o) WHERE { ?s <http://e/k> ?x OPTIONAL { ?s <http://e/q> ?o } } GROUP BY ?s`,
	} {
		var se *ScopeError
		if _, err := Parse(bad); !errors.As(err, &se) {
			t.Errorf("Parse(%q) = %v, want a *ScopeError", bad, err)
		}
	}
	for _, text := range []string{
		`SELECT ?s { ?s ?p ?o }`,
		`SELECT (COUNT(*) AS ?n) { ?s <http://e/k> ?x FILTER(?x > 1) } GROUP BY ?s`,
		`CONSTRUCT { ?s <http://e/q> ?o } { ?s <http://e/p> ?o }`,
	} {
		q, err := Parse(text)
		if err != nil {
			t.Errorf("Parse(%q): %v", text, err)
			continue
		}
		if len(q.Where.PatternVars()) == 0 {
			t.Errorf("Parse(%q) read no pattern", text)
		}
	}
}

func TestEvaluateSingleTP(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?x ?y WHERE { ?x <http://ex.org/knows> ?y }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestEvaluateStarJoin(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?x ?n ?a WHERE {
		?x <http://ex.org/name> ?n .
		?x <http://ex.org/age> ?a }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // ann and bob have both name and age
		t.Fatalf("rows = %v", res.Canonical())
	}
}

func TestEvaluateLinearJoin(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?a ?c WHERE {
		?a <http://ex.org/knows> ?b .
		?b <http://ex.org/knows> ?c }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %v", res.Canonical())
	}
	row := res.bindings()[0]
	if row["a"] != iri("ann") || row["c"] != iri("cid") {
		t.Fatalf("row = %v", row)
	}
}

func TestEvaluateSharedVariableConsistency(t *testing.T) {
	// ?x knows ?x must only match self-loops (none here).
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?x WHERE { ?x <http://ex.org/knows> ?x }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %v", res.Canonical())
	}
}

func TestEvaluateFilter(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?x WHERE {
		?x <http://ex.org/age> ?a . FILTER(?a > 30) }`), g)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, b := range res.bindings() {
		got[b["x"].Value] = true
	}
	if len(got) != 2 || !got["http://ex.org/ann"] || !got["http://ex.org/cid"] {
		t.Fatalf("rows = %v", res.Canonical())
	}
}

func TestEvaluateFilterLogic(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?x WHERE {
		?x <http://ex.org/age> ?a . FILTER(?a > 30 && !(?a >= 40)) }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.bindings()[0]["x"] != iri("ann") {
		t.Fatalf("rows = %v", res.Canonical())
	}
	res2, err := Evaluate(MustParse(`SELECT ?x WHERE {
		?x <http://ex.org/age> ?a . FILTER(?a < 26 || ?a > 43) }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 2 {
		t.Fatalf("rows = %v", res2.Canonical())
	}
}

func TestEvaluateOptional(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?x ?n WHERE {
		?x <http://ex.org/age> ?a .
		OPTIONAL { ?x <http://ex.org/name> ?n } }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %v", res.Canonical())
	}
	unbound := 0
	for _, b := range res.bindings() {
		if _, ok := b["n"]; !ok {
			unbound++
		}
	}
	if unbound != 1 { // cid has no name
		t.Fatalf("unbound = %d", unbound)
	}
}

func TestEvaluateBoundFilter(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?x WHERE {
		?x <http://ex.org/age> ?a .
		OPTIONAL { ?x <http://ex.org/name> ?n }
		FILTER(!BOUND(?n)) }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.bindings()[0]["x"] != iri("cid") {
		t.Fatalf("rows = %v", res.Canonical())
	}
}

func TestEvaluateUnion(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?x WHERE {
		{ ?x <http://ex.org/name> "Ann" } UNION { ?x <http://ex.org/name> "Bob" } }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Canonical())
	}
}

func TestEvaluateDistinctOrderLimit(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT DISTINCT ?a WHERE {
		?x <http://ex.org/age> ?a } ORDER BY ?a LIMIT 2`), g)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.OrderedCanonical()
	if len(rows) != 2 || !strings.Contains(rows[0], "25") || !strings.Contains(rows[1], "31") {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvaluateOrderDescending(t *testing.T) {
	g := socialGraph()
	res, err := Evaluate(MustParse(`SELECT ?x ?a WHERE {
		?x <http://ex.org/age> ?a } ORDER BY DESC(?a)`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.bindings()[0]["x"] != iri("cid") {
		t.Fatalf("head = %v", res.bindings()[0])
	}
}

// §18.2.5 orders before it projects, then applies DISTINCT, then the
// slice: a key the projection drops still orders the rows, and a LIMIT
// ahead of a DISTINCT keeps the rows DISTINCT leaves, not the first
// LIMIT rows it is handed.
func TestEvaluateOrderBeforeProject(t *testing.T) {
	r := iri("r")
	g := rdf.NewGraph([]rdf.Triple{
		{S: iri("b"), P: r, O: num("2")}, {S: iri("a"), P: r, O: num("1")},
		{S: iri("a"), P: r, O: num("0")}, {S: iri("c"), P: r, O: num("3")},
	})
	for _, tc := range []struct{ query, want string }{
		{`SELECT ?s WHERE { ?s <http://ex.org/r> ?x } ORDER BY ?x`, "a a b c"},
		{`SELECT ?s WHERE { ?s <http://ex.org/r> ?x } ORDER BY DESC(?x) LIMIT 2 OFFSET 1`, "b a"},
		{`SELECT DISTINCT ?s WHERE { ?s <http://ex.org/r> ?x } ORDER BY ?x LIMIT 2`, "a b"},
		{`SELECT DISTINCT ?s ?x WHERE { ?s <http://ex.org/r> ?x } ORDER BY DESC(?x) LIMIT 2`, "c b"},
	} {
		res, err := Evaluate(MustParse(tc.query), g)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, b := range res.bindings() {
			got = append(got, strings.TrimPrefix(b["s"].Value, "http://ex.org/"))
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%s: got %v, want %s", tc.query, got, tc.want)
		}
	}
}

func TestEvaluateAsk(t *testing.T) {
	g := socialGraph()
	yes, err := Evaluate(MustParse(`ASK { <http://ex.org/ann> <http://ex.org/knows> ?x }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if !yes.IsAsk || !yes.Ask {
		t.Fatalf("ask = %+v", yes)
	}
	no, err := Evaluate(MustParse(`ASK { <http://ex.org/cid> <http://ex.org/knows> ?x }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if no.Ask {
		t.Fatal("expected false")
	}
}

func TestEvaluateCountAggregate(t *testing.T) {
	g := socialGraph()
	if _, err := Parse(`SELECT (COUNT(?x) AS ?n) WHERE { ?x <http://ex.org/age) ?a }`); err == nil {
		t.Fatal("expected parse error for malformed IRI")
	}
	res, err := Evaluate(MustParse(`SELECT (COUNT(?x) AS ?n) WHERE { ?x <http://ex.org/age> ?a }`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.bindings()[0]["n"].Value != "3" {
		t.Fatalf("count = %v", res.Canonical())
	}
}

func TestEvaluateGroupedAvg(t *testing.T) {
	g := rdf.NewGraph([]rdf.Triple{
		{S: iri("a"), P: iri("dept"), O: lit("eng")},
		{S: iri("b"), P: iri("dept"), O: lit("eng")},
		{S: iri("a"), P: iri("age"), O: num("30")},
		{S: iri("b"), P: iri("age"), O: num("40")},
	})
	res, err := Evaluate(MustParse(`SELECT ?d (AVG(?a) AS ?avg) WHERE {
		?x <http://ex.org/dept> ?d . ?x <http://ex.org/age> ?a } GROUP BY ?d`), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.bindings()[0]["avg"].Value != "35" {
		t.Fatalf("avg = %v", res.Canonical())
	}
}

func TestResultsEqualIsOrderInsensitive(t *testing.T) {
	a := newResults([]Var{"x"}, [][]rdf.Term{{iri("a")}, {iri("b")}})
	b := newResults([]Var{"x"}, [][]rdf.Term{{iri("b")}, {iri("a")}})
	if !a.Equal(b) {
		t.Fatal("multiset equality failed")
	}
	c := newResults([]Var{"x"}, [][]rdf.Term{{iri("a")}, {iri("a")}})
	if a.Equal(c) {
		t.Fatal("different multisets compare equal")
	}
}

func TestShapeClassification(t *testing.T) {
	cases := []struct {
		query string
		want  Shape
	}{
		{`SELECT * WHERE { ?s <http://e/p1> ?a . ?s <http://e/p2> ?b . ?s <http://e/p3> ?c }`, ShapeStar},
		{`SELECT * WHERE { ?s <http://e/p> ?o }`, ShapeStar},
		{`SELECT * WHERE { ?a <http://e/p> ?b . ?b <http://e/q> ?c . ?c <http://e/r> ?d }`, ShapeLinear},
		{`SELECT * WHERE { ?a <http://e/p1> ?x . ?a <http://e/p2> ?b . ?b <http://e/q1> ?y . ?b <http://e/q2> ?z }`, ShapeSnowflake},
		{`SELECT * WHERE { ?a <http://e/p> ?x . ?b <http://e/q> ?y }`, ShapeComplex},
		{`SELECT * WHERE { { ?a <http://e/p> ?x } UNION { ?a <http://e/q> ?x } }`, ShapeComplex},
	}
	for _, c := range cases {
		got := ClassifyShape(MustParse(c.query))
		if got != c.want {
			t.Errorf("shape(%s) = %v, want %v", c.query, got, c.want)
		}
	}
}

func TestCompareTermsNumericVsLexical(t *testing.T) {
	if CompareTerms(num("9"), num("10")) >= 0 {
		t.Fatal("numeric literals must compare numerically")
	}
	if CompareTerms(lit("9"), lit("10")) <= 0 {
		t.Fatal("plain strings compare lexically")
	}
	if CompareTerms(iri("a"), lit("a")) == 0 {
		t.Fatal("IRI and literal must differ")
	}
}

// CompareTerms is one order: every permutation of a set of distinct
// terms sorts to the same sequence. The pool mixes the kinds and, among
// literals, numerics of several datatypes — two of one value among them
// — with strings, a language tag and other datatypes;
// "10"^^xsd:integer, "9" and "9"^^xsd:integer are the cycle an order
// taken class by class has (9 < 10 by value, "10" < "9" by lexical
// form, "9" < "9"^^xsd:integer by datatype). Mutants killed (each
// applied to a copy of ast.go):
//   - compareTerms without the numerics-first case: the cycle is back;
//   - compareTerms returning 0 on two numerics of one value: "1" and
//     "1.0" keep their input order.
func TestCompareTermsOneOrderProperty(t *testing.T) {
	const xsd = "http://www.w3.org/2001/XMLSchema#"
	pool := []rdf.Term{
		num("10"), lit("9"), num("9"), lit("10"), rdf.NewTypedLiteral("1.0", xsd+"decimal"), num("1"),
		rdf.NewTypedLiteral("NaN", xsd+"double"), rdf.NewTypedLiteral("-INF", xsd+"double"),
		rdf.NewLangLiteral("9", "en"), rdf.NewTypedLiteral("9", xsd+"string"), rdf.NewTypedLiteral("x", xsd+"integer"),
		rdf.NewTypedLiteral("true", xsd+"boolean"), iri("9"), iri("a"), rdf.NewBlank("b"), Unbound,
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var set []rdf.Term
		for _, term := range pool {
			if r.Intn(3) > 0 {
				set = append(set, term)
			}
		}
		var first []rdf.Term
		for range 4 {
			perm := slices.Clone(set)
			r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			slices.SortStableFunc(perm, CompareTerms)
			if first == nil {
				first = perm
			} else if !slices.Equal(perm, first) {
				t.Logf("seed %d: %v and %v", seed, first, perm)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// bindingRowEnv is an evaluation env whose slots are v, w, x, y and z
// and whose dictionary holds the terms a, b, c, d, e and other, so the
// binding fixtures below encode into its slot rows.
func bindingRowEnv() *evalEnv {
	g := rdf.NewGraph([]rdf.Triple{
		{S: iri("a"), P: iri("b"), O: iri("c")},
		{S: iri("d"), P: iri("e"), O: iri("other")},
	})
	return newEvalEnv(MustParse(`SELECT * WHERE { ?v ?w ?x . ?y ?z ?v }`), g)
}

// encodeBinding is the inverse of bindingOf over bindingRowEnv.
func encodeBinding(t *testing.T, env *evalEnv, b binding) slotRow {
	t.Helper()
	row := env.emptyRow()
	for v, term := range b {
		id, ok := env.view.Dict().Lookup(term)
		if !ok {
			t.Fatalf("%v is not in the fixture dictionary", term)
		}
		row[env.slots[v]] = id
	}
	return row
}

// The SPARQL join condition and union of two solutions, which the
// reference evaluator runs as compatibleRows and mergeRows over slot
// rows, keep the semantics they had on binding maps.
func TestBindingCompatibleMerge(t *testing.T) {
	env := bindingRowEnv()
	a := encodeBinding(t, env, binding{"x": iri("a"), "y": iri("b")})
	b := encodeBinding(t, env, binding{"y": iri("b"), "z": iri("c")})
	if !compatibleRows(a, b) {
		t.Fatal("compatible bindings rejected")
	}
	m := env.bindingOf(env.mergeRows(a, b))
	if len(m) != 3 || m["z"] != iri("c") {
		t.Fatalf("merge = %v", m)
	}
	c := encodeBinding(t, env, binding{"y": iri("other")})
	if compatibleRows(a, c) {
		t.Fatal("incompatible bindings accepted")
	}
}

// compatibleRows and mergeRows are pinned against the binding map bodies
// they stand for, in both argument orders: a variable unbound on either
// side, disjoint, equal and conflicting bindings. Merge is defined only
// for compatible pairs, so a conflicting pair is checked for rejection.
func TestBindingCompatibleMergeMatchReplacedBodies(t *testing.T) {
	compatible := func(b, other binding) bool {
		for k, v := range b {
			if ov, ok := other[k]; ok && ov != v {
				return false
			}
		}
		return true
	}
	merge := func(b, other binding) binding {
		out := maps.Clone(b)
		for k, v := range other {
			out[k] = v
		}
		return out
	}
	cases := []binding{
		{},
		{"x": iri("a")},
		{"x": iri("a"), "y": iri("b")},
		{"y": iri("b"), "z": iri("c")},
		{"y": iri("other")},
		{"x": iri("a"), "y": iri("other"), "z": iri("c"), "w": iri("d")},
		{"v": iri("e"), "w": iri("d")},
	}
	env := bindingRowEnv()
	for _, a := range cases {
		for _, b := range cases {
			ra, rb := encodeBinding(t, env, a), encodeBinding(t, env, b)
			before := append(slotRow(nil), ra...)
			got, want := compatibleRows(ra, rb), compatible(a, b)
			if got != want {
				t.Errorf("compatibleRows(%v, %v) = %v, want %v", a, b, got, want)
			}
			if want {
				if m, w := env.bindingOf(env.mergeRows(ra, rb)), merge(a, b); !reflect.DeepEqual(m, w) {
					t.Errorf("mergeRows(%v, %v) = %v, want %v", a, b, m, w)
				}
			}
			if !reflect.DeepEqual(ra, before) {
				t.Errorf("%v changed to %v", before, ra)
			}
		}
	}
}
