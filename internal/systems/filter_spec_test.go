package systems

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
)

// TestFilterSpec holds FILTER and ORDER BY to answers written by hand
// from SPARQL 1.1 — §17.2 (three-valued && || !, BOUND), §17.3 (the
// operator table, RDFterm-equal) and §15.1 (ORDER BY across kinds) — not
// derived from any evaluator. Its rows follow the kinds of case the W3C
// data-r2 suites expr-ops, open-world, boolean-effective-value and
// solution-seq test (cited by name; nothing is read from them). Each
// row projects ?s alone, so an ORDER BY key is one the projection
// drops (§18.2.5 orders first), and runs through sparql.Evaluate and
// through every engine whose fragment holds it: the BGP+ engines run
// every row, the BGP-only engines the rows that are one BGP.
//
// The data: a, b, c and _:z have a name; b's age is 30 (xsd:integer),
// c's is "x"; s1…s10 each have one v of a different kind; a, b and c
// each have a k of a different kind (blank node, IRI, literal) and an r
// (3, 1 and 2); s11…s14 have a w, 9 and 10 as integers and as simple
// literals.
func TestFilterSpec(t *testing.T) {
	const xsd = "http://www.w3.org/2001/XMLSchema#"
	e := func(local string) rdf.Term { return rdf.NewIRI("http://e/" + local) }
	tr := func(s rdf.Term, p string, o rdf.Term) rdf.Triple { return rdf.Triple{S: s, P: e(p), O: o} }
	z := rdf.NewBlank("z")
	triples := []rdf.Triple{
		tr(e("a"), "name", rdf.NewLiteral("A")), tr(e("b"), "name", rdf.NewLiteral("B")),
		tr(e("c"), "name", rdf.NewLiteral("C")), tr(z, "name", rdf.NewLiteral("Z")),
		tr(e("b"), "age", rdf.NewTypedLiteral("30", xsd+"integer")), tr(e("c"), "age", rdf.NewLiteral("x")),
		tr(e("s1"), "v", rdf.NewTypedLiteral("5", xsd+"string")),
		tr(e("s2"), "v", rdf.NewTypedLiteral("5", "http://e/custom")),
		tr(e("s3"), "v", rdf.NewTypedLiteral("5", xsd+"integer")),
		tr(e("s4"), "v", rdf.NewLiteral("5")),
		tr(e("s5"), "v", rdf.NewTypedLiteral("5.0", xsd+"decimal")),
		tr(e("s6"), "v", rdf.NewTypedLiteral("true", xsd+"boolean")),
		tr(e("s7"), "v", rdf.NewLangLiteral("5", "en")),
		tr(e("s8"), "v", e("o")),
		tr(e("s9"), "v", rdf.NewTypedLiteral("NaN", xsd+"double")),
		tr(e("s10"), "v", rdf.NewTypedLiteral("five", xsd+"integer")), // ill-typed
		tr(e("a"), "k", rdf.NewBlank("k")), tr(e("b"), "k", e("k")), tr(e("c"), "k", rdf.NewLiteral("k")),
		tr(e("a"), "r", rdf.NewTypedLiteral("3", xsd+"integer")), tr(e("b"), "r", rdf.NewTypedLiteral("1", xsd+"integer")),
		tr(e("c"), "r", rdf.NewTypedLiteral("2", xsd+"integer")),
		tr(e("s11"), "w", rdf.NewTypedLiteral("9", xsd+"integer")), tr(e("s12"), "w", rdf.NewTypedLiteral("10", xsd+"integer")),
		tr(e("s13"), "w", rdf.NewLiteral("9")), tr(e("s14"), "w", rdf.NewLiteral("10")),
	}
	const (
		names   = `?s e:name ?n `
		ages    = names + `OPTIONAL { ?s e:age ?a } `
		values  = `?s e:v ?a `
		allV    = "s1 s2 s3 s4 s5 s6 s7 s8 s9 s10"
		custom  = `"5"^^<http://e/custom>`
		boolean = `"true"^^<` + xsd + `boolean>`
	)
	type row struct{ where, want string }
	rows := []row{
		// Five queries a two-valued FILTER, or an ORDER BY that ranks
		// the kinds IRI < literal < blank node, answers otherwise.
		{ages + `FILTER(!(?a < 20))`, "b"}, // ! of an error is an error
		{names + `FILTER(?s < 20)`, ""},    // an IRI is not ordered
		{`?s e:age ?a FILTER(?a > 20)`, "b"},
		{values + `FILTER(?a < 10)`, "s3 s5"}, // numeric is an XSD numeric datatype
		{names + `ORDER BY ?s`, "_:z a b c"},  // blank nodes, then IRIs

		// §17.2: an unbound operand is an error; && and || by the truth
		// table; BOUND is never an error.
		{ages + `FILTER(?a > 20 || BOUND(?s))`, "a b c _:z"}, // E || T = T
		{ages + `FILTER(?a > 20 || !BOUND(?a))`, "a b _:z"},  // E || F = E
		{ages + `FILTER(?a > 20 && BOUND(?a))`, "b"},         // E && T = E
		{ages + `FILTER(!(?a > 20 && BOUND(?a)))`, "a _:z"},  // E && F = F
		{ages + `FILTER(!BOUND(?a))`, "a _:z"},
		{ages + `FILTER(?a = ?a)`, "b c"},
		{ages + `FILTER(?a = ?s)`, ""}, // unbound (a, _:z) or unequal (b, c)
		{names + `FILTER(?nowhere = ?nowhere)`, ""},

		// §17.3: each class ordered against itself; = and != as
		// RDFterm-equal for every other pair, an error between two
		// literals that are not the same term.
		{values + `FILTER(?a = 5)`, "s3 s5"},
		{values + `FILTER(?a != 5)`, "s8 s9"}, // an IRI is unequal to 5; NaN != 5
		{values + `FILTER(?a = "5")`, "s1 s4"},
		{values + `FILTER(?a != "5")`, "s8"},
		{values + `FILTER(?a < "6")`, "s1 s4"},
		{values + `FILTER(?a = ` + custom + `)`, "s2"},
		{values + `FILTER(?a != ` + custom + `)`, "s8"},
		{values + `FILTER(?a = "5"@en)`, "s7"},
		{values + `FILTER(?a = ` + boolean + `)`, "s6"},
		{values + `FILTER(?a <= ?a)`, "s1 s3 s4 s5"}, // NaN, and no order outside the classes
		{values + `FILTER(?a = ?a)`, "s1 s2 s3 s4 s5 s6 s7 s8 s10"},
		{values + `FILTER(!(?a = ?a))`, "s9"},
		{names + `FILTER(?s = <http://e/a>)`, "a"},
		{names + `FILTER(?s != <http://e/a>)`, "b c _:z"},
		{values + `FILTER(9 < 10)`, allV},
		{values + `FILTER("9" < "10")`, ""}, // strings by code point
		{values + `FILTER(!(<http://e/a> = "a"))`, allV},

		// §15.1: unbound, blank nodes, IRIs, literals; numerics by value,
		// strings by code point. §15.1 leaves the order of two literals
		// of different classes open; this one puts the numerics first.
		{names + `OPTIONAL { ?s e:k ?x } ORDER BY ?x`, "_:z a b c"},
		{names + `OPTIONAL { ?s e:k ?x } ORDER BY DESC(?x)`, "c b a _:z"},
		{`?s e:w ?x FILTER(?x > 0) ORDER BY ?x`, "s11 s12"},
		{`?s e:w ?x FILTER(?x >= "") ORDER BY ?x`, "s14 s13"},
		{`?s e:w ?x FILTER(?s != <http://e/s14>) ORDER BY ?x`, "s11 s12 s13"},
		{`?s e:w ?x ORDER BY ?x`, "s11 s12 s14 s13"},
		{`?s e:w ?x ORDER BY DESC(?x)`, "s13 s14 s12 s11"},

		// §18.2.5: ORDER BY, then projection, then the slice.
		{`?s e:r ?x ORDER BY ?x`, "b c a"},
		{`?s e:r ?x ORDER BY DESC(?x) LIMIT 2`, "a c"},
	}
	for op, holds := range map[string]bool{"=": false, "!=": true, "<": true, "<=": true, ">": false, ">=": false} {
		want := ""
		if holds {
			want = "b c"
		}
		rows = append(rows, row{`?s e:age ?a FILTER(5 ` + op + ` 6)`, want})
	}

	answerers := specAnswerers(t, triples)
	for _, r := range rows {
		where, order, ordered := strings.Cut(r.where, "ORDER BY")
		if ordered {
			order = "ORDER BY" + order
		}
		q := sparql.MustParse(`PREFIX e: <http://e/> SELECT ?s WHERE { ` + where + `} ` + order)
		_, isBGP := q.BGPOf()
		want := strings.Fields(r.want)
		if !ordered {
			slices.Sort(want)
		}
		for _, a := range answerers {
			if a.bgpOnly && !isBGP {
				continue
			}
			res, err := a.run(q)
			if err != nil {
				t.Errorf("%s: %s: %v", a.name, r.where, err)
				continue
			}
			got := make([]string, res.Len())
			for i := range got {
				s, _ := res.Term(i, 0)
				got[i] = strings.TrimPrefix(strings.Trim(s.String(), "<>"), "http://e/")
			}
			if !ordered {
				slices.Sort(got)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s\n got  %v\n want %v", a.name, r.where, got, want)
			}
		}
	}
}

// specAnswerer is one evaluator a spec table runs on: the reference or
// an engine, with the fragment it holds.
type specAnswerer struct {
	name    string
	run     func(*sparql.Query) (*sparql.Results, error)
	bgpOnly bool
}

// specAnswerers loads triples into the reference and all nine engines.
func specAnswerers(t *testing.T, triples []rdf.Triple) []specAnswerer {
	ref := rdf.NewGraph(triples)
	answerers := []specAnswerer{{"reference", func(q *sparql.Query) (*sparql.Results, error) { return sparql.Evaluate(q, ref) }, false}}
	bgpOnly := 0
	for _, eng := range AllEngines(spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4}) {
		if err := eng.Load(triples); err != nil {
			t.Fatalf("%s: %v", eng.Info().Name, err)
		}
		answerers = append(answerers, specAnswerer{eng.Info().Name, eng.Execute, eng.Info().SPARQL != core.FragmentBGPPlus})
		if eng.Info().SPARQL != core.FragmentBGPPlus {
			bgpOnly++
		}
	}
	if len(answerers) != 10 || bgpOnly != 5 {
		t.Fatalf("%d evaluators, %d BGP-only, want the reference and nine engines, four of them BGP+", len(answerers), bgpOnly)
	}
	return answerers
}

// TestAggregateSpec holds the aggregates to answers written by hand from
// SPARQL 1.1: §18.5.1's datatypes (SUM of integers is an integer, of
// anything else a decimal; AVG is a decimal, and the average of nothing
// is the integer 0) and §18.2.4.1's implicit group (with no GROUP BY the
// whole sequence is one group, an empty one too: one row, COUNT and SUM
// 0, MIN and MAX unbound; with GROUP BY an empty sequence has no group;
// the SELECT list, not the GROUP BY, is the projection).
// Its rows follow the kinds of case the W3C data-sparql11 suite
// aggregates tests (cited by name; nothing is read from it). Each runs
// through sparql.Evaluate and every engine whose fragment holds it; an
// answer is its rows in either order, each the projected terms with
// UNDEF for an unbound one.
//
// The data: a, b and c have a k of 1, 2 and 3, c a second of 4; d has a
// v of 1.5 (decimal) and 2 (integer); p, q and r have a t of 1, 1 and 2;
// a has the name "Ann"; m has a w of "Ann" and 3, n one of 5; nothing
// has a none.
func TestAggregateSpec(t *testing.T) {
	const xsd = "http://www.w3.org/2001/XMLSchema#"
	e := func(local string) rdf.Term { return rdf.NewIRI("http://e/" + local) }
	integer := func(v string) rdf.Term { return rdf.NewTypedLiteral(v, xsd+"integer") }
	triples := []rdf.Triple{
		rdf.Triple{S: e("a"), P: e("k"), O: integer("1")}, rdf.Triple{S: e("b"), P: e("k"), O: integer("2")},
		rdf.Triple{S: e("c"), P: e("k"), O: integer("3")}, rdf.Triple{S: e("c"), P: e("k"), O: integer("4")},
		rdf.Triple{S: e("d"), P: e("v"), O: rdf.NewTypedLiteral("1.5", xsd+"decimal")}, rdf.Triple{S: e("d"), P: e("v"), O: integer("2")},
		rdf.Triple{S: e("p"), P: e("t"), O: integer("1")}, rdf.Triple{S: e("q"), P: e("t"), O: integer("1")},
		rdf.Triple{S: e("r"), P: e("t"), O: integer("2")},
		rdf.Triple{S: e("a"), P: e("name"), O: rdf.NewLiteral("Ann")},
		rdf.Triple{S: e("m"), P: e("w"), O: rdf.NewLiteral("Ann")}, rdf.Triple{S: e("m"), P: e("w"), O: integer("3")},
		rdf.Triple{S: e("n"), P: e("w"), O: integer("5")},
	}
	const (
		xdec  = `^^<` + xsd + `decimal>`
		xint  = `^^<` + xsd + `integer>`
		k     = `WHERE { ?s e:k ?x } `
		none  = `WHERE { ?s e:none ?x } `
		group = `GROUP BY ?s`
	)
	rows := []struct {
		query string
		want  []string
	}{
		// §18.5.1: the datatype of a computed value.
		{`SELECT (AVG(?x) AS ?m) ` + k, []string{`"2.5"` + xdec}},
		{`SELECT (SUM(?x) AS ?m) WHERE { ?s e:v ?x }`, []string{`"3.5"` + xdec}},
		{`SELECT (AVG(?x) AS ?m) WHERE { ?s e:t ?x }`, []string{`"1.3333333333333333"` + xdec}}, // no rounding to six places
		{`SELECT ?s (AVG(?x) AS ?m) ` + k + group, []string{`<http://e/a> "1"` + xdec, `<http://e/b> "2"` + xdec, `<http://e/c> "3.5"` + xdec}},

		// §18.2.4.1: the SELECT list is the projection; a group variable
		// it leaves out is not answered, so DISTINCT merges equal counts.
		{`SELECT (COUNT(*) AS ?m) WHERE { ?s e:t ?x } GROUP BY ?x`, []string{`"1"` + xint, `"2"` + xint}},
		{`SELECT DISTINCT (COUNT(*) AS ?m) ` + k + group, []string{`"1"` + xint, `"2"` + xint}},
		// §18.2.5: the columns are the SELECT list in its written order,
		// the alias where it is written.
		{`SELECT (COUNT(*) AS ?n) ?s ` + k + group, []string{`"1"` + xint + ` <http://e/a>`, `"1"` + xint + ` <http://e/b>`, `"2"` + xint + ` <http://e/c>`}},

		// §18.2.4.1: the implicit group of an empty sequence is one row.
		{`SELECT (COUNT(*) AS ?n) ` + none, []string{`"0"` + xint}},
		{`SELECT (COUNT(?x) AS ?n) ` + none, []string{`"0"` + xint}},
		{`SELECT (SUM(?x) AS ?n) ` + none, []string{`"0"` + xint}},
		{`SELECT (AVG(?x) AS ?n) ` + none, []string{`"0"` + xint}},
		{`SELECT (MIN(?x) AS ?n) ` + none, []string{`UNDEF`}},
		{`SELECT (MAX(?x) AS ?n) ` + none, []string{`UNDEF`}},
		{`SELECT ?s (COUNT(*) AS ?n) ` + none + group, nil},
		{`SELECT ?s (MIN(?x) AS ?n) ` + none + group, nil},

		// §18.5.1: SUM and AVG over a value op:numeric-add is not defined
		// on are an error, which leaves the alias unbound; the other
		// groups and COUNT are unaffected.
		{`SELECT (SUM(?x) AS ?m) WHERE { ?s e:name ?x }`, []string{`UNDEF`}},
		{`SELECT (AVG(?x) AS ?m) WHERE { ?s e:name ?x }`, []string{`UNDEF`}},
		{`SELECT ?s (SUM(?x) AS ?m) WHERE { ?s e:w ?x } ` + group, []string{`<http://e/m> UNDEF`, `<http://e/n> "5"` + xint}},
		{`SELECT ?s (AVG(?x) AS ?m) WHERE { ?s e:w ?x } ` + group, []string{`<http://e/m> UNDEF`, `<http://e/n> "5"` + xdec}},
		{`SELECT ?s (COUNT(?x) AS ?m) WHERE { ?s e:w ?x } ` + group, []string{`<http://e/m> "2"` + xint, `<http://e/n> "1"` + xint}},

		// §19.8: WHERE is optional.
		{`SELECT (COUNT(*) AS ?n) { ?s e:k ?x }`, []string{`"4"` + xint}},
	}
	answerers := specAnswerers(t, triples)
	for _, r := range rows {
		q := sparql.MustParse(`PREFIX e: <http://e/> ` + r.query)
		want := slices.Sorted(slices.Values(r.want))
		for _, a := range answerers {
			res, err := a.run(q)
			if err != nil {
				t.Errorf("%s: %s: %v", a.name, r.query, err)
				continue
			}
			var got []string
			for i := range res.Len() {
				cells := make([]string, len(res.Vars))
				for c := range res.Vars {
					cells[c] = "UNDEF"
					if term, ok := res.Term(i, c); ok {
						cells[c] = term.String()
					}
				}
				got = append(got, strings.Join(cells, " "))
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s\n got  %q\n want %q", a.name, r.query, got, want)
			}
		}
	}
}
