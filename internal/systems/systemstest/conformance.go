// Package systemstest provides the cross-engine conformance suite:
// every engine must produce exactly the reference evaluator's answers
// on a battery of shaped queries and on randomized datasets. Engine
// test packages call Run with a factory for their engine.
package systemstest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// Factory builds a fresh engine (fresh spark context) per test.
type Factory func() core.Engine

// Case is one conformance query.
type Case struct {
	Name  string
	Query string
	// BGPOnly marks queries answerable by BGP-fragment engines.
	BGPOnly bool
}

// battery returns the conformance queries over the university
// vocabulary. BGPOnly cases run on every engine; the rest only on
// engines whose Info reports the BGP+ fragment.
func battery() []Case {
	p := func(local string) string { return "<" + workload.UnivNS + local + ">" }
	typ := "<" + rdf.RDFType + ">"
	return []Case{
		{Name: "single-tp", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?s ?o WHERE { ?s %s ?o }`, p("advisor"))},
		{Name: "star-2", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?s ?n ?a WHERE { ?s %s ?n . ?s %s ?a }`, p("name"), p("age"))},
		{Name: "star-3-typed", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?s ?n WHERE { ?s %s %s . ?s %s ?n . ?s %s ?a }`,
			typ, p("Student"), p("name"), p("age"))},
		{Name: "linear-2", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?st ?dept WHERE { ?st %s ?prof . ?prof %s ?dept }`,
			p("advisor"), p("worksFor"))},
		{Name: "linear-3", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?st ?univ WHERE { ?st %s ?prof . ?prof %s ?dept . ?dept %s ?univ }`,
			p("advisor"), p("worksFor"), p("subOrganizationOf"))},
		{Name: "snowflake", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?st ?sn ?pn WHERE { ?st %s ?sn . ?st %s ?prof . ?prof %s ?pn . ?prof %s ?dept }`,
			p("name"), p("advisor"), p("name"), p("worksFor"))},
		{Name: "cyclic", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?st ?c WHERE { ?st %s ?c . ?prof %s ?c . ?st %s ?prof }`,
			p("takesCourse"), p("teacherOf"), p("advisor"))},
		{Name: "bound-subject", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?p ?o WHERE { <%suniv0.dept0.stud0> ?p ?o }`, workload.UnivNS)},
		{Name: "bound-object", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?s WHERE { ?s %s %s }`, typ, p("Professor"))},
		{Name: "no-answers", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?s WHERE { ?s %s <%snoSuchThing> }`, p("advisor"), workload.UnivNS)},
		{Name: "self-loop", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?x WHERE { ?x %s ?x }`, p("advisor"))},
		{Name: "var-predicate", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?p WHERE { <%suniv0.dept0.stud1> ?p ?o }`, workload.UnivNS)},
		{Name: "distinct-order-limit", Query: fmt.Sprintf(
			`SELECT DISTINCT ?a WHERE { ?s %s ?a } ORDER BY ?a LIMIT 5`, p("age"))},
		{Name: "filter-numeric", Query: fmt.Sprintf(
			`SELECT ?s ?a WHERE { ?s %s ?a . FILTER(?a > 24 && ?a <= 60) }`, p("age"))},
		{Name: "optional", Query: fmt.Sprintf(
			`SELECT ?s ?e WHERE { ?s %s ?n OPTIONAL { ?s %s ?e } }`, p("name"), p("emailAddress"))},
		{Name: "union", Query: fmt.Sprintf(
			`SELECT ?x WHERE { { ?x %s %s } UNION { ?x %s %s } }`,
			typ, p("Professor"), typ, p("Course"))},
		{Name: "ask-true", Query: fmt.Sprintf(
			`ASK { ?s %s %s }`, typ, p("Student"))},
		{Name: "construct", BGPOnly: true, Query: fmt.Sprintf(
			`CONSTRUCT { ?prof %s ?st } WHERE { ?st %s ?prof }`,
			p("advises"), p("advisor"))},
		{Name: "order-multikey-offset", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?s ?a ?n WHERE { ?s %s ?a . ?s %s ?n } ORDER BY ?a DESC(?n) LIMIT 7 OFFSET 3`,
			p("age"), p("name"))},
		{Name: "projection-subset", BGPOnly: true, Query: fmt.Sprintf(
			`SELECT ?dept WHERE { ?st %s ?prof . ?prof %s ?dept }`,
			p("advisor"), p("worksFor"))},
	}
}

// Run executes the conformance battery against the reference evaluator
// on the small university dataset.
func Run(t *testing.T, factory Factory) {
	t.Helper()
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	ref := rdf.NewGraph(triples)

	engine := factory()
	if err := engine.Load(triples); err != nil {
		t.Fatalf("Load: %v", err)
	}
	bgpPlus := engine.Info().SPARQL == core.FragmentBGPPlus

	for _, c := range battery() {
		if !c.BGPOnly && !bgpPlus {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			q, err := sparql.Parse(c.Query)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			want, err := sparql.Evaluate(q, ref)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := engine.Execute(q)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			if !got.Equal(want) {
				t.Fatalf("answers differ\nengine (%d rows): %v\nreference (%d rows): %v",
					got.Len(), Head(got.Canonical()), want.Len(), Head(want.Canonical()))
			}
		})
	}
}

// randomSeeds is how many random datasets RunRandomized sweeps.
const randomSeeds = 24

// queriesPerSeed is how many random queries run on each dataset.
const queriesPerSeed = 6

// randomNS is the namespace of the random datasets and queries.
const randomNS = "http://r/"

var (
	objPreds  = []string{"p0", "p1", "p2"}
	dataPreds = []string{"d0", "p2"} // p2 takes IRI and literal objects
)

// RandomDataset returns seed's random small dataset: object properties
// between a few nodes, literal-valued data properties (plain, typed,
// tagged and escaped; one predicate takes both kinds of object) and
// rdf:type.
func RandomDataset(seed int64) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	node := func() rdf.Term { return rdf.NewIRI(fmt.Sprintf("%sn%d", randomNS, rng.Intn(10))) }
	literals := []rdf.Term{
		rdf.NewLiteral("v0"), rdf.NewLiteral("v1"), rdf.NewLiteral("q\"uo\tte"),
		rdf.NewTypedLiteral("7", rdf.XSDInteger), rdf.NewLangLiteral("v0", "en"),
	}
	var triples []rdf.Triple
	for i := 0; i < 40; i++ {
		triples = append(triples, rdf.NewTriple(node(), rdf.NewIRI(randomNS+objPreds[rng.Intn(len(objPreds))]), node()))
	}
	for i := 0; i < 20; i++ {
		triples = append(triples, rdf.NewTriple(node(), rdf.NewIRI(randomNS+dataPreds[rng.Intn(len(dataPreds))]), literals[rng.Intn(len(literals))]))
	}
	for i := 0; i < 10; i++ {
		triples = append(triples, rdf.NewTriple(node(), rdf.NewIRI(rdf.RDFType), rdf.NewIRI(fmt.Sprintf("%sC%d", randomNS, rng.Intn(3)))))
	}
	return triples
}

// RandomQueries draws n random SELECT * queries over RandomDataset's
// vocabulary: 2- and 3-pattern star, chain and snowflake BGPs, a
// self-loop with an arm and, with bgpPlus, the same BGPs under
// OPTIONAL (an arm that may leave its variable unbound, then FILTER on
// BOUND or on a comparison that is an error where it is unbound, or a
// join on that variable after it), UNION and FILTER (IRIs compared
// with = and !=, a data-property literal ordered against an integer or
// a simple literal, which is an error for a literal of another kind).
func RandomQueries(rng *rand.Rand, n int, bgpPlus bool) []string {
	// link joins ?from to ?to along an object property; leaf hangs an
	// arm of any kind off ?from: an object or data property to a fresh
	// variable, or rdf:type to a variable or a constant class.
	fresh := 0
	node := func() string { return fmt.Sprintf("<%sn%d>", randomNS, rng.Intn(10)) }
	link := func(from, to string) string {
		return fmt.Sprintf("?%s <%s%s> ?%s . ", from, randomNS, objPreds[rng.Intn(len(objPreds))], to)
	}
	leaf := func(from string) string {
		fresh++
		switch k := rng.Intn(4); {
		case k == 3 && rng.Intn(2) == 0:
			return fmt.Sprintf("?%s <%s> <%sC%d> . ", from, rdf.RDFType, randomNS, rng.Intn(3))
		case k == 3:
			return fmt.Sprintf("?%s <%s> ?v%d . ", from, rdf.RDFType, fresh)
		case k == 2:
			return fmt.Sprintf("?%s <%s%s> ?v%d . ", from, randomNS, dataPreds[rng.Intn(len(dataPreds))], fresh)
		default:
			return link(from, fmt.Sprintf("v%d", fresh))
		}
	}
	shapes := []func() string{
		func() string { return leaf("x") + leaf("x") },                       // star-2
		func() string { return link("x", "y") + leaf("y") },                  // chain-2
		func() string { return leaf("x") + leaf("x") + leaf("x") },           // star-3
		func() string { return link("x", "y") + link("y", "z") + leaf("z") }, // chain-3
		func() string { return link("x", "y") + leaf("x") + leaf("y") },      // snowflake-3
		func() string { return link("x", "x") + leaf("x") },                  // self-loop
	}
	bgp := func() string { return shapes[rng.Intn(len(shapes))]() }
	forms := []func() string{bgp}
	if bgpPlus {
		forms = append(forms,
			func() string { return bgp() + "OPTIONAL { " + link("x", "o") + "} " },
			func() string { return bgp() + "OPTIONAL { " + link("x", "o") + "} FILTER(!BOUND(?o)) " },
			func() string { return bgp() + "OPTIONAL { " + link("x", "o") + "} " + link("o", "w") },
			func() string { return "{ " + bgp() + "} UNION { " + bgp() + "} " },
			func() string {
				return bgp() + fmt.Sprintf("?x <%s%s> ?l . FILTER(?x != %s && ?l %s %s) ", randomNS,
					dataPreds[rng.Intn(len(dataPreds))], node(), []string{"<", "<="}[rng.Intn(2)], []string{"7", `"v0"`}[rng.Intn(2)])
			},
			func() string { return bgp() + "OPTIONAL { " + link("x", "o") + "} FILTER(!(?o = " + node() + ")) " },
			func() string { return bgp() + fmt.Sprintf("FILTER(?x = %s || ?x = %s) ", node(), node()) },
		)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = "SELECT * WHERE { " + forms[rng.Intn(len(forms))]() + "}"
	}
	return out
}

// RunRandomized fuzzes the engine against the reference: for each of
// randomSeeds seeds, RandomDataset and queriesPerSeed RandomQueries over
// it — BGP+ ones for an engine that declares the BGP+ fragment. The
// engine's answer must equal sparql.Evaluate's as a multiset, and at
// least half the queries must have one.
func RunRandomized(t *testing.T, factory Factory) {
	t.Helper()
	answered := 0
	for seed := int64(1); seed <= randomSeeds; seed++ {
		triples := RandomDataset(seed)
		ref := rdf.NewGraph(triples)
		engine := factory()
		if err := engine.Load(triples); err != nil {
			t.Fatalf("seed %d Load: %v", seed, err)
		}
		bgpPlus := engine.Info().SPARQL == core.FragmentBGPPlus
		for _, text := range RandomQueries(rand.New(rand.NewSource(-seed)), queriesPerSeed, bgpPlus) {
			q := sparql.MustParse(text)
			want, err := sparql.Evaluate(q, ref)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if want.Len() > 0 {
				answered++
			}
			got, err := engine.Execute(q)
			if err != nil {
				t.Fatalf("seed %d engine(%s): %v", seed, text, err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d query %s:\nengine %d rows %v\nreference %d rows %v",
					seed, text, got.Len(), Head(got.Canonical()), want.Len(), Head(want.Canonical()))
			}
		}
	}
	if total := randomSeeds * queriesPerSeed; answered < total/2 {
		t.Fatalf("only %d of %d random queries have an answer: the sweep checks too little", answered, total)
	}
}

// Head returns the first rows of a canonical answer, for a failure
// message.
func Head(rows []string) []string {
	if len(rows) > 6 {
		return rows[:6]
	}
	return rows
}
