package rdf

import (
	"strings"
	"testing"
)

func parseTTL(t *testing.T, doc string) []Triple {
	t.Helper()
	ts, err := ParseTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ParseTurtle: %v", err)
	}
	return ts
}

func TestTurtleBasic(t *testing.T) {
	ts := parseTTL(t, `
@prefix ex: <http://ex.org/> .
ex:ann ex:knows ex:bob .
<http://ex.org/bob> ex:knows ex:cid .
`)
	if len(ts) != 2 {
		t.Fatalf("triples = %d", len(ts))
	}
	if ts[0].S != NewIRI("http://ex.org/ann") || ts[0].P != NewIRI("http://ex.org/knows") {
		t.Fatalf("triple 0 = %v", ts[0])
	}
}

func TestTurtlePredicateAndObjectLists(t *testing.T) {
	ts := parseTTL(t, `
@prefix ex: <http://ex.org/> .
ex:ann ex:knows ex:bob , ex:cid ;
       ex:name "Ann" ;
       a ex:Person .
`)
	if len(ts) != 4 {
		t.Fatalf("triples = %d: %v", len(ts), ts)
	}
	withP := func(p string) int {
		return len(filter(ts, func(t Triple) bool { return t.P == NewIRI(p) }))
	}
	if withP("http://ex.org/knows") != 2 {
		t.Fatal("object list expansion wrong")
	}
	if withP(RDFType) != 1 {
		t.Fatal("'a' keyword not expanded")
	}
}

func TestTurtleLiterals(t *testing.T) {
	ts := parseTTL(t, `
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:x ex:plain "hello" .
ex:x ex:lang "bonjour"@fr .
ex:x ex:typed "5"^^xsd:integer .
ex:x ex:typedIRI "6"^^<http://www.w3.org/2001/XMLSchema#integer> .
ex:x ex:int 42 .
ex:x ex:neg -7 .
ex:x ex:dec 3.25 .
ex:x ex:flag true .
ex:x ex:esc "a\"b\nc" .
`)
	byPred := map[string]Term{}
	for _, tr := range ts {
		byPred[tr.P.Value] = tr.O
	}
	if byPred["http://ex.org/plain"] != NewLiteral("hello") {
		t.Fatalf("plain = %v", byPred["http://ex.org/plain"])
	}
	if byPred["http://ex.org/lang"].Lang != "fr" {
		t.Fatal("language tag lost")
	}
	if byPred["http://ex.org/typed"].Datatype != XSDInteger {
		t.Fatalf("prefixed datatype = %v", byPred["http://ex.org/typed"])
	}
	if byPred["http://ex.org/typedIRI"].Datatype != XSDInteger {
		t.Fatal("IRI datatype lost")
	}
	if byPred["http://ex.org/int"] != NewTypedLiteral("42", XSDInteger) {
		t.Fatalf("int shorthand = %v", byPred["http://ex.org/int"])
	}
	if byPred["http://ex.org/neg"].Value != "-7" {
		t.Fatalf("negative = %v", byPred["http://ex.org/neg"])
	}
	if !strings.HasSuffix(byPred["http://ex.org/dec"].Datatype, "decimal") {
		t.Fatalf("decimal = %v", byPred["http://ex.org/dec"])
	}
	if !strings.HasSuffix(byPred["http://ex.org/flag"].Datatype, "boolean") {
		t.Fatalf("boolean = %v", byPred["http://ex.org/flag"])
	}
	if byPred["http://ex.org/esc"].Value != "a\"b\nc" {
		t.Fatalf("escapes = %q", byPred["http://ex.org/esc"].Value)
	}
}

func TestTurtleBlankNodesAndBase(t *testing.T) {
	ts := parseTTL(t, `
@base <http://base.org/> .
@prefix ex: <http://ex.org/> .
_:b1 ex:knows <relative> .
`)
	if len(ts) != 1 {
		t.Fatalf("triples = %d", len(ts))
	}
	if !ts[0].S.IsBlank() || ts[0].S.Value != "b1" {
		t.Fatalf("subject = %v", ts[0].S)
	}
	if ts[0].O.Value != "http://base.org/relative" {
		t.Fatalf("base resolution = %v", ts[0].O)
	}
}

func TestTurtleSPARQLStyleDirectives(t *testing.T) {
	ts := parseTTL(t, `
PREFIX ex: <http://ex.org/>
ex:a ex:p ex:b .
`)
	if len(ts) != 1 || ts[0].S.Value != "http://ex.org/a" {
		t.Fatalf("triples = %v", ts)
	}
}

func TestTurtleCommentsAndWhitespace(t *testing.T) {
	ts := parseTTL(t, `
# leading comment
@prefix ex: <http://ex.org/> . # trailing comment
ex:a          # subject
   ex:p       # predicate
   ex:b .     # object
`)
	if len(ts) != 1 {
		t.Fatalf("triples = %d", len(ts))
	}
}

func TestTurtleTrailingSemicolon(t *testing.T) {
	ts := parseTTL(t, `
@prefix ex: <http://ex.org/> .
ex:a ex:p ex:b ; .
`)
	if len(ts) != 1 {
		t.Fatalf("triples = %d", len(ts))
	}
}

func TestTurtleErrors(t *testing.T) {
	for _, bad := range []string{
		`@prefix ex <http://e/> .`,                         // missing colon
		`@prefix ex: <http://e/>`,                          // missing dot
		`ex:a ex:p ex:b .`,                                 // unknown prefix
		`@prefix ex: <http://e/> . ex:a ex:p `,             // truncated
		`@prefix ex: <http://e/> . ex:a ex:p ex:b ex:c .`,  // missing separator
		`@prefix ex: <http://e/> . "lit" ex:p ex:b .`,      // literal subject
		`@prefix ex: <http://e/> . ex:a "lit" ex:b .`,      // literal predicate
		`@prefix ex: <http://e/> . ex:a ex:p "unterm .`,    // unterminated literal
		`@prefix ex: <http://e/> . ex:a ex:p "x"^^"bad" .`, // bad datatype
		`@unknown thing .`,
	} {
		if _, err := ParseTurtle(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTurtle(%q) succeeded", bad)
		}
	}
}

func TestTurtleAgainstNTriples(t *testing.T) {
	// The same data in both syntaxes must parse identically.
	nt := `<http://e/a> <http://e/p> <http://e/b> .
<http://e/a> <http://e/name> "Ann"@en .
<http://e/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/T> .`
	ttl := `@prefix e: <http://e/> .
e:a e:p e:b ; e:name "Ann"@en ; a e:T .`
	a, err := ParseNTriples(strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseTurtle(strings.NewReader(ttl))
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := NewGraph(a), NewGraph(b)
	if ga.Len() != gb.Len() {
		t.Fatalf("sizes differ: %d vs %d", ga.Len(), gb.Len())
	}
	for _, tr := range a {
		if !has(gb, tr) {
			t.Fatalf("turtle missing %v", tr)
		}
	}
}
