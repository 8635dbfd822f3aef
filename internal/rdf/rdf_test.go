package rdf

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func iri(s string) Term { return NewIRI("http://ex.org/" + s) }

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://a/b"), "<http://a/b>"},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewTypedLiteral("5", XSDInteger), `"5"^^<` + XSDInteger + `>`},
		{NewLiteral("a\"b\\c\nd"), `"a\"b\\c\nd"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%v) = %s, want %s", c.term, got, c.want)
		}
	}
}

func TestTripleValidate(t *testing.T) {
	good := NewTriple(iri("s"), iri("p"), NewLiteral("o"))
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := NewTriple(NewLiteral("x"), iri("p"), iri("o")).Validate(); err == nil {
		t.Fatal("literal subject must be rejected")
	}
	if err := NewTriple(iri("s"), NewBlank("b"), iri("o")).Validate(); err == nil {
		t.Fatal("blank predicate must be rejected")
	}
}

func TestParseNTriplesBasic(t *testing.T) {
	doc := `
# a comment
<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .
<http://ex.org/s> <http://ex.org/name> "Alice" .
_:b1 <http://ex.org/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex.org/s> <http://ex.org/label> "bonjour"@fr .
`
	ts, err := ParseNTriples(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 4 {
		t.Fatalf("parsed %d triples", len(ts))
	}
	if ts[0].O != iri("o") {
		t.Fatalf("triple 0 = %v", ts[0])
	}
	if ts[1].O != NewLiteral("Alice") {
		t.Fatalf("triple 1 = %v", ts[1])
	}
	if ts[2].S != NewBlank("b1") || ts[2].O.Datatype != XSDInteger {
		t.Fatalf("triple 2 = %v", ts[2])
	}
	if ts[3].O.Lang != "fr" {
		t.Fatalf("triple 3 = %v", ts[3])
	}
}

func TestParseNTriplesEscapes(t *testing.T) {
	line := `<http://e/s> <http://e/p> "a\"b\\c\nd\te" .`
	tr, err := ParseTripleLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if tr.O.Value != "a\"b\\c\nd\te" {
		t.Fatalf("value = %q", tr.O.Value)
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	for _, bad := range []string{
		`<http://e/s <http://e/p> <http://e/o> .`,
		`<http://e/s> "lit" <http://e/o> .`,
		`"lit" <http://e/p> <http://e/o> .`,
		`<http://e/s> <http://e/p> "unterminated .`,
		`<http://e/s> <http://e/p> <http://e/o> . extra`,
		`_: <http://e/p> <http://e/o> .`,
		`<http://e/s> <http://e/p> "bad\q" .`,
		`<http://e/s> <http://e/p> "x"^^<dangling .`,
	} {
		if _, err := ParseTripleLine(bad); err == nil {
			t.Errorf("ParseTripleLine(%q) succeeded", bad)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	ts := []Triple{
		NewTriple(iri("s"), iri("p"), iri("o")),
		NewTriple(NewBlank("x"), iri("p"), NewLiteral("hello world")),
		NewTriple(iri("s"), iri("q"), NewLangLiteral("salut", "fr")),
		NewTriple(iri("s"), iri("r"), NewTypedLiteral("42", XSDInteger)),
		NewTriple(iri("s"), iri("r"), NewLiteral("tab\tnewline\nquote\"")),
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, ts); err != nil {
		t.Fatal(err)
	}
	back, err := ParseNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ts) {
		t.Fatalf("round trip changed data:\n%v\n%v", back, ts)
	}
}

func TestNTriplesRoundTripProperty(t *testing.T) {
	// Property: any literal value round-trips through serialization.
	f := func(value string) bool {
		// N-Triples cannot carry other control characters in this subset.
		clean := strings.Map(func(r rune) rune {
			if r < 0x20 && r != '\n' && r != '\r' && r != '\t' {
				return -1
			}
			return r
		}, value)
		tr := NewTriple(iri("s"), iri("p"), NewLiteral(clean))
		back, err := ParseTripleLine(tr.String())
		if err != nil {
			return false
		}
		return back == tr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	a := d.Encode(iri("a"))
	b := d.Encode(iri("b"))
	if a == b {
		t.Fatal("distinct terms share an id")
	}
	if got := d.Encode(iri("a")); got != a {
		t.Fatal("re-encoding changed the id")
	}
	term, err := d.Decode(a)
	if err != nil || term != iri("a") {
		t.Fatalf("Decode = %v, %v", term, err)
	}
	if _, err := d.Decode(999); err == nil {
		t.Fatal("expected error for unknown id")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if _, ok := d.Lookup(iri("zzz")); ok {
		t.Fatal("Lookup invented an id")
	}
}

func TestDictionaryTripleRoundTrip(t *testing.T) {
	d := NewDictionary()
	tr := NewTriple(iri("s"), iri("p"), NewLiteral("v"))
	enc := d.EncodeTriple(tr)
	back, err := d.DecodeTriple(enc)
	if err != nil || back != tr {
		t.Fatalf("round trip = %v, %v", back, err)
	}
}

func TestDictionaryConcurrentEncode(t *testing.T) {
	d := NewDictionary()
	done := make(chan map[string]TermID, 8)
	for w := 0; w < 8; w++ {
		go func() {
			local := make(map[string]TermID)
			for i := 0; i < 100; i++ {
				name := "t" + string(rune('0'+i%10))
				local[name] = d.Encode(iri(name))
			}
			done <- local
		}()
	}
	merged := make(map[string]TermID)
	for w := 0; w < 8; w++ {
		local := <-done
		for k, v := range local {
			if prev, ok := merged[k]; ok && prev != v {
				t.Fatalf("term %s got two ids: %d and %d", k, prev, v)
			}
			merged[k] = v
		}
	}
	if d.Len() != 10 {
		t.Fatalf("Len = %d, want 10", d.Len())
	}
}

func TestDictionaryPropertyDenseIDs(t *testing.T) {
	f := func(values []string) bool {
		d := NewDictionary()
		for _, v := range values {
			id := d.Encode(NewLiteral(v))
			if int(id) >= d.Len() {
				return false
			}
		}
		// Ids must be dense: 0..Len-1 all decodable.
		for i := 0; i < d.Len(); i++ {
			if _, err := d.Decode(TermID(i)); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphIndexes(t *testing.T) {
	ts := []Triple{
		NewTriple(iri("a"), iri("knows"), iri("b")),
		NewTriple(iri("b"), iri("knows"), iri("c")),
		NewTriple(iri("a"), iri("name"), NewLiteral("Ann")),
		NewTriple(iri("a"), iri("knows"), iri("b")), // duplicate
	}
	g := NewGraph(ts)
	if g.Len() != 3 {
		t.Fatalf("Len = %d (duplicate not removed)", g.Len())
	}
	v := g.Encoded()
	id := func(term Term) TermID {
		id, ok := v.Dict().Lookup(term)
		if !ok {
			t.Fatalf("%v not in the dictionary", term)
		}
		return id
	}
	if got := len(v.WithPredicate(id(iri("knows")))); got != 2 {
		t.Fatalf("knows = %d", got)
	}
	if got := len(v.WithSubject(id(iri("a")))); got != 2 {
		t.Fatalf("subject a = %d", got)
	}
	if got := len(v.WithObject(id(iri("b")))); got != 1 {
		t.Fatalf("object b = %d", got)
	}
	if !g.Has(ts[0]) {
		t.Fatal("Has missing triple")
	}
}

func TestComputeStats(t *testing.T) {
	ts := []Triple{
		NewTriple(iri("a"), iri("p"), iri("x")),
		NewTriple(iri("a"), iri("q"), iri("y")),
		NewTriple(iri("b"), iri("p"), iri("x")),
	}
	dict := NewDictionary()
	s := ComputeEncodedStats(dict, encodeAll(dict, ts))
	if s.Triples != 3 || s.DistinctSubjects != 2 || s.DistinctPredicates != 2 || s.DistinctObjects != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if p, _ := dict.Lookup(iri("p")); s.PredicateCounts[p] != 2 {
		t.Fatalf("predicate counts = %v", s.PredicateCounts)
	}
}

func TestMaterializeSubClass(t *testing.T) {
	ts := []Triple{
		NewTriple(iri("Student"), NewIRI(RDFSSubClassOf), iri("Person")),
		NewTriple(iri("Person"), NewIRI(RDFSSubClassOf), iri("Agent")),
		NewTriple(iri("ann"), NewIRI(RDFType), iri("Student")),
	}
	out := NewGraph(Materialize(ts))
	// rdfs9 through the rdfs11 closure: ann is a Person and an Agent.
	if !out.Has(NewTriple(iri("ann"), NewIRI(RDFType), iri("Person"))) {
		t.Fatal("missing ann type Person")
	}
	if !out.Has(NewTriple(iri("ann"), NewIRI(RDFType), iri("Agent"))) {
		t.Fatal("missing ann type Agent (transitive)")
	}
	if !out.Has(NewTriple(iri("Student"), NewIRI(RDFSSubClassOf), iri("Agent"))) {
		t.Fatal("missing subClassOf closure")
	}
}

func TestMaterializeSubPropertyDomainRange(t *testing.T) {
	ts := []Triple{
		NewTriple(iri("teaches"), NewIRI(RDFSSubPropertyOf), iri("worksWith")),
		NewTriple(iri("teaches"), NewIRI(RDFSDomain), iri("Teacher")),
		NewTriple(iri("teaches"), NewIRI(RDFSRange), iri("Course")),
		NewTriple(iri("bob"), iri("teaches"), iri("math101")),
	}
	out := NewGraph(Materialize(ts))
	if !out.Has(NewTriple(iri("bob"), iri("worksWith"), iri("math101"))) {
		t.Fatal("rdfs7 missing")
	}
	if !out.Has(NewTriple(iri("bob"), NewIRI(RDFType), iri("Teacher"))) {
		t.Fatal("rdfs2 missing")
	}
	if !out.Has(NewTriple(iri("math101"), NewIRI(RDFType), iri("Course"))) {
		t.Fatal("rdfs3 missing")
	}
}

func TestMaterializeRangeSkipsLiterals(t *testing.T) {
	ts := []Triple{
		NewTriple(iri("name"), NewIRI(RDFSRange), iri("Name")),
		NewTriple(iri("bob"), iri("name"), NewLiteral("Bob")),
	}
	out := Materialize(ts)
	for _, tr := range out {
		if tr.S.IsLiteral() {
			t.Fatalf("materialization produced literal subject: %v", tr)
		}
	}
	if len(out) != 2 {
		t.Fatalf("expected no new triples, got %d", len(out))
	}
}

func TestMaterializeIdempotent(t *testing.T) {
	ts := []Triple{
		NewTriple(iri("A"), NewIRI(RDFSSubClassOf), iri("B")),
		NewTriple(iri("x"), NewIRI(RDFType), iri("A")),
	}
	once := Materialize(ts)
	twice := Materialize(once)
	if len(once) != len(twice) {
		t.Fatalf("not idempotent: %d then %d", len(once), len(twice))
	}
}

func TestIsTypeTriple(t *testing.T) {
	if !NewTriple(iri("x"), NewIRI(RDFType), iri("C")).IsTypeTriple() {
		t.Fatal("type triple not detected")
	}
	if NewTriple(iri("x"), iri("p"), iri("C")).IsTypeTriple() {
		t.Fatal("non-type triple misdetected")
	}
}
