package rdf

import (
	"bytes"
	"errors"
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
	good := Triple{S: iri("s"), P: iri("p"), O: NewLiteral("o")}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Triple{S: NewLiteral("x"), P: iri("p"), O: iri("o")}).Validate(); err == nil {
		t.Fatal("literal subject must be rejected")
	}
	if err := (Triple{S: iri("s"), P: NewBlank("b"), O: iri("o")}).Validate(); err == nil {
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
		Triple{S: iri("s"), P: iri("p"), O: iri("o")},
		Triple{S: NewBlank("x"), P: iri("p"), O: NewLiteral("hello world")},
		Triple{S: iri("s"), P: iri("q"), O: NewLangLiteral("salut", "fr")},
		Triple{S: iri("s"), P: iri("r"), O: NewTypedLiteral("42", XSDInteger)},
		Triple{S: iri("s"), P: iri("r"), O: NewLiteral("tab\tnewline\nquote\"")},
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
		tr := Triple{S: iri("s"), P: iri("p"), O: NewLiteral(clean)}
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
	term, err := decode(d, a)
	if err != nil || term != iri("a") {
		t.Fatalf("Decode = %v, %v", term, err)
	}
	if _, err := decode(d, 999); err == nil {
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
	tr := Triple{S: iri("s"), P: iri("p"), O: NewLiteral("v")}
	enc := encodeTriple(d, tr)
	back, err := decodeTriple(d, enc)
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
			if _, err := decode(d, TermID(i)); err != nil {
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
		Triple{S: iri("a"), P: iri("knows"), O: iri("b")},
		Triple{S: iri("b"), P: iri("knows"), O: iri("c")},
		Triple{S: iri("a"), P: iri("name"), O: NewLiteral("Ann")},
		Triple{S: iri("a"), P: iri("knows"), O: iri("b")}, // duplicate
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
	if !has(g, ts[0]) {
		t.Fatal("Has missing triple")
	}
}

func TestComputeStats(t *testing.T) {
	ts := []Triple{
		Triple{S: iri("a"), P: iri("p"), O: iri("x")},
		Triple{S: iri("a"), P: iri("q"), O: iri("y")},
		Triple{S: iri("b"), P: iri("p"), O: iri("x")},
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
		Triple{S: iri("Student"), P: NewIRI(RDFSSubClassOf), O: iri("Person")},
		Triple{S: iri("Person"), P: NewIRI(RDFSSubClassOf), O: iri("Agent")},
		Triple{S: iri("ann"), P: NewIRI(RDFType), O: iri("Student")},
	}
	out := NewGraph(Materialize(ts))
	// rdfs9 through the rdfs11 closure: ann is a Person and an Agent.
	if !has(out, Triple{S: iri("ann"), P: NewIRI(RDFType), O: iri("Person")}) {
		t.Fatal("missing ann type Person")
	}
	if !has(out, Triple{S: iri("ann"), P: NewIRI(RDFType), O: iri("Agent")}) {
		t.Fatal("missing ann type Agent (transitive)")
	}
	if !has(out, Triple{S: iri("Student"), P: NewIRI(RDFSSubClassOf), O: iri("Agent")}) {
		t.Fatal("missing subClassOf closure")
	}
}

func TestMaterializeSubPropertyDomainRange(t *testing.T) {
	ts := []Triple{
		Triple{S: iri("teaches"), P: NewIRI(RDFSSubPropertyOf), O: iri("worksWith")},
		Triple{S: iri("teaches"), P: NewIRI(RDFSDomain), O: iri("Teacher")},
		Triple{S: iri("teaches"), P: NewIRI(RDFSRange), O: iri("Course")},
		Triple{S: iri("bob"), P: iri("teaches"), O: iri("math101")},
	}
	out := NewGraph(Materialize(ts))
	if !has(out, Triple{S: iri("bob"), P: iri("worksWith"), O: iri("math101")}) {
		t.Fatal("rdfs7 missing")
	}
	if !has(out, Triple{S: iri("bob"), P: NewIRI(RDFType), O: iri("Teacher")}) {
		t.Fatal("rdfs2 missing")
	}
	if !has(out, Triple{S: iri("math101"), P: NewIRI(RDFType), O: iri("Course")}) {
		t.Fatal("rdfs3 missing")
	}
}

func TestMaterializeRangeSkipsLiterals(t *testing.T) {
	ts := []Triple{
		Triple{S: iri("name"), P: NewIRI(RDFSRange), O: iri("Name")},
		Triple{S: iri("bob"), P: iri("name"), O: NewLiteral("Bob")},
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
		Triple{S: iri("A"), P: NewIRI(RDFSSubClassOf), O: iri("B")},
		Triple{S: iri("x"), P: NewIRI(RDFType), O: iri("A")},
	}
	once := Materialize(ts)
	twice := Materialize(once)
	if len(once) != len(twice) {
		t.Fatalf("not idempotent: %d then %d", len(once), len(twice))
	}
}

// encodeTriple encodes t through d.
func encodeTriple(d *Dictionary, t Triple) EncodedTriple {
	e, err := d.TryEncodeTriple(t)
	if err != nil {
		panic(err)
	}
	return e
}

// decode returns the term d holds under id.
func decode(d *Dictionary, id TermID) (Term, error) {
	if terms := d.Terms(); int(id) < len(terms) {
		return terms[id], nil
	}
	return Term{}, errors.New("rdf: unknown term id")
}

// decodeTriple reverses encodeTriple.
func decodeTriple(d *Dictionary, e EncodedTriple) (Triple, error) {
	s, errS := decode(d, e.S)
	p, errP := decode(d, e.P)
	o, errO := decode(d, e.O)
	return Triple{S: s, P: p, O: o}, errors.Join(errS, errP, errO)
}

// has reports whether g holds t.
func has(g *Graph, t Triple) bool {
	s, okS := g.dict.Lookup(t.S)
	p, okP := g.dict.Lookup(t.P)
	o, okO := g.dict.Lookup(t.O)
	_, ok := g.set.find(g.enc, EncodedTriple{S: s, P: p, O: o})
	return okS && okP && okO && ok
}
