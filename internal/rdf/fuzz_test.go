package rdf

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzParseNTriples: ParseNTriples never panics, and on a document it
// accepts, parse → WriteNTriples → parse is a fixpoint — the same
// triples, in the same order, and writing them again gives the same
// bytes. CI runs it for 20 s (go test -fuzz FuzzParseNTriples).
func FuzzParseNTriples(f *testing.F) {
	for _, seed := range []string{
		"<http://ex/s> <http://ex/p> <http://ex/o> .\n",
		"_:b1 <http://ex/p> \"plain\" .\n# a comment\n\n",
		"<http://ex/s> <http://ex/p> \"tab\\t quote\\\" nl\\n cr\\r bs\\\\\" .",
		"<http://ex/s> <http://ex/p> \"chat\"@fr .\n<http://ex/s> <http://ex/p> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer>",
		"<http://ex/s> <http://ex/p> _:o\n<> <> <> .\n",
		"\"lit\" <http://ex/p> <http://ex/o> .",
		"<http://ex/s> \"p\" <http://ex/o> .",
		"<http://ex/s> <http://ex/p> \"unterminated .",
		"<http://ex/s> <http://ex/p> <http://ex/o> . trailing",
	} {
		f.Add(seed)
	}
	var b strings.Builder
	if err := WriteNTriples(&b, universityLikeTriples()); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())
	f.Fuzz(func(t *testing.T, doc string) {
		first, err := ParseNTriples(strings.NewReader(doc))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteNTriples(&out, first); err != nil {
			t.Fatal(err)
		}
		again, err := ParseNTriples(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written form does not parse: %v\n%q", err, out.String())
		}
		if !slices.Equal(first, again) {
			t.Fatalf("parse → write → parse changed the triples:\n%v\n%v", first, again)
		}
		var out2 bytes.Buffer
		if err := WriteNTriples(&out2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("writing the reparsed triples changed the bytes:\n%q\n%q", out.String(), out2.String())
		}
	})
}

// universityLikeTriples are a few triples in the generators' vocabulary:
// IRIs, a typed and a plain literal, a blank node.
func universityLikeTriples() []Triple {
	ns := "http://repro.dev/lubm/"
	s := NewIRI(ns + "univ0.dept0.stud0")
	return []Triple{
		{S: s, P: NewIRI(RDFType), O: NewIRI(ns + "Student")},
		{S: s, P: NewIRI(ns + "name"), O: NewLiteral("Student 0")},
		{S: s, P: NewIRI(ns + "age"), O: NewTypedLiteral("21", XSDInteger)},
		{S: NewBlank("addr0"), P: NewIRI(ns + "city"), O: NewLangLiteral("Héraklion", "el")},
	}
}
