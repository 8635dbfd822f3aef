package rdf_test

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// ExampleParseNTriples parses a two-line N-Triples document.
func ExampleParseNTriples() {
	doc := `<http://ex/a> <http://ex/knows> <http://ex/b> .
<http://ex/a> <http://ex/name> "Ann" .`
	triples, _ := rdf.ParseNTriples(strings.NewReader(doc))
	fmt.Println(len(triples), triples[1].O.Value)
	// Output: 2 Ann
}

// ExampleDictionary shows HAQWA-style integer encoding of terms.
func ExampleDictionary() {
	d := rdf.NewDictionary()
	id := d.Encode(rdf.NewIRI("http://ex/ann"))
	back := d.Terms()[id]
	fmt.Println(id, back.Value)
	// Output: 0 http://ex/ann
}

// ExampleMaterialize shows RDFS subclass entailment.
func ExampleMaterialize() {
	sub := rdf.NewIRI(rdf.RDFSSubClassOf)
	typ := rdf.NewIRI(rdf.RDFType)
	out := rdf.Materialize([]rdf.Triple{
		{S: rdf.NewIRI("http://ex/Student"), P: sub, O: rdf.NewIRI("http://ex/Person")},
		{S: rdf.NewIRI("http://ex/ann"), P: typ, O: rdf.NewIRI("http://ex/Student")},
	})
	fmt.Println(len(out))
	// Output: 3
}
