package sparql_test

import (
	"fmt"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// ExampleEvaluate shows the reference evaluator answering a small
// star-shaped query.
func ExampleEvaluate() {
	g := rdf.NewGraph([]rdf.Triple{
		{S: rdf.NewIRI("http://ex/ann"), P: rdf.NewIRI("http://ex/name"), O: rdf.NewLiteral("Ann")},
		{S: rdf.NewIRI("http://ex/ann"), P: rdf.NewIRI("http://ex/age"), O: rdf.NewTypedLiteral("31", rdf.XSDInteger)},
	})
	q := sparql.MustParse(`SELECT ?n WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a }`)
	res, _ := sparql.Evaluate(q, g)
	n, _ := res.Term(0, 0)
	fmt.Println(n.Value)
	// Output: Ann
}

// ExampleClassifyShape shows the query-shape taxonomy of the survey's
// Section II.B.
func ExampleClassifyShape() {
	star := sparql.MustParse(`SELECT * WHERE { ?s <http://e/p> ?a . ?s <http://e/q> ?b }`)
	chain := sparql.MustParse(`SELECT * WHERE { ?a <http://e/p> ?b . ?b <http://e/q> ?c }`)
	fmt.Println(sparql.ClassifyShape(star))
	fmt.Println(sparql.ClassifyShape(chain))
	// Output:
	// star
	// linear
}
