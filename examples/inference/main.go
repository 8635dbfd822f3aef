// Inference: materializes the RDFS entailment of a dataset with a
// schema (the survey's Sec. II background: "RDF Schema ... includes a
// set of inference rules used to generate new, implicit triples from
// explicit ones"), then shows a query whose answers exist only in the
// entailed graph.
package main

import (
	"fmt"
	"log"

	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/sparqlgx"
	"repro/internal/workload"
)

func main() {
	base := workload.GenerateUniversity(workload.SmallUniversity())

	// A small RDFS schema over the university vocabulary.
	u := func(s string) rdf.Term { return rdf.NewIRI(workload.UnivNS + s) }
	schema := []rdf.Triple{
		{S: u("Student"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: u("Person")},
		{S: u("Professor"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: u("Person")},
		{S: u("Person"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: u("Agent")},
		{S: u("advisor"), P: rdf.NewIRI(rdf.RDFSSubPropertyOf), O: u("knows")},
		{S: u("teacherOf"), P: rdf.NewIRI(rdf.RDFSDomain), O: u("Teacher")},
	}
	full := append(append([]rdf.Triple{}, base...), schema...)

	entailed := rdf.Materialize(full)
	fmt.Printf("explicit triples: %d, after RDFS materialization: %d (+%d entailed)\n",
		len(full), len(entailed), len(entailed)-len(full))

	engine := sparqlgx.New(spark.NewContext(spark.DefaultConfig()))
	if err := engine.Load(entailed); err != nil {
		log.Fatal(err)
	}

	// ?x knows ?y holds only via rdfs7 (advisor subPropertyOf knows),
	// and Person/Agent memberships only via rdfs9/rdfs11.
	for _, text := range []string{
		fmt.Sprintf(`SELECT (COUNT(?x) AS ?n) WHERE { ?x <%sknows> ?y }`, workload.UnivNS),
		fmt.Sprintf(`SELECT (COUNT(?x) AS ?n) WHERE { ?x <%s> <%sAgent> }`, rdf.RDFType, workload.UnivNS),
		fmt.Sprintf(`SELECT (COUNT(?x) AS ?n) WHERE { ?x <%s> <%sTeacher> }`, rdf.RDFType, workload.UnivNS),
	} {
		res, err := engine.Execute(sparql.MustParse(text))
		if err != nil {
			log.Fatal(err)
		}
		n, _ := res.Term(0, 0)
		fmt.Printf("%-70s => %s\n", text, n.Value)
	}
}
