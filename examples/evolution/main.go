// Evolution: the survey's closing direction (Sec. V) — evolving RDF
// data queried in an uninterrupted manner, with access to previous
// versions. A versioned store accumulates commits while a Live server
// (backed by the S2RDF engine) keeps answering; cross-version delta
// queries show which answers appeared or disappeared.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/s2rdf"
	"repro/internal/workload"
)

func main() {
	base := workload.GenerateUniversity(workload.SmallUniversity())
	store := evolve.NewStore(base)

	live, err := evolve.NewLive(store, func() core.Engine {
		return s2rdf.New(spark.NewContext(spark.DefaultConfig()))
	})
	if err != nil {
		log.Fatal(err)
	}

	q := sparql.MustParse(fmt.Sprintf(
		`SELECT (COUNT(?s) AS ?n) WHERE { ?s <%s> <%sStudent> }`,
		rdf.RDFType, workload.UnivNS))
	show := func(label string) {
		res, v, err := live.Execute(q)
		if err != nil {
			log.Fatal(err)
		}
		n, _ := res.Term(0, 0)
		fmt.Printf("%-42s version=%d students=%s\n", label, v, n.Value)
	}

	show("initial load")

	// A new student enrolls; the old version keeps serving until refresh.
	newStudent := rdf.NewIRI(workload.UnivNS + "univ0.dept0.studNEW")
	enroll := []rdf.Triple{
		{S: newStudent, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(workload.UnivNS + "Student")},
		{S: newStudent, P: rdf.NewIRI(workload.UnivNS + "name"), O: rdf.NewLiteral("New Student")},
	}
	if _, err := store.Commit(enroll, nil); err != nil {
		log.Fatal(err)
	}
	show("after commit, before refresh (old data)")
	if err := live.Refresh(); err != nil {
		log.Fatal(err)
	}
	show("after refresh")

	// A student drops out in version 2.
	drop := rdf.Triple{
		S: rdf.NewIRI(workload.UnivNS + "univ0.dept0.stud0"),
		P: rdf.NewIRI(rdf.RDFType),
		O: rdf.NewIRI(workload.UnivNS + "Student"),
	}
	if _, err := store.Commit(nil, []rdf.Triple{drop}); err != nil {
		log.Fatal(err)
	}
	if err := live.Refresh(); err != nil {
		log.Fatal(err)
	}
	show("after dropout commit + refresh")

	// Previous versions stay queryable, and deltas are first-class.
	all := sparql.MustParse(fmt.Sprintf(
		`SELECT ?s WHERE { ?s <%s> <%sStudent> }`, rdf.RDFType, workload.UnivNS))
	appeared, disappeared, err := store.DiffResults(0, store.Head(), all)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nversion 0 -> %d student-set delta: +%d -%d\n", store.Head(), len(appeared), len(disappeared))
	for _, row := range appeared {
		fmt.Println("  appeared:   ", row)
	}
	for _, row := range disappeared {
		fmt.Println("  disappeared:", row)
	}
}
