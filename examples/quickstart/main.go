// Quickstart: generate a small RDF dataset, load it into one of the
// surveyed engines (S2RDF), run a SPARQL query, and print the answers
// together with the simulated cluster activity.
package main

import (
	"fmt"
	"log"

	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/s2rdf"
	"repro/internal/workload"
)

func main() {
	// 1. A simulated Spark cluster: 4 partitions over 2 executors.
	ctx := spark.NewContext(spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000})

	// 2. A LUBM-style university dataset (deterministic).
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	fmt.Printf("dataset: %d triples, %d predicates\n",
		len(triples), rdf.NewGraph(triples).Stats().DistinctPredicates)

	// 3. Load it into S2RDF — this builds the VP and ExtVP tables.
	engine := s2rdf.New(ctx)
	if err := engine.Load(triples); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("S2RDF materialized %d ExtVP tables, storage overhead %.2fx\n",
		engine.ExtVPTableCount(), engine.StorageOverhead())

	// 4. Ask which students are advised by professors of department 0.
	query := sparql.MustParse(fmt.Sprintf(`
		SELECT ?student ?prof WHERE {
			?student <%sadvisor> ?prof .
			?prof <%sworksFor> <%suniv0.dept0>
		} ORDER BY ?student LIMIT 5`,
		workload.UnivNS, workload.UnivNS, workload.UnivNS))

	before := ctx.Snapshot()
	res, err := engine.Execute(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery shape: %s\n", sparql.ClassifyShape(query))
	fmt.Print(res.String())
	fmt.Printf("\ncluster activity: %s\n", ctx.Snapshot().Diff(before))
}
