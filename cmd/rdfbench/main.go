// Command rdfbench runs the cross-system assessment: every surveyed
// engine over a shaped query workload, with answers verified against
// the reference evaluator and cluster activity metered per query.
//
// Usage:
//
//	rdfbench                      # university workload, small scale
//	rdfbench -dataset shop        # WatDiv-style workload
//	rdfbench -scale medium        # benchmark-scale dataset
//	rdfbench -shape star          # only one query shape
//	rdfbench -engine S2RDF        # only one system
//
// It prints the paper's assessment grid: one block per query, one row
// per engine, with the answer check (ok / MISMATCH / unsup) and the
// shuffle, broadcast and stage counts the engine's plan generated.
// -csv emits the same grid as one CSV row per (query, engine) cell.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems"
	"repro/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "university", "dataset: university | shop")
	scale := flag.String("scale", "small", "scale: small | medium")
	shape := flag.String("shape", "", "restrict to one shape: star | linear | snowflake | complex")
	engine := flag.String("engine", "", "restrict to one system name")
	csv := flag.Bool("csv", false, "emit CSV instead of the text report")
	parallelism := flag.Int("parallelism", 4, "simulated partitions")
	executors := flag.Int("executors", 2, "simulated executors")
	flag.Parse()

	conf := spark.Config{
		Parallelism:        *parallelism,
		Executors:          *executors,
		BroadcastThreshold: 1000,
		MaxConcurrency:     8,
	}

	var triples = buildDataset(*dataset, *scale)
	var queries []workload.NamedQuery
	switch *dataset {
	case "university":
		queries = workload.UniversityQueries()
	case "shop":
		queries = workload.ShopQueries()
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	if *shape != "" {
		var s sparql.Shape
		switch *shape {
		case "star":
			s = sparql.ShapeStar
		case "linear":
			s = sparql.ShapeLinear
		case "snowflake":
			s = sparql.ShapeSnowflake
		case "complex":
			s = sparql.ShapeComplex
		default:
			fmt.Fprintf(os.Stderr, "unknown shape %q\n", *shape)
			os.Exit(2)
		}
		queries = workload.QueriesByShape(queries, s)
	}

	engines := systems.AllEngines(conf)
	if *engine != "" {
		var kept []core.Engine
		for _, e := range engines {
			if e.Info().Name == *engine {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
			os.Exit(2)
		}
		engines = kept
	}

	w := core.Workload{Name: *dataset + "/" + *scale, Triples: triples}
	for _, nq := range queries {
		w.AddQuery(nq.Name, nq.Query)
	}
	a, err := core.RunAssessment(engines, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *csv {
		fmt.Print(core.RenderAssessmentCSV(a))
		return
	}
	fmt.Print(core.RenderAssessment(a))
}

func buildDataset(dataset, scale string) []rdf.Triple {
	switch dataset + "/" + scale {
	case "university/small":
		return workload.GenerateUniversity(workload.SmallUniversity())
	case "university/medium":
		return workload.GenerateUniversity(workload.MediumUniversity())
	case "shop/small":
		return workload.GenerateShop(workload.SmallShop())
	case "shop/medium":
		return workload.GenerateShop(workload.MediumShop())
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset/scale %s/%s\n", dataset, scale)
		os.Exit(2)
		return nil
	}
}
