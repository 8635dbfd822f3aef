// Command rdfquery answers one SPARQL query over an RDF file
// (N-Triples, or Turtle for .ttl files) with a chosen engine (or the
// reference evaluator), printing the bindings table and the simulated
// cluster activity.
//
// Usage:
//
//	rdfquery -data data.nt -query 'SELECT ?s WHERE { ?s ?p ?o }'
//	rdfquery -data data.nt -queryfile q.rq -engine S2RDF
//	rdfquery -data data.nt -query '...' -engine reference
//	echo 'ASK { ?s ?p ?o }' | rdfquery -data data.nt -queryfile -
//	rdfquery -data data.nt -queryfile q.rq -repeat 100   # one Prepared plan
//	rdfquery -data data.nt -query '...' -explain         # EXPLAIN ANALYZE tree
//	rdfquery -data data.nt -query '...' -trace           # self-time breakdown + top spans
//	rdfquery -engines    # list available engines
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems"
)

func main() {
	dataPath := flag.String("data", "", "RDF input file (.nt N-Triples, .ttl Turtle)")
	queryText := flag.String("query", "", "SPARQL query text")
	queryFile := flag.String("queryfile", "", "file holding the SPARQL query, or - for stdin")
	engineName := flag.String("engine", "reference", "engine name or 'reference'")
	repeat := flag.Int("repeat", 1, "run the query N times reusing one prepared plan")
	timeout := flag.Duration("timeout", 0, "per-run deadline for the reference evaluator (0 = none)")
	explain := flag.Bool("explain", false, "print the EXPLAIN ANALYZE span tree after the results (reference engine only)")
	trace := flag.Bool("trace", false, "print a traced self-time breakdown (scan/join/serialize) and top spans after the results (reference engine only)")
	list := flag.Bool("engines", false, "list engine names and exit")
	flag.Parse()

	conf := spark.DefaultConfig()
	if *list {
		for _, e := range systems.AllEngines(conf) {
			info := e.Info()
			fmt.Printf("%-12s %s, %s, partitioning=%s, fragment=%s\n",
				info.Name, info.Model, info.Abstractions[0], info.Partitioning, info.SPARQL)
		}
		return
	}

	if *dataPath == "" {
		fail("missing -data")
	}
	text := *queryText
	if text == "" && *queryFile != "" {
		var raw []byte
		var err error
		if *queryFile == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(*queryFile)
		}
		if err != nil {
			fail(err.Error())
		}
		text = string(raw)
	}
	if text == "" {
		fail("missing -query or -queryfile")
	}
	if *repeat < 1 {
		fail("-repeat must be >= 1")
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()
	var triples []rdf.Triple
	if strings.HasSuffix(*dataPath, ".ttl") {
		triples, err = rdf.ParseTurtle(f)
	} else {
		triples, err = rdf.ParseNTriples(f)
	}
	if err != nil {
		fail("parsing data: " + err.Error())
	}
	// Prepare once: -repeat reuses the same plan for every run, the
	// compile-once/run-many contract the query service is built on.
	prep, err := sparql.Prepare(text)
	if err != nil {
		fail("parsing query: " + err.Error())
	}
	q := prep.Query()
	fmt.Printf("loaded %d triples; query shape: %s\n", len(triples), sparql.ClassifyShape(q))

	if *engineName == "reference" {
		g := rdf.NewGraph(triples)
		var res *sparql.Results
		var tr *obs.Trace
		start := time.Now()
		for i := 0; i < *repeat; i++ {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if *timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, *timeout)
			}
			var opts []sparql.RunOption
			if *explain || *trace {
				// A fresh trace per run; the printed tree is the last
				// run's, the one the timing footer also reflects best.
				tr = obs.New("query")
				opts = append(opts, sparql.WithTrace(tr))
			}
			res, err = prep.Run(ctx, g, opts...)
			cancel()
			if tr != nil {
				tr.Finish()
			}
			if err != nil {
				fail(err.Error())
			}
		}
		elapsed := time.Since(start)
		fmt.Print(res.String())
		if *explain {
			fmt.Print(tr.Text())
		}
		if *trace {
			printTraceSummary(tr, prep.Fingerprint())
		}
		if *repeat > 1 {
			fmt.Printf("%d runs of one prepared plan in %v (%v/run)\n",
				*repeat, elapsed.Round(time.Microsecond), (elapsed / time.Duration(*repeat)).Round(time.Microsecond))
		}
		return
	}
	if *explain {
		fail("-explain needs the reference engine")
	}
	if *trace {
		fail("-trace needs the reference engine")
	}
	for _, e := range systems.AllEngines(conf) {
		if e.Info().Name != *engineName {
			continue
		}
		if err := e.Load(triples); err != nil {
			fail(err.Error())
		}
		before := e.Context().Snapshot()
		var res *sparql.Results
		start := time.Now()
		for i := 0; i < *repeat; i++ {
			res, err = e.Execute(q)
			if err != nil {
				fail(err.Error())
			}
		}
		elapsed := time.Since(start)
		fmt.Print(res.String())
		if *repeat > 1 {
			fmt.Printf("%d runs in %v (%v/run)\n",
				*repeat, elapsed.Round(time.Microsecond), (elapsed / time.Duration(*repeat)).Round(time.Microsecond))
		}
		fmt.Printf("cluster activity: %s\n", e.Context().Snapshot().Diff(before))
		return
	}
	fail("unknown engine " + *engineName + " (try -engines)")
}

// printTraceSummary renders the last run's trace: self time bucketed
// into scan / join / other, then the top spans by self time, plus the
// query's plan fingerprint (the key into a server's /debug/shapes
// registry).
func printTraceSummary(tr *obs.Trace, fingerprint string) {
	var scan, join, other float64
	tr.Root().Walk(func(s *obs.Span, _ int) {
		ms := float64(s.SelfTime().Microseconds()) / 1000
		switch s.Name {
		case "seed_scan", "match":
			scan += ms
		case "join", "optional":
			join += ms
		default:
			other += ms
		}
	})
	fmt.Printf("trace: scan=%.3fms join=%.3fms other=%.3fms  fingerprint=%s\n",
		scan, join, other, fingerprint)
	for _, sp := range tr.TopSelf(5) {
		fmt.Printf("  %-24s %8.3fms\n", sp.Name, sp.SelfMs)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "rdfquery:", msg)
	os.Exit(1)
}
