// Benchmarks regenerating every table and figure of the paper plus the
// assessment experiments its Section V calls for. Run with
//
//	go test -bench=. -benchmem
//
// Custom metrics reported per op:
//
//	shuffleRec/op   records crossing a shuffle boundary
//	broadcast/op    records shipped to executors via broadcast
//	supersteps/op   vertex-program/validation rounds (graph engines)
//	scanned/op      triples loaded from storage indexes (SparkRDF)
//	storageRows     rows materialized at load time (S2RDF sweep)
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/evolve"
	"repro/internal/partition"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems"
	"repro/internal/systems/gxsubgraph"
	"repro/internal/systems/haqwa"
	"repro/internal/systems/hybrid"
	"repro/internal/systems/s2rdf"
	"repro/internal/systems/s2x"
	"repro/internal/systems/sparkql"
	"repro/internal/systems/sparkrdf"
	"repro/internal/systems/sparqlgx"
	"repro/internal/workload"
)

func benchConf() spark.Config {
	return spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 8}
}

// --- Fig. 1 and Tables I–II (the paper's artifacts) ---

func BenchmarkFig1Taxonomy(b *testing.B) {
	engines := systems.AllEngines(benchConf())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := core.RenderFig1(engines); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkTableITaxonomy(b *testing.B) {
	engines := systems.AllEngines(benchConf())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := core.RenderTableI(engines); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIICharacteristics(b *testing.B) {
	engines := systems.AllEngines(benchConf())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := core.RenderTableII(engines); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Assess-A: every engine on every query shape ---

// benchShape runs all engines on the university workload restricted to
// one shape, one sub-benchmark per (engine, query).
func benchShape(b *testing.B, shape sparql.Shape) {
	benchQueries(b, workload.SmallUniversity(), workload.QueriesByShape(workload.UniversityQueries(), shape))
}

func benchQueries(b *testing.B, dataset workload.UniversityConfig, queries []workload.NamedQuery) {
	triples := workload.GenerateUniversity(dataset)
	engines := systems.AllEngines(benchConf())
	for _, e := range engines {
		if err := e.Load(triples); err != nil {
			b.Fatal(err)
		}
	}
	for _, nq := range queries {
		for _, e := range engines {
			// Skip fragments the system does not support (Table II).
			if _, err := e.Execute(nq.Query); err != nil {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", nq.Name, e.Info().Name), func(b *testing.B) {
				before := e.Context().Snapshot()
				for i := 0; i < b.N; i++ {
					if _, err := e.Execute(nq.Query); err != nil {
						b.Fatal(err)
					}
				}
				d := e.Context().Snapshot().Diff(before)
				b.ReportMetric(float64(d.ShuffleRecords)/float64(b.N), "shuffleRec/op")
				b.ReportMetric(float64(d.BroadcastRecords)/float64(b.N), "broadcast/op")
				b.ReportMetric(float64(d.Supersteps)/float64(b.N), "supersteps/op")
			})
		}
	}
}

func BenchmarkAssessStar(b *testing.B)      { benchShape(b, sparql.ShapeStar) }
func BenchmarkAssessLinear(b *testing.B)    { benchShape(b, sparql.ShapeLinear) }
func BenchmarkAssessSnowflake(b *testing.B) { benchShape(b, sparql.ShapeSnowflake) }
func BenchmarkAssessComplex(b *testing.B)   { benchShape(b, sparql.ShapeComplex) }

// BenchmarkAssessOperators covers the operator cells the shape
// benchmarks leave out: OPTIONAL and UNION on the engines of the BGP+
// fragment, whose joins run at the driver over whole solution
// sequences. It runs at the acceptance benchmark's scale, because that
// cost is quadratic when it is wrong and the small dataset hides it.
func BenchmarkAssessOperators(b *testing.B) {
	var queries []workload.NamedQuery
	for _, nq := range workload.UniversityQueries() {
		if nq.Name == "U-optional-1" || nq.Name == "U-union-1" {
			queries = append(queries, nq)
		}
	}
	benchQueries(b, workload.MediumUniversity(), queries)
}

// BenchmarkAssessPass is one pass of the acceptance benchmark's assess
// workload (bench/assess.go) at medium scale: fresh engines, every
// Load, then every University query with a unique answer on every
// engine through core.RunQuery, each answer verified. As there, only
// the query part is timed: ms/cell is its wall time per cell run, and
// B/op and allocs/op are per pass. live-MB is the heap still in use
// once the nine Loads are done, after a collection, outside the timed
// part: what the loaded engines hold between queries.
func BenchmarkAssessPass(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	ref := rdf.NewGraph(triples)
	var queries []workload.NamedQuery
	var reference []*sparql.Results
	for _, nq := range workload.UniversityQueries() {
		if nq.Name == "U-filter-1" { // LIMIT cuts through ties: RunQuery compares exactly
			continue
		}
		want, err := sparql.Evaluate(nq.Query, ref)
		if err != nil {
			b.Fatal(err)
		}
		queries, reference = append(queries, nq), append(reference, want)
	}
	b.ReportAllocs()
	cells := 0
	var live uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engines := systems.AllEngines(benchConf())
		for _, e := range engines {
			if err := e.Load(triples); err != nil {
				b.Fatal(err)
			}
		}
		live += liveHeap()
		b.StartTimer()
		for qi, nq := range queries {
			for _, e := range engines {
				m := core.RunQuery(e, nq.Name, nq.Query, reference[qi])
				if m.Err != nil { // a fragment the engine does not claim
					continue
				}
				if !m.Correct {
					b.Fatalf("%s on %s: wrong answer", e.Info().Name, nq.Name)
				}
				cells++
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1000/float64(cells), "ms/cell")
	b.ReportMetric(float64(live)/float64(b.N)/(1<<20), "live-MB")
}

// liveHeap returns the bytes of heap in use after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// --- Assess-B: join-strategy ablation of the hybrid study [21] ---

func BenchmarkJoinStrategies(b *testing.B) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	star := sparql.MustParse(fmt.Sprintf(
		`SELECT ?s ?n ?a WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`, workload.UnivNS, workload.UnivNS))
	linear := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
	for _, q := range []struct {
		name  string
		query *sparql.Query
	}{{"star", star}, {"linear", linear}} {
		for _, s := range []hybrid.Strategy{hybrid.StrategyHybrid, hybrid.StrategyRDD, hybrid.StrategyDataFrame, hybrid.StrategySparkSQL} {
			e := hybrid.NewWithStrategy(spark.NewContext(benchConf()), s)
			if err := e.Load(triples); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", q.name, s), func(b *testing.B) {
				before := e.Context().Snapshot()
				for i := 0; i < b.N; i++ {
					if _, err := e.Execute(q.query); err != nil {
						b.Fatal(err)
					}
				}
				d := e.Context().Snapshot().Diff(before)
				b.ReportMetric(float64(d.ShuffleRecords)/float64(b.N), "shuffleRec/op")
				b.ReportMetric(float64(d.BroadcastRecords)/float64(b.N), "broadcast/op")
			})
		}
	}
}

// --- Assess-C: ExtVP vs VP join input, and the SF threshold sweep ---

func BenchmarkExtVPvsVP(b *testing.B) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
	for _, cfg := range []struct {
		name string
		sf   float64
	}{
		{"VP-only", 1e-9}, // threshold so strict that no ExtVP survives
		{"ExtVP", s2rdf.DefaultSelectivityThreshold},
	} {
		e := s2rdf.New(spark.NewContext(benchConf()))
		e.SFThreshold = cfg.sf
		if err := e.Load(triples); err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.StorageRows), "storageRows")
		})
	}
}

func BenchmarkExtVPSelectivitySweep(b *testing.B) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	for _, sf := range []float64{0.01, 0.1, 0.25, 0.5, 0.9} {
		sf := sf
		b.Run(fmt.Sprintf("SF=%.2f", sf), func(b *testing.B) {
			var storage float64
			for i := 0; i < b.N; i++ {
				e := s2rdf.New(spark.NewContext(benchConf()))
				e.SFThreshold = sf
				if err := e.Load(triples); err != nil {
					b.Fatal(err)
				}
				storage = e.StorageOverhead()
			}
			b.ReportMetric(storage, "storageOverhead")
		})
	}
}

// --- Assess-D: HAQWA locality, with and without allocation ---

func BenchmarkHAQWALocality(b *testing.B) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	star := sparql.MustParse(fmt.Sprintf(
		`SELECT ?s ?n ?a WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`, workload.UnivNS, workload.UnivNS))
	linear := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))

	cases := []struct {
		name     string
		query    *sparql.Query
		allocate bool
	}{
		{"star", star, false},
		{"linear-unallocated", linear, false},
		{"linear-allocated", linear, true},
	}
	for _, c := range cases {
		e := haqwa.New(spark.NewContext(benchConf()))
		if err := e.Load(triples); err != nil {
			b.Fatal(err)
		}
		if c.allocate {
			e.Allocate([]*sparql.Query{c.query})
		}
		b.Run(c.name, func(b *testing.B) {
			before := e.Context().Snapshot()
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(c.query); err != nil {
					b.Fatal(err)
				}
			}
			d := e.Context().Snapshot().Diff(before)
			b.ReportMetric(float64(d.ShuffleRecords)/float64(b.N), "shuffleRec/op")
		})
	}
}

// --- Assess-E: graph engines' superstep/message profile per shape ---

func BenchmarkGraphEngines(b *testing.B) {
	triples := workload.GenerateShop(workload.SmallShop())
	queries := []struct {
		name string
		q    *sparql.Query
	}{
		{"star", sparql.MustParse(fmt.Sprintf(
			`SELECT ?p ?price ?cap WHERE { ?p <%sprice> ?price . ?p <%scaption> ?cap }`,
			workload.ShopNS, workload.ShopNS))},
		{"linear", sparql.MustParse(fmt.Sprintf(
			`SELECT ?a ?prod WHERE { ?a <%sfollows> ?b . ?b <%slikes> ?prod }`,
			workload.ShopNS, workload.ShopNS))},
	}
	engines := []core.Engine{
		s2x.New(spark.NewContext(benchConf())),
		gxsubgraph.New(spark.NewContext(benchConf())),
		sparkql.New(spark.NewContext(benchConf())),
	}
	for _, e := range engines {
		if err := e.Load(triples); err != nil {
			b.Fatal(err)
		}
	}
	for _, item := range queries {
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/%s", item.name, e.Info().Name), func(b *testing.B) {
				before := e.Context().Snapshot()
				for i := 0; i < b.N; i++ {
					if _, err := e.Execute(item.q); err != nil {
						b.Fatal(err)
					}
				}
				d := e.Context().Snapshot().Diff(before)
				b.ReportMetric(float64(d.Supersteps)/float64(b.N), "supersteps/op")
				b.ReportMetric(float64(d.MessagesSent)/float64(b.N), "messages/op")
			})
		}
	}
}

// --- Assess-F: SparkRDF MESG index-level ablation ---

func BenchmarkMESGIndexLevels(b *testing.B) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?s ?prof WHERE { ?s <%s> <%sStudent> . ?prof <%s> <%sProfessor> . ?s <%sadvisor> ?prof }`,
		rdf.RDFType, workload.UnivNS, rdf.RDFType, workload.UnivNS, workload.UnivNS))
	for _, lvl := range []sparkrdf.IndexLevel{sparkrdf.Level1, sparkrdf.Level2, sparkrdf.Level3} {
		e := sparkrdf.NewWithLevel(spark.NewContext(benchConf()), lvl)
		if err := e.Load(triples); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("level%d", lvl), func(b *testing.B) {
			e.ScannedTriples = 0
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.ScannedTriples)/float64(b.N), "scanned/op")
		})
	}
}

// --- Assess-G: partitioner ablation on a mixed workload ---

func BenchmarkPartitioners(b *testing.B) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	mixed := []*sparql.Query{
		sparql.MustParse(fmt.Sprintf(
			`SELECT ?s ?n ?a WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`, workload.UnivNS, workload.UnivNS)),
		sparql.MustParse(fmt.Sprintf(
			`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
			workload.UnivNS, workload.UnivNS)),
	}
	run := func(b *testing.B, e core.Engine) {
		before := e.Context().Snapshot()
		for i := 0; i < b.N; i++ {
			for _, q := range mixed {
				if _, err := e.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		}
		d := e.Context().Snapshot().Diff(before)
		b.ReportMetric(float64(d.ShuffleRecords)/float64(b.N), "shuffleRec/op")
	}

	b.Run("hash-subject", func(b *testing.B) {
		e := haqwa.New(spark.NewContext(benchConf()))
		if err := e.Load(triples); err != nil {
			b.Fatal(err)
		}
		run(b, e)
	})
	b.Run("vertical", func(b *testing.B) {
		e := sparqlgx.New(spark.NewContext(benchConf()))
		if err := e.Load(triples); err != nil {
			b.Fatal(err)
		}
		run(b, e)
	})
	b.Run("workload-aware", func(b *testing.B) {
		e := haqwa.New(spark.NewContext(benchConf()))
		if err := e.Load(triples); err != nil {
			b.Fatal(err)
		}
		e.Allocate(mixed)
		run(b, e)
	})
}

// --- Assess-H: placement cost per strategy (Sec. V direction; the
// star-locality and edge-cut axes are pinned by internal/partition's
// tests) ---

func BenchmarkPartitionPlace(b *testing.B) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	dict, enc, err := rdf.EncodeDistinct(func(add func(rdf.Triple) error) error {
		for _, t := range triples {
			if err := add(t); err != nil {
				return err
			}
		}
		return nil
	}, len(triples))
	if err != nil {
		b.Fatal(err)
	}
	linear := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
	strategies := []partition.Strategy{
		partition.HashSubject{},
		partition.Vertical{},
		partition.Semantic{},
		partition.WorkloadAware{Queries: []*sparql.Query{linear}},
		partition.LabelPropagation{Rounds: 4},
	}
	for _, s := range strategies {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Place(dict, enc, 4)
			}
		})
	}
}

// --- Assess-I: versioned (evolving) query answering (Sec. V direction) ---

func BenchmarkVersionedQueryAnswering(b *testing.B) {
	base := workload.GenerateUniversity(workload.SmallUniversity())
	store := evolve.NewStore(base)
	for i := 0; i < 10; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%scommit%d", workload.UnivNS, i))
		if _, err := store.Commit([]rdf.Triple{
			{S: s, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(workload.UnivNS + "Student")},
		}, nil); err != nil {
			b.Fatal(err)
		}
	}
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT (COUNT(?s) AS ?n) WHERE { ?s <%s> <%sStudent> }`, rdf.RDFType, workload.UnivNS))

	b.Run("query-head", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.QueryAt(store.Head(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-v0", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.QueryAt(0, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diff-v0-head", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := store.DiffResults(0, store.Head(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Reference-evaluator hot path (slot-compiled BGP evaluation) ---

// BenchmarkEvalBGP measures the reference evaluator on the shaped
// university queries of the conformance battery. Every conformance
// test funnels through sparql.Evaluate, so its allocation behavior
// bounds the whole suite. The queries here exercise the slot-compiled
// BGP evaluator plus the id-space solution-modifier pipeline
// (projection, DISTINCT, ORDER BY, LIMIT).
func BenchmarkEvalBGP(b *testing.B) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	g := rdf.NewGraph(triples)
	cases := []struct {
		name  string
		query string
	}{
		{"star", fmt.Sprintf(
			`SELECT ?s ?a ?n WHERE { ?s <%sage> ?a . ?s <%sname> ?n } ORDER BY ?a DESC(?n) LIMIT 7 OFFSET 3`,
			workload.UnivNS, workload.UnivNS)},
		{"linear-3", fmt.Sprintf(
			`SELECT ?st ?univ WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept . ?dept <%ssubOrganizationOf> ?univ }`,
			workload.UnivNS, workload.UnivNS, workload.UnivNS)},
		{"snowflake", fmt.Sprintf(
			`SELECT ?st ?sn ?pn WHERE { ?st <%sname> ?sn . ?st <%sadvisor> ?prof . ?prof <%sname> ?pn . ?prof <%sworksFor> ?dept }`,
			workload.UnivNS, workload.UnivNS, workload.UnivNS, workload.UnivNS)},
		{"distinct-order-limit", fmt.Sprintf(
			`SELECT DISTINCT ?a WHERE { ?s <%sage> ?a } ORDER BY ?a LIMIT 5`, workload.UnivNS)},
	}
	for _, c := range cases {
		q := sparql.MustParse(c.query)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sparql.Evaluate(q, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalFullDecode tracks the decode-bound evaluator path:
// queries whose whole solution sequence must be materialized as
// map-based Bindings (the Results contract), so allocations scale
// with the number of result rows no matter how lean the id-space
// evaluation is.
func BenchmarkEvalFullDecode(b *testing.B) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	g := rdf.NewGraph(triples)
	cases := []struct {
		name  string
		query string
	}{
		{"star-2", fmt.Sprintf(
			`SELECT ?s ?n ?a WHERE { ?s <%sname> ?n . ?s <%sage> ?a }`,
			workload.UnivNS, workload.UnivNS)},
		{"bound-subject", fmt.Sprintf(
			`SELECT ?p ?o WHERE { <%suniv0.dept0.stud0> ?p ?o }`, workload.UnivNS)},
	}
	for _, c := range cases {
		q := sparql.MustParse(c.query)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sparql.Evaluate(q, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
