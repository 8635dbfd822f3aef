package shard

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// BenchmarkShardBuild prices the serving layout rdfserve -shards 4
// -replicas 2 boots: MediumUniversity under hash-subject, every replica
// view with its position columns. B/triple is the heap the built
// ShardedGraph keeps live per distinct triple (the HeapAlloc delta
// across one build, each side read after two collections — the method
// of rdf's BenchmarkStoreBuild); CI pins it, so whatever a replica
// stores next shows up as a guarded number.
func BenchmarkShardBuild(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	build := func() *ShardedGraph {
		sg, err := BuildReplicatedByName(triples, "hash-subject", 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		return sg
	}
	n := build().Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/triple")

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	sg := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sg)
	runtime.KeepAlive(triples) // the input must not be freed inside the window
	b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(n), "B/triple")
}

// BenchmarkShardedStar measures what placement-aware routing buys: the
// same subject-star query over the same 4-shard subject-hash placement,
// once on the pushdown route (shard-local stars, no cross-shard join)
// and once forced onto scatter-gather (per-pattern gathers + global
// hash joins). Pushdown must win.
func BenchmarkShardedStar(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	sg, err := BuildByName(triples, "hash-subject", 4)
	if err != nil {
		b.Fatal(err)
	}
	text := fmt.Sprintf(`SELECT ?s ?d ?e WHERE { ?s <%sworksFor> ?d . ?s <%semailAddress> ?e . ?s <%sname> ?n }`,
		workload.UnivNS, workload.UnivNS, workload.UnivNS)
	sp, err := sg.Prepare(text)
	if err != nil {
		b.Fatal(err)
	}
	if route := sp.ExplainShards().Route; route != sparql.RoutePushdown {
		b.Fatalf("star query routed %s, want pushdown", route)
	}
	ctx := context.Background()
	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scatter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.Run(ctx, sparql.WithScatterOnly()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedLinear tracks the scatter-gather route on a linear
// (cross-shard join) query against the single-graph evaluator — the
// price of distribution when placement cannot make the query local.
func BenchmarkShardedLinear(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	text := fmt.Sprintf(`SELECT ?st ?prof ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS)
	ctx := context.Background()

	sg, err := BuildByName(triples, "hash-subject", 4)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := sg.Prepare(text)
	if err != nil {
		b.Fatal(err)
	}
	if route := sp.ExplainShards().Route; route != sparql.RouteScatter {
		b.Fatalf("linear query routed %s, want scatter-gather", route)
	}
	b.Run("scatter-4shards", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	g := rdf.NewGraph(triples)
	g.Encoded()
	g.Stats()
	prep, err := sparql.Prepare(text)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single-graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(ctx, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedTailLatency measures what hedged shard operations
// buy under a straggler: the same scatter query over 4 shards × 2
// replicas, with the slow replica index alternating per iteration (a
// 2ms stall, so health steering keeps getting surprised), once without
// hedging and once hedged after 200µs. The p50-ms/p99-ms metrics are
// the point: hedging must pull the tail in.
func BenchmarkShardedTailLatency(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	text := fmt.Sprintf(`SELECT ?st ?prof ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS)
	const nShards, reps = 4, 2
	plans := make([]*fault.Plan, reps)
	for r := range plans {
		plans[r] = fault.NewPlan(int64(r + 1))
		for s := 0; s < nShards; s++ {
			plans[r].SlowReplica(s, r, 2*time.Millisecond)
		}
	}
	run := func(b *testing.B, opts ...sparql.RunOption) {
		// A fresh set per sub-benchmark: replica health must not carry
		// what it learned about the stragglers across variants.
		sg, err := BuildReplicatedByName(triples, "hash-subject", nShards, reps)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := sg.Prepare(text)
		if err != nil {
			b.Fatal(err)
		}
		durs := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := fault.With(context.Background(), plans[i%reps])
			start := time.Now()
			if _, err := sp.Run(ctx, opts...); err != nil {
				b.Fatal(err)
			}
			durs = append(durs, time.Since(start))
		}
		b.StopTimer()
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		pct := func(p int) float64 {
			idx := (p*len(durs) + 99) / 100
			if idx < 1 {
				idx = 1
			}
			return float64(durs[idx-1].Microseconds()) / 1000
		}
		b.ReportMetric(pct(50), "p50-ms")
		b.ReportMetric(pct(99), "p99-ms")
	}
	b.Run("unhedged", func(b *testing.B) { run(b) })
	b.Run("hedged", func(b *testing.B) {
		run(b, sparql.WithHedge(sparql.HedgePolicy{Delay: 200 * time.Microsecond}))
	})
}
