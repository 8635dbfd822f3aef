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
// boots, MediumUniversity under hash-subject, at one and at two
// replicas per shard: every shard view with its position columns.
// B/triple is the heap the built ShardedGraph keeps live per distinct
// triple (the HeapAlloc delta across one build, each side read after
// two collections — the method of rdf's BenchmarkStoreBuild). A replica
// is a routing identity, not a copy, so 4x2 reads what 4x1 does; CI
// pins 4x2 and fails it past 4x1 + 5 %. allocs/op prices the boot
// itself (encode, dedupe, placement, views), also pinned at 4x2.
func BenchmarkShardBuild(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	for _, replicas := range []int{1, 2} {
		b.Run(fmt.Sprintf("4x%d", replicas), func(b *testing.B) {
			build := func() *ShardedGraph {
				sg, err := BuildReplicatedByName(triples, "hash-subject", 4, replicas)
				if err != nil {
					b.Fatal(err)
				}
				return sg
			}
			n := build().Len()
			b.ReportAllocs()
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
		})
	}
}

// BenchmarkShardedStar measures what placement-aware routing buys: the
// same subject-star query over the same 4-shard subject-hash placement,
// once on the pushdown route (shard-local stars, no cross-shard join)
// and once forced onto scatter-gather (per-pattern gathers + global
// hash joins). Pushdown must win.
func BenchmarkShardedStar(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	sg, err := BuildReplicatedByName(triples, "hash-subject", 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	text := fmt.Sprintf(`SELECT ?s ?d ?e WHERE { ?s <%sworksFor> ?d . ?s <%semailAddress> ?e . ?s <%sname> ?n }`,
		workload.UnivNS, workload.UnivNS, workload.UnivNS)
	sp, err := sparql.Prepare(text)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var st sparql.ShardStats
	if _, err := sp.RunSharded(ctx, sg.Set(), sparql.WithShardStats(&st)); err != nil || st.Route != sparql.RoutePushdown {
		b.Fatalf("star query routed %s (%v), want pushdown", st.Route, err)
	}
	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.RunSharded(ctx, sg.Set()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scatter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.RunSharded(ctx, sg.Set(), sparql.WithScatterOnly()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedLinear tracks the per-pattern route — the bind join —
// on cross-shard chains against the single-graph evaluator: the price
// of distribution when placement cannot make the query local. Two
// chains, each as a sharded sub-benchmark beside its single-graph one:
// the unselective advisor → worksFor chain over 4 shards (every student
// answers; the cost is rows moved), and the bench's selective 2-hop for
// one department over the 4 × 2 layout rdfserve -shards 4 -replicas 2
// boots (80 rows; the cost is the shard operations themselves, about
// eight of them). Each sharded sub-benchmark then runs the same plan on
// the single graph b.N times and reports sharded/single; CI fails when
// the selective ratio passes 12. It read 291 while every pattern was
// scanned from the empty row on every shard and the gathers hash-joined.
func BenchmarkShardedLinear(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	ctx := context.Background()
	g := rdf.NewGraph(triples)
	g.Encoded()
	g.Stats()

	// solutions leaves the answer in id space (RunSolutions, what the
	// server streams from): decoding 80 rows into term maps would cost
	// several times the shard operations the selective pair is there to
	// price. The unselective pair decodes, as it always has.
	pair := func(shardedName, singleName, text string, replicas int, solutions bool) {
		sg, err := BuildReplicatedByName(triples, "hash-subject", 4, replicas)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := sparql.Prepare(text)
		if err != nil {
			b.Fatal(err)
		}
		var st sparql.ShardStats
		if _, err := sp.RunSharded(ctx, sg.Set(), sparql.WithShardStats(&st)); err != nil || st.Route != sparql.RouteScatter {
			b.Fatalf("%s routed %s (%v), want scatter-gather", text, st.Route, err)
		}
		prep, err := sparql.Prepare(text)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, sharded bool) {
			for i := 0; i < b.N; i++ {
				var err error
				switch {
				case sharded && solutions:
					_, err = sp.RunShardedSolutions(ctx, sg.Set())
				case sharded:
					_, err = sp.RunSharded(ctx, sg.Set())
				case solutions:
					_, err = prep.RunSolutions(ctx, g)
				default:
					_, err = prep.Run(ctx, g)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(shardedName, func(b *testing.B) {
			b.ReportAllocs()
			run(b, true)
			b.StopTimer()
			sharded := b.Elapsed()
			start := time.Now()
			run(b, false)
			b.ReportMetric(float64(sharded)/float64(time.Since(start)), "sharded/single")
		})
		b.Run(singleName, func(b *testing.B) {
			b.ReportAllocs()
			run(b, false)
		})
	}
	pair("scatter-4shards", "single-graph",
		fmt.Sprintf(`SELECT ?st ?prof ?dept WHERE { ?st <%[1]sadvisor> ?prof . ?prof <%[1]sworksFor> ?dept }`, workload.UnivNS), 1, false)
	pair("selective-4x2", "selective-single-graph",
		fmt.Sprintf(`SELECT ?st ?prof WHERE { ?st <%[1]sadvisor> ?prof . ?prof <%[1]sworksFor> <%[1]suniv0.dept0> }`, workload.UnivNS), 2, true)
}

// BenchmarkShardedTailLatency measures health steering under a 2ms
// straggler: the same scatter query over 4 shards × 2 replicas, with
// replica 0 of every shard slowed (fixed) or the slowed replica index
// alternating per iteration (moving). Once both replicas are sampled,
// steering keeps a fixed straggler off every op; a moving one
// surprises it on every query, so moving is the slower sub-benchmark —
// and slower than it was when shard ops hedged onto the other replica
// after 200µs (p50 about 7.2 ms against 2.4–2.9 ms hedged, 2 vCPU).
// No flag or fault plan rdfserve offers moves a straggler. The
// p50-ms/p99-ms metrics are the point.
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
	run := func(b *testing.B, moving bool) {
		// A fresh set per sub-benchmark: replica health must not carry
		// what it learned about the stragglers across variants.
		sg, err := BuildReplicatedByName(triples, "hash-subject", nShards, reps)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := sparql.Prepare(text)
		if err != nil {
			b.Fatal(err)
		}
		durs := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan := plans[0]
			if moving {
				plan = plans[i%reps]
			}
			start := time.Now()
			if _, err := sp.RunSharded(fault.With(context.Background(), plan), sg.Set()); err != nil {
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
	b.Run("fixed", func(b *testing.B) { run(b, false) })
	b.Run("moving", func(b *testing.B) { run(b, true) })
}
