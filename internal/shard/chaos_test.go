package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/systems/systemstest"
	"repro/internal/workload"
)

// TestChaosDeterminism is the fault-tolerance acceptance suite: for
// every workload query, and for eight BGP+ queries of the engines'
// N-version sweep over its random dataset (systemstest; CHAOS_SEED
// picks the seed), across placement strategies, shard counts, and
// replica counts, a run with one replica of every shard failed and
// latency injected on every scatter attempt must return byte-identical
// results to a clean single-graph run. Failover must be invisible in
// the output and visible in the fault counters.
func TestChaosDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, ds := range append(datasets(), randomDataset(chaosSeed(t))) {
		g := rdf.NewGraph(ds.triples)
		want := make(map[string]*sparql.Results, len(ds.queries))
		for _, nq := range ds.queries {
			prep, err := sparql.Prepare(nq.Text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prep.Run(ctx, g, sparql.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			want[nq.Name] = res
		}
		for _, strat := range []string{"hash-subject", "vertical"} {
			for _, nShards := range []int{3, 8} {
				for _, reps := range []int{2, 3} {
					t.Run(fmt.Sprintf("%s/%s/shards=%d/replicas=%d", ds.name, strat, nShards, reps), func(t *testing.T) {
						sg, err := BuildReplicatedByName(ds.triples, strat, nShards, reps)
						if err != nil {
							t.Fatal(err)
						}
						var failovers int64
						for qi, nq := range ds.queries {
							// Kill a different replica of every shard per
							// query and slow every scatter attempt down.
							kill := qi % reps
							plan := fault.NewPlan(int64(qi+1)).
								Delay(fault.PointScatter, 100*time.Microsecond)
							for s := 0; s < nShards; s++ {
								plan.FailAlways(fault.ReplicaPoint(s, kill))
							}
							sp, err := sparql.Prepare(nq.Text)
							if err != nil {
								t.Fatal(err)
							}
							var fs sparql.FaultStats
							got, err := sp.RunSharded(fault.With(ctx, plan), sg.Set(),
								sparql.WithParallelism(4), sparql.WithFaultStats(&fs))
							if err != nil {
								t.Fatalf("%s (replica %d down): %v", nq.Name, kill, err)
							}
							mustEqualResults(t, want[nq.Name], got)
							failovers += fs.Failovers
						}
						if failovers == 0 {
							t.Fatal("no failovers recorded with a replica down for every query")
						}
					})
				}
			}
		}
	}
}

// TestChaosTransientSeeds pins recovery from *transient* faults: every
// scatter attempt fails with 25% probability (seeded, so CI can sweep
// seeds via CHAOS_SEED), and with a widened retry budget the run must
// still produce byte-identical results. Sixteen attempts per shard op
// put the all-fail probability around 1e-10 per op.
func TestChaosTransientSeeds(t *testing.T) {
	seed := chaosSeed(t)
	ctx := context.Background()
	ds := datasets()[0]
	g := rdf.NewGraph(ds.triples)
	sg, err := BuildReplicatedByName(ds.triples, "hash-subject", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sg.Set().Health.SetCooldown(time.Millisecond)
	retry := sparql.RetryPolicy{Cycles: 8, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 2 * time.Millisecond}
	for qi, nq := range ds.queries {
		prep, err := sparql.Prepare(nq.Text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prep.Run(ctx, g, sparql.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		plan := fault.NewPlan(seed+int64(qi)).FailRate(fault.PointScatter, 0.25)
		sp, err := sparql.Prepare(nq.Text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.RunSharded(fault.With(ctx, plan), sg.Set(),
			sparql.WithParallelism(4), sparql.WithRetryPolicy(retry))
		if err != nil {
			t.Fatalf("%s (seed %d): %v", nq.Name, seed, err)
		}
		mustEqualResults(t, want, got)
	}
}

// randomDataset is seed's random dataset of the engines' N-version
// sweep (systemstest.RandomDataset) with eight of its BGP+ queries.
func randomDataset(seed int64) dataset {
	ds := dataset{name: fmt.Sprintf("random-%d", seed), triples: systemstest.RandomDataset(seed)}
	for i, text := range systemstest.RandomQueries(rand.New(rand.NewSource(seed)), 8, true) {
		ds.queries = append(ds.queries, workload.NamedQuery{Name: fmt.Sprintf("random-%d", i), Text: text})
	}
	return ds
}

// chaosSeed returns the seed for seeded chaos plans, overridable via
// CHAOS_SEED so CI can sweep schedules.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	return seed
}

// TestChaosTailDeterminism is the straggler acceptance suite: with one
// replica of every shard slowed ~100× (a 2ms stall against µs-scale
// scans) and hedged shard operations armed, every workload query must
// return byte-identical results to a clean single-graph run — across
// placement strategies, shard counts, replica counts, and fan-out
// width. The slowed replica index rotates per query, so health
// steering keeps getting surprised and every cell records hedges.
func TestChaosTailDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16-cell matrix with injected 2ms stragglers")
	}
	seed := chaosSeed(t)
	ctx := context.Background()
	ds := datasets()[0]
	g := rdf.NewGraph(ds.triples)
	want := make(map[string]*sparql.Results, len(ds.queries))
	for _, nq := range ds.queries {
		prep, err := sparql.Prepare(nq.Text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(ctx, g, sparql.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		want[nq.Name] = res
	}
	hedge := sparql.HedgePolicy{Delay: 200 * time.Microsecond}
	for _, strat := range []string{"hash-subject", "vertical"} {
		for _, nShards := range []int{3, 8} {
			for _, reps := range []int{2, 3} {
				for _, par := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/shards=%d/replicas=%d/par=%d", strat, nShards, reps, par), func(t *testing.T) {
						sg, err := BuildReplicatedByName(ds.triples, strat, nShards, reps)
						if err != nil {
							t.Fatal(err)
						}
						var hedges, wins int64
						for qi, nq := range ds.queries {
							slow := qi % reps
							plan := fault.NewPlan(seed + int64(qi))
							for s := 0; s < nShards; s++ {
								plan.SlowReplica(s, slow, 2*time.Millisecond)
							}
							sp, err := sparql.Prepare(nq.Text)
							if err != nil {
								t.Fatal(err)
							}
							var fs sparql.FaultStats
							got, err := sp.RunSharded(fault.With(ctx, plan), sg.Set(),
								sparql.WithParallelism(par),
								sparql.WithHedge(hedge),
								sparql.WithFaultStats(&fs))
							if err != nil {
								t.Fatalf("%s (replica %d slow): %v", nq.Name, slow, err)
							}
							mustEqualResults(t, want[nq.Name], got)
							hedges += fs.Hedges
							wins += fs.HedgeWins
						}
						if hedges == 0 {
							t.Fatal("no hedges recorded with a straggler replica in every shard")
						}
						_ = wins // the slow primary can still win a race; counted, not required
					})
				}
			}
		}
	}
}

// TestAllReplicasDownPartialFailure pins the only give-up condition:
// when every replica of a needed shard is down, the query fails with a
// typed PartialFailureError naming exactly the lost shards — not a
// hang, not a silent partial result.
func TestAllReplicasDownPartialFailure(t *testing.T) {
	ds := datasets()[0]
	sg, err := BuildReplicatedByName(ds.triples, "hash-subject", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const lost = 1
	plan := fault.NewPlan(1).
		FailAlways(fault.ReplicaPoint(lost, 0)).
		FailAlways(fault.ReplicaPoint(lost, 1))
	// A full scan needs every shard, so the lost one cannot be pruned.
	sp, err := sparql.Prepare(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	retry := sparql.RetryPolicy{Cycles: 2, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
	_, err = sp.RunSharded(fault.With(context.Background(), plan), sg.Set(),
		sparql.WithParallelism(4), sparql.WithRetryPolicy(retry))
	var pf *sparql.PartialFailureError
	if !errors.As(err, &pf) {
		t.Fatalf("error = %v, want a *PartialFailureError", err)
	}
	if len(pf.Shards) != 1 || pf.Shards[0] != lost {
		t.Fatalf("lost shards = %v, want [%d]", pf.Shards, lost)
	}
	// The set is not poisoned: with the fault plan gone the same
	// prepared query answers cleanly again.
	res, err := sp.RunSharded(context.Background(), sg.Set(), sparql.WithParallelism(4))
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if res.Len() == 0 {
		t.Fatal("recovery run returned no rows")
	}
}

// TestScatterCancelNoGoroutineLeak pins prompt cancellation through the
// sharded scatter path: cancelling mid-cartesian surfaces ctx.Err()
// quickly and leaves no worker goroutines behind.
func TestScatterCancelNoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an 8192-wide cartesian")
	}
	n := 8192
	ts := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		ts = append(ts,
			rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/a%d", i)), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral(fmt.Sprintf("x%d", i))},
			rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/b%d", i)), P: rdf.NewIRI("http://ex/q"), O: rdf.NewLiteral(fmt.Sprintf("y%d", i))},
		)
	}
	sg, err := BuildReplicatedByName(ts, "hash-subject", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sparql.Prepare(`SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/q> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = sp.RunSharded(ctx, sg.Set(), sparql.WithParallelism(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled scatter took %v, want prompt abort", elapsed)
	}
	// Workers unwind asynchronously after Run returns; poll instead of
	// asserting an instant count.
	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count returns to near the
// baseline, failing after three seconds — shared by the leak tests,
// since losers of hedge races unwind asynchronously.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d baseline, %d three seconds later", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosHedgeNoGoroutineLeak pins hedge-loser hygiene: after runs
// where every shard op races a slow primary against a hedge, the
// losing attempts must unwind on their own — no goroutines left behind
// once their injected stalls elapse.
func TestChaosHedgeNoGoroutineLeak(t *testing.T) {
	ds := datasets()[0]
	sg, err := BuildReplicatedByName(ds.triples, "hash-subject", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(1)
	for s := 0; s < 4; s++ {
		plan.SlowReplica(s, 0, 20*time.Millisecond)
	}
	before := runtime.NumGoroutine()
	hedge := sparql.HedgePolicy{Delay: 100 * time.Microsecond}
	for _, nq := range ds.queries {
		sp, err := sparql.Prepare(nq.Text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.RunSharded(fault.With(context.Background(), plan), sg.Set(),
			sparql.WithParallelism(4), sparql.WithHedge(hedge)); err != nil {
			t.Fatalf("%s: %v", nq.Name, err)
		}
	}
	waitGoroutines(t, before)
}
