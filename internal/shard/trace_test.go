package shard

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// TestTracedShardedRunDeterminism pins tracing as a pure observer of
// sharded execution: for every workload query, at shards 1/3 and
// parallelism 1/4, a run armed with WithTrace returns byte-identical
// rows and order to the untraced single-graph serial run, and the
// trace records the scatter/pushdown activity plus the routing report
// on its root span.
func TestTracedShardedRunDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, ds := range datasets() {
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
		for _, nShards := range []int{1, 3} {
			sg, err := BuildReplicatedByName(ds.triples, "hash-subject", nShards, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/par=%d", ds.name, nShards, par), func(t *testing.T) {
					for _, nq := range ds.queries {
						sp, err := sparql.Prepare(nq.Text)
						if err != nil {
							t.Fatal(err)
						}
						tr := obs.New("query")
						got, err := sp.RunSharded(ctx, sg.Set(), sparql.WithParallelism(par), sparql.WithTrace(tr))
						tr.Finish()
						if err != nil {
							t.Fatalf("%s: %v", nq.Name, err)
						}
						mustEqualResults(t, want[nq.Name], got)
						root := tr.Root()
						route, ok := root.Str("route")
						if !ok {
							t.Fatalf("%s: trace root missing route", nq.Name)
						}
						shards, _ := root.Int("shards")
						if shards != int64(nShards) {
							t.Fatalf("%s: root shards = %d, want %d", nq.Name, shards, nShards)
						}
						// A scatter-routed query records scatter spans; a
						// pushdown-routed one records a pushdown span.
						switch route {
						case "scatter-gather":
							// Scatter spans exist unless an intermediate
							// emptied before the first pattern — the plans
							// here always scatter at least once.
							if len(root.FindAll("scatter")) == 0 {
								t.Fatalf("%s: scatter route recorded no scatter span", nq.Name)
							}
						case "pushdown":
							if root.Find("pushdown") == nil {
								t.Fatalf("%s: pushdown route recorded no pushdown span", nq.Name)
							}
						default:
							t.Fatalf("%s: unexpected route %q", nq.Name, route)
						}
					}
				})
			}
		}
	}
}

// TestTraceScatterShardRows checks the per-shard gather accounting: on
// a multi-shard scatter, the per-shard row attributes of the scatter
// spans sum to the span's merged row count.
func TestTraceScatterShardRows(t *testing.T) {
	ds := datasets()[0]
	sg, err := BuildReplicatedByName(ds.triples, "hash-subject", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sparql.Prepare(ds.queries[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("query")
	if _, err := sp.RunSharded(context.Background(), sg.Set(),
		sparql.WithParallelism(1), sparql.WithTrace(tr), sparql.WithScatterOnly()); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	scatters := tr.Root().FindAll("scatter")
	if len(scatters) == 0 {
		t.Fatal("no scatter spans recorded")
	}
	for _, sc := range scatters {
		rows, ok := sc.Int("rows")
		if !ok {
			t.Fatal("scatter span missing rows")
		}
		var sum int64
		for s := 0; s < 3; s++ {
			if v, ok := sc.Int(fmt.Sprintf("shard_%d_rows", s)); ok {
				sum += v
			}
		}
		if sum != rows {
			t.Fatalf("per-shard rows sum to %d, scatter merged %d", sum, rows)
		}
	}
}
