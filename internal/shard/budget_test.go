package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// TestShardedBudgetOverloadDeterminism extends the budget contract to
// the distributed executor: a budgeted sharded run either returns
// output byte-identical to a clean single-graph serial run or fails
// with a typed *sparql.BudgetError — at any shard count × parallelism,
// on both the pushdown and scatter-gather routes (whose k-way merge
// buffers are themselves charged against the budget).
func TestShardedBudgetOverloadDeterminism(t *testing.T) {
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
		for _, nShards := range []int{3, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", ds.name, nShards), func(t *testing.T) {
				sg, err := BuildReplicatedByName(ds.triples, "hash-subject", nShards, 1)
				if err != nil {
					t.Fatal(err)
				}
				aborted, completed := 0, 0
				for _, nq := range ds.queries {
					sp, err := sparql.Prepare(nq.Text)
					if err != nil {
						t.Fatal(err)
					}
					for _, par := range []int{1, 4} {
						for _, budget := range []int64{2 << 10, 1 << 30} {
							got, err := sp.RunSharded(ctx, sg.Set(),
								sparql.WithParallelism(par), sparql.WithMemoryBudget(budget))
							if err != nil {
								var be *sparql.BudgetError
								if !errors.As(err, &be) {
									t.Fatalf("%s par %d budget %d: error = %v, want *BudgetError",
										nq.Name, par, budget, err)
								}
								aborted++
								continue
							}
							mustEqualResults(t, want[nq.Name], got)
							completed++
						}
					}
				}
				if aborted == 0 {
					t.Fatal("no sharded query aborted under the 2 KiB budget")
				}
				if completed == 0 {
					t.Fatal("no sharded query completed under the 1 GiB budget")
				}
			})
		}
	}
}
