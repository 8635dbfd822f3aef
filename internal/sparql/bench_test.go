package sparql

// Micro-benchmarks for the reference evaluator's join engine. The hash
// path must beat the nested-loop baseline (kept as the cartesian /
// partial-binding fallback) on both time and allocations; the
// allocation gap is pinned by TestHashJoinAllocsVsNestedLoop. Run with
//
//	go test ./internal/sparql -run xxx -bench . -benchmem

import (
	"context"
	"testing"

	"repro/internal/obs"
)

const (
	benchJoinRows = 8192
	// benchBuildLeftRows is the left side of the hash-build-left
	// sub-benchmarks: small enough against benchJoinRows that the table
	// is built over it.
	benchBuildLeftRows = 1024
)

// BenchmarkEvalJoin joins two star branches of benchJoinRows rows each
// (one match per row) with the hash join and with the nested-loop
// baseline it replaced. "hash" is the pinned path — its 6 allocs/op
// must not move, and CI pins "hash-build-left" beside it.
func BenchmarkEvalJoin(b *testing.B) {
	g := joinTestGraph(benchJoinRows)
	env, names, ages := joinSides(b, g)
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.joinRows(names, ages); len(out) != benchJoinRows {
				b.Fatalf("join produced %d rows", len(out))
			}
		}
	})
	// The table over a selective left side, probed by a whole pattern's
	// rows: the shape a sharded scatter route's join fold runs.
	b.Run("hash-build-left", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.joinRows(names[:benchBuildLeftRows], ages); len(out) != benchBuildLeftRows {
				b.Fatalf("join produced %d rows", len(out))
			}
		}
	})
	b.Run("nested", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.nestedJoinRows(names, ages); len(out) != benchJoinRows {
				b.Fatalf("join produced %d rows", len(out))
			}
		}
	})
}

// BenchmarkEvalOptional left-joins the same branches; every left row
// matches exactly once.
func BenchmarkEvalOptional(b *testing.B) {
	g := joinTestGraph(benchJoinRows)
	env, names, ages := joinSides(b, g)
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.optionalRows(names, ages); len(out) != benchJoinRows {
				b.Fatalf("optional produced %d rows", len(out))
			}
		}
	})
	b.Run("hash-build-left", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.optionalRows(names[:benchBuildLeftRows], ages); len(out) != benchBuildLeftRows {
				b.Fatalf("optional produced %d rows", len(out))
			}
		}
	})
	b.Run("nested", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.nestedOptionalRows(names, ages); len(out) != benchJoinRows {
				b.Fatalf("optional produced %d rows", len(out))
			}
		}
	})
}

// BenchmarkEvalBGPParallel measures a full prepared run whose work is
// one big seed scan (65536 candidate triples). Its one sub-benchmark
// keeps the name "p1" it had beside the deleted morsel-parallel widths,
// so CI's alloc and bytes pin on it keeps its history. RunSolutions
// keeps rows in id space so the benchmark measures evaluation, not
// decoding.
func BenchmarkEvalBGPParallel(b *testing.B) {
	g := joinTestGraph(1 << 16)
	g.Encoded()
	g.Stats()
	prep, err := Prepare(`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("p1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := prep.RunSolutions(ctx, g)
			if err != nil {
				b.Fatal(err)
			}
			if sol.Len() != 1<<16 {
				b.Fatalf("scan produced %d rows", sol.Len())
			}
		}
	})
}

// BenchmarkEvalSampledTracing measures what arming a trace costs a
// full prepared run — the price the server pays on the one-in-N
// sampled requests of the workload observatory. "untraced" is the
// disarmed fast path (one nil check per operator, same run the
// BenchmarkEvalBGPParallel/p1 alloc guard pins); "traced" carries a
// live span tree. The gap is the sampling budget CI watches.
func BenchmarkEvalSampledTracing(b *testing.B) {
	g := joinTestGraph(1 << 16)
	g.Encoded()
	g.Stats()
	prep, err := Prepare(`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := prep.RunSolutions(ctx, g, WithParallelism(1))
			if err != nil {
				b.Fatal(err)
			}
			if sol.Len() != 1<<16 {
				b.Fatalf("scan produced %d rows", sol.Len())
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := obs.New("query")
			sol, err := prep.RunSolutions(ctx, g, WithParallelism(1), WithTrace(tr))
			if err != nil {
				b.Fatal(err)
			}
			tr.Finish()
			if sol.Len() != 1<<16 {
				b.Fatalf("scan produced %d rows", sol.Len())
			}
		}
	})
}

// BenchmarkEvalTopK compares ORDER BY+LIMIT under the bounded top-K
// heap against the full stable sort it replaces (reachable by passing
// topK = -1). 16384 rows, K = 13.
func BenchmarkEvalTopK(b *testing.B) {
	g := joinTestGraph(1 << 14)
	q := MustParse(`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } ORDER BY DESC(?n) LIMIT 13`)
	env := newEvalEnv(q, g)
	rows, err := env.evalPattern(q.Where)
	if err != nil {
		b.Fatal(err)
	}
	scratch := make([]slotRow, len(rows))
	b.Run("topk-heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, rows)
			if out := env.sortRows(scratch, q.OrderBy, 13); len(out) != 13 {
				b.Fatalf("top-K kept %d rows", len(out))
			}
		}
	})
	b.Run("full-sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, rows)
			if out := env.sortRows(scratch, q.OrderBy, -1); len(out) != len(rows) {
				b.Fatalf("full sort kept %d rows", len(out))
			}
		}
	})
}
