package spark

// Micro-benchmarks for the shuffle hot path. The survey compares
// engines by the shuffle work their plans generate, so PartitionBy /
// Join / ReduceByKey sit under every macro-benchmark in the repo root;
// these track their cost (and allocation behavior) in isolation,
// PR-over-PR. Run with
//
//	go test ./internal/spark -bench=. -benchmem

import (
	"fmt"
	"testing"
)

func benchPairs(n int) []Pair[string, int] {
	out := make([]Pair[string, int], n)
	for i := range out {
		out[i] = Pair[string, int]{Key: fmt.Sprintf("key-%d", i%257), Value: i}
	}
	return out
}

func BenchmarkPartitionBy(b *testing.B) {
	ctx := NewContext(Config{Parallelism: 4, Executors: 2, MaxConcurrency: 8})
	r := Parallelize(ctx, benchPairs(10000))
	p := NewHashPartitioner[string](4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PartitionBy(r, p)
	}
}

func BenchmarkJoinCoPartitioned(b *testing.B) {
	ctx := NewContext(Config{Parallelism: 4, Executors: 2, MaxConcurrency: 8})
	p := NewHashPartitioner[string](4)
	left := PartitionBy(Parallelize(ctx, benchPairs(5000)), p)
	right := PartitionBy(Parallelize(ctx, benchPairs(1000)), p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Join(left, right)
	}
}

// BenchmarkReduceByKey tracks the combiner-aware scatter: values fold
// into per-destination combiner maps while being placed, so the only
// records crossing the shuffle are the combined ones (reported as
// shuffleRec/op, bounded by distinct keys per source partition) and the
// old intermediate pre-combined RDD plus its second reduce pass are
// gone.
func BenchmarkReduceByKey(b *testing.B) {
	ctx := NewContext(Config{Parallelism: 4, Executors: 2, MaxConcurrency: 8})
	r := Parallelize(ctx, benchPairs(10000))
	b.ReportAllocs()
	before := ctx.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ReduceByKey(r, func(a, b int) int { return a + b })
	}
	d := ctx.Snapshot().Diff(before)
	b.ReportMetric(float64(d.ShuffleRecords)/float64(b.N), "shuffleRec/op")
}
