package spark

import (
	"fmt"
	"reflect"
	"testing"
)

// CombineByKey with a combiner type different from the value type: a
// running (sum, count) average.
func TestCombineByKeySemantics(t *testing.T) {
	ctx := testCtx()
	data := []Pair[string, int]{{"a", 2}, {"b", 10}, {"a", 4}, {"a", 6}, {"b", 20}}
	type sc struct {
		sum, n int
	}
	combined := CombineByKey(Parallelize(ctx, data),
		func(v int) sc { return sc{v, 1} },
		func(c sc, v int) sc { return sc{c.sum + v, c.n + 1} },
		func(a, b sc) sc { return sc{a.sum + b.sum, a.n + b.n} })
	got := map[string]sc{}
	for _, p := range combined.Collect() {
		got[p.Key] = p.Value
	}
	want := map[string]sc{"a": {12, 3}, "b": {30, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CombineByKey = %v, want %v", got, want)
	}
	if combined.placedBy == 0 {
		t.Fatal("CombineByKey result must be key-partitioned")
	}
}

// twoPassReduceByKey is the pre-combiner-scatter reduceByKey algorithm,
// reimplemented over the public API: map-side combine per source
// partition in record order, scatter the combined records (placement
// per the hash partitioner, merged in source order), then reduce each
// destination in first-seen key order. The combiner-aware scatter must
// reproduce its per-partition key order exactly.
func twoPassReduceByKey(r *RDD[Pair[string, int]], f func(a, b int) int) [][]Pair[string, int] {
	n := len(r.parts)
	combined := make([][]Pair[string, int], n)
	for i := 0; i < n; i++ {
		m := map[string]int{}
		var order []string
		for _, rec := range r.Partition(i) {
			if cur, ok := m[rec.Key]; ok {
				m[rec.Key] = f(cur, rec.Value)
			} else {
				m[rec.Key] = rec.Value
				order = append(order, rec.Key)
			}
		}
		for _, k := range order {
			combined[i] = append(combined[i], Pair[string, int]{k, m[k]})
		}
	}
	p := NewHashPartitioner[string](n)
	out := make([][]Pair[string, int], n)
	for dst := 0; dst < n; dst++ {
		m := map[string]int{}
		var order []string
		for src := 0; src < n; src++ {
			for _, rec := range combined[src] {
				if p.Partition(rec.Key) != dst {
					continue
				}
				if cur, ok := m[rec.Key]; ok {
					m[rec.Key] = f(cur, rec.Value)
				} else {
					m[rec.Key] = rec.Value
					order = append(order, rec.Key)
				}
			}
		}
		for _, k := range order {
			out[dst] = append(out[dst], Pair[string, int]{k, m[k]})
		}
	}
	return out
}

// The combiner-aware scatter must be deterministic and keep the exact
// per-partition key order of the old two-pass reduceByKey, so results
// and placement are bit-compatible across the rewrite.
func TestCombineByKeyKeyOrderMatchesTwoPass(t *testing.T) {
	ctx := testCtx()
	data := make([]Pair[string, int], 400)
	for i := range data {
		data[i] = Pair[string, int]{fmt.Sprintf("key-%d", (i*13)%37), i}
	}
	r := ParallelizeN(ctx, data, 4)
	add := func(a, b int) int { return a + b }
	got := ReduceByKey(r, add)
	want := twoPassReduceByKey(r, add)
	if len(got.parts) != len(want) {
		t.Fatalf("partitions = %d, want %d", len(got.parts), len(want))
	}
	for i := range want {
		g := got.Partition(i)
		if len(g) == 0 && len(want[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]Pair[string, int]{}, g...), want[i]) {
			t.Fatalf("partition %d order diverged:\n got %v\nwant %v", i, g, want[i])
		}
	}
}

// The intermediate-RDD pass is gone: only combined records cross the
// shuffle, so shuffle records are bounded by distinct keys per source
// partition — never the raw record count.
func TestReduceByKeySpillFreeShuffle(t *testing.T) {
	ctx := testCtx()
	const records, keys = 10000, 100
	data := make([]Pair[int, int], records)
	for i := range data {
		data[i] = Pair[int, int]{i % keys, i}
	}
	r := Parallelize(ctx, data)
	before := ctx.Snapshot()
	sums := ReduceByKey(r, func(a, b int) int { return a + b })
	d := ctx.Snapshot().Diff(before)
	limit := int64(keys * len(r.parts))
	if d.ShuffleRecords == 0 || d.ShuffleRecords > limit {
		t.Fatalf("shuffle records = %d, want in (0, %d] (distinct keys per source partition)", d.ShuffleRecords, limit)
	}
	if d.Stages != 1 {
		t.Fatalf("stages = %d, want 1 (single combiner-scatter shuffle)", d.Stages)
	}
	if d.ShuffleBytes <= 0 {
		t.Fatalf("shuffle bytes = %d, want > 0", d.ShuffleBytes)
	}
	if got := sums.Count(); got != keys {
		t.Fatalf("result keys = %d, want %d", got, keys)
	}
}

// A side already hash-partitioned with the matching partition count
// must fold in place: reduceByKey over co-partitioned data performs no
// shuffle (Spark's known-partitioner optimization), so it can never
// meter as more expensive than groupByKey on the same input.
func TestReduceByKeyCoPartitionedSkipsShuffle(t *testing.T) {
	ctx := testCtx()
	data := make([]Pair[int, int], 500)
	for i := range data {
		data[i] = Pair[int, int]{i % 20, i}
	}
	placed := PartitionBy(Parallelize(ctx, data), NewHashPartitioner[int](4))
	before := ctx.Snapshot()
	sums := ReduceByKey(placed, func(a, b int) int { return a + b })
	d := ctx.Snapshot().Diff(before)
	if d.ShuffleRecords != 0 || d.Stages != 0 {
		t.Fatalf("co-partitioned reduceByKey shuffled %d records over %d stages, want 0/0", d.ShuffleRecords, d.Stages)
	}
	want := map[int]int{}
	for _, rec := range data {
		want[rec.Key] += rec.Value
	}
	got := map[int]int{}
	for _, p := range sums.Collect() {
		got[p.Key] = p.Value
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("co-partitioned reduceByKey = %v, want %v", got, want)
	}
	if sums.placedBy == 0 {
		t.Fatal("result must stay key-partitioned")
	}
}

// GroupByKey keeps its contract: no map-side combine, so the full raw
// dataset crosses the shuffle — and a side that is already
// key-partitioned skips the shuffle entirely.
func TestGroupByKeyShuffleContract(t *testing.T) {
	ctx := testCtx()
	data := make([]Pair[int, int], 1000)
	for i := range data {
		data[i] = Pair[int, int]{i % 10, i}
	}
	r := Parallelize(ctx, data)
	before := ctx.Snapshot()
	grouped := GroupByKey(r)
	d := ctx.Snapshot().Diff(before)
	if d.ShuffleRecords != int64(len(data)) {
		t.Fatalf("groupByKey shuffled %d records, want %d (no map-side combine)", d.ShuffleRecords, len(data))
	}
	total := 0
	for _, p := range grouped.Collect() {
		total += len(p.Value)
	}
	if total != len(data) {
		t.Fatalf("grouped %d values, want %d", total, len(data))
	}

	placed := PartitionBy(r, NewHashPartitioner[int](4))
	before = ctx.Snapshot()
	regrouped := GroupByKey(placed)
	d = ctx.Snapshot().Diff(before)
	if d.ShuffleRecords != 0 {
		t.Fatalf("key-partitioned groupByKey shuffled %d records, want 0", d.ShuffleRecords)
	}
	if got := regrouped.Collect(); len(got) != 10 {
		t.Fatalf("regrouped keys = %d, want 10", len(got))
	}
}
