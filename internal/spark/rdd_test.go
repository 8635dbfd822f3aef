package spark

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func testCtx() *Context {
	return NewContext(Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 100, MaxConcurrency: 4})
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeRoundTrip(t *testing.T) {
	ctx := testCtx()
	data := ints(17)
	r := Parallelize(ctx, data)
	if got := r.Collect(); !reflect.DeepEqual(got, data) {
		t.Fatalf("Collect = %v, want %v", got, data)
	}
	if r.Count() != 17 {
		t.Fatalf("Count = %d, want 17", r.Count())
	}
	if len(r.parts) != 4 {
		t.Fatalf("partitions = %d, want 4", len(r.parts))
	}
}

func TestParallelizeEmptyAndSingle(t *testing.T) {
	ctx := testCtx()
	if got := Parallelize(ctx, []int{}).Count(); got != 0 {
		t.Fatalf("empty Count = %d", got)
	}
	if got := ParallelizeN(ctx, []int{42}, 8).Collect(); !reflect.DeepEqual(got, []int{42}) {
		t.Fatalf("single = %v", got)
	}
	if got := len(ParallelizeN(ctx, ints(3), 0).parts); got != 1 {
		t.Fatalf("n=0 partitions = %d, want 1", got)
	}
}

func TestMapFilter(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, ints(10))
	doubled := Map(r, func(v int) int { return v * 2 })
	if got := doubled.Collect()[9]; got != 18 {
		t.Fatalf("Map last = %d, want 18", got)
	}
	even := r.Filter(func(v int) bool { return v%2 == 0 })
	if got := even.Count(); got != 5 {
		t.Fatalf("Filter count = %d, want 5", got)
	}
}

func TestRDDImmutability(t *testing.T) {
	ctx := testCtx()
	data := ints(8)
	r := Parallelize(ctx, data)
	_ = Map(r, func(v int) int { return v + 100 })
	_ = r.Filter(func(v int) bool { return v > 3 })
	if got := r.Collect(); !reflect.DeepEqual(got, ints(8)) {
		t.Fatalf("source RDD mutated: %v", got)
	}
	// Mutating the caller's slice must not affect the RDD.
	data[0] = 999
	if got := r.Collect()[0]; got != 0 {
		t.Fatalf("RDD shares caller storage: got %d", got)
	}
}

func TestUnionAndTake(t *testing.T) {
	ctx := testCtx()
	a := Parallelize(ctx, []int{1, 2})
	b := Parallelize(ctx, []int{3, 4})
	u := a.Union(b)
	if got := u.Count(); got != 4 {
		t.Fatalf("Union count = %d", got)
	}
	if got := u.Take(3); len(got) != 3 {
		t.Fatalf("Take(3) = %v", got)
	}
	if got := u.Take(99); len(got) != 4 {
		t.Fatalf("Take(99) = %v", got)
	}
}

func TestCartesian(t *testing.T) {
	ctx := testCtx()
	a := Parallelize(ctx, []int{1, 2})
	b := Parallelize(ctx, []string{"x", "y", "z"})
	got := Cartesian(a, b).Count()
	if got != 6 {
		t.Fatalf("Cartesian count = %d, want 6", got)
	}
}

func TestKeyByAndJoin(t *testing.T) {
	ctx := testCtx()
	people := Parallelize(ctx, []string{"ann:1", "bob:2", "cid:1"})
	depts := Parallelize(ctx, []string{"1:eng", "2:sales"})
	key := func(s string) string {
		for i := len(s) - 1; i >= 0; i-- {
			if s[i] == ':' {
				return s[i+1:]
			}
		}
		return s
	}
	left := KeyBy(people, key)
	right := KeyBy(depts, func(s string) string {
		for i := 0; i < len(s); i++ {
			if s[i] == ':' {
				return s[:i]
			}
		}
		return s
	})
	joined := Join(left, right).Collect()
	if len(joined) != 3 {
		t.Fatalf("join size = %d, want 3", len(joined))
	}
	for _, rec := range joined {
		if key(rec.Value.A) != rec.Key {
			t.Fatalf("join key mismatch: %v", rec)
		}
	}
}

func TestJoinEmptySides(t *testing.T) {
	ctx := testCtx()
	empty := Parallelize(ctx, []Pair[int, string]{})
	full := Parallelize(ctx, []Pair[int, string]{{1, "a"}})
	if got := Join(empty, full).Count(); got != 0 {
		t.Fatalf("join with empty left = %d", got)
	}
	if got := Join(full, empty).Count(); got != 0 {
		t.Fatalf("join with empty right = %d", got)
	}
}

func TestBroadcastJoinMatchesPartitionedJoin(t *testing.T) {
	ctx := testCtx()
	large := Parallelize(ctx, []Pair[int, int]{{1, 10}, {2, 20}, {1, 11}, {3, 30}})
	small := Parallelize(ctx, []Pair[int, string]{{1, "one"}, {3, "three"}, {4, "four"}})

	canon := func(ps []Pair[int, Tuple2[int, string]]) []string {
		out := make([]string, 0, len(ps))
		for _, p := range ps {
			out = append(out, string(rune('0'+p.Key))+":"+string(rune('0'+p.Value.A%10))+p.Value.B)
		}
		sort.Strings(out)
		return out
	}
	pj := canon(Join(large, small).Collect())
	bj := canon(BroadcastJoin(large, small).Collect())
	if !reflect.DeepEqual(pj, bj) {
		t.Fatalf("broadcast join %v != partitioned join %v", bj, pj)
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := testCtx()
	r := Parallelize(ctx, []Pair[string, int]{{"a", 1}, {"a", 2}, {"b", 3}})
	got := GroupByKey(r).Collect()
	m := map[string][]int{}
	for _, p := range got {
		vs := append([]int(nil), p.Value...)
		sort.Ints(vs)
		m[p.Key] = vs
	}
	if !reflect.DeepEqual(m["a"], []int{1, 2}) || !reflect.DeepEqual(m["b"], []int{3}) {
		t.Fatalf("GroupByKey = %v", m)
	}
}

func TestPartitionByPlacesKeysDeterministically(t *testing.T) {
	ctx := testCtx()
	data := make([]Pair[string, int], 0, 100)
	for i := 0; i < 100; i++ {
		data = append(data, Pair[string, int]{Key: string(rune('a' + i%26)), Value: i})
	}
	p := NewHashPartitioner[string](5)
	r1 := PartitionBy(Parallelize(ctx, data), p)
	r2 := PartitionBy(Parallelize(ctx, data), p)
	for i := 0; i < 5; i++ {
		if !reflect.DeepEqual(r1.Partition(i), r2.Partition(i)) {
			t.Fatalf("partitioning not deterministic at %d", i)
		}
	}
	// Every record must sit on the partition its key hashes to.
	for i := 0; i < 5; i++ {
		for _, rec := range r1.Partition(i) {
			if p.Partition(rec.Key) != i {
				t.Fatalf("record %v on wrong partition %d", rec, i)
			}
		}
	}
	if r1.placedBy == 0 {
		t.Fatal("PartitionBy must mark RDD as key-partitioned")
	}
}

func TestShuffleMetering(t *testing.T) {
	ctx := testCtx()
	data := make([]Pair[int, int], 1000)
	for i := range data {
		data[i] = Pair[int, int]{i, i}
	}
	r := Parallelize(ctx, data)
	before := ctx.Snapshot()
	_ = PartitionBy(r, NewHashPartitioner[int](4))
	d := ctx.Snapshot().Diff(before)
	if d.ShuffleRecords != 1000 {
		t.Fatalf("shuffle records = %d, want 1000", d.ShuffleRecords)
	}
	if d.Stages != 1 {
		t.Fatalf("stages = %d, want 1", d.Stages)
	}
	if d.ShuffleBytes <= 0 {
		t.Fatalf("shuffle bytes = %d, want > 0", d.ShuffleBytes)
	}
}

func TestBroadcastJoinAvoidsShuffle(t *testing.T) {
	ctx := testCtx()
	large := make([]Pair[int, int], 5000)
	for i := range large {
		large[i] = Pair[int, int]{i % 50, i}
	}
	small := make([]Pair[int, string], 10)
	for i := range small {
		small[i] = Pair[int, string]{i, "v"}
	}
	lr := Parallelize(ctx, large)
	sr := Parallelize(ctx, small)

	before := ctx.Snapshot()
	_ = BroadcastJoin(lr, sr)
	d := ctx.Snapshot().Diff(before)
	if d.ShuffleRecords != 0 {
		t.Fatalf("broadcast join shuffled %d records", d.ShuffleRecords)
	}
	if d.BroadcastRecords != int64(10*ctx.Conf().Executors) {
		t.Fatalf("broadcast records = %d", d.BroadcastRecords)
	}

	before = ctx.Snapshot()
	_ = Join(lr, sr)
	d = ctx.Snapshot().Diff(before)
	if d.ShuffleRecords == 0 {
		t.Fatal("partitioned join must shuffle")
	}
}

func TestCoPartitionedJoinSkipsShuffle(t *testing.T) {
	ctx := testCtx()
	mk := func(n int) []Pair[int, int] {
		out := make([]Pair[int, int], n)
		for i := range out {
			out[i] = Pair[int, int]{i % 9, i}
		}
		return out
	}
	p := NewHashPartitioner[int](4)
	a := PartitionBy(ParallelizeN(ctx, mk(100), 4), p)
	b := PartitionBy(ParallelizeN(ctx, mk(40), 4), p)
	before := ctx.Snapshot()
	_ = Join(a, b)
	d := ctx.Snapshot().Diff(before)
	if d.ShuffleRecords != 0 {
		t.Fatalf("co-partitioned join shuffled %d records, want 0", d.ShuffleRecords)
	}
}

func TestHashPartitionerProperties(t *testing.T) {
	// Property: partition index always in range, and stable.
	f := func(keys []string, n uint8) bool {
		parts := int(n%16) + 1
		p := NewHashPartitioner[string](parts)
		for _, k := range keys {
			i := p.Partition(k)
			if i < 0 || i >= parts {
				return false
			}
			if i != p.Partition(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceByKeyMatchesSequential(t *testing.T) {
	// Property: distributed sum-by-key equals a plain map fold.
	f := func(keys []uint8, vals []int16) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		data := make([]Pair[uint8, int], 0, n)
		want := map[uint8]int{}
		for i := 0; i < n; i++ {
			data = append(data, Pair[uint8, int]{keys[i], int(vals[i])})
			want[keys[i]] += int(vals[i])
		}
		ctx := testCtx()
		got := map[uint8]int{}
		for _, p := range ReduceByKey(Parallelize(ctx, data), func(a, b int) int { return a + b }).Collect() {
			got[p.Key] = p.Value
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	// Property: the partitioned join equals a reference nested-loop join.
	f := func(lk, rk []uint8) bool {
		left := make([]Pair[uint8, int], len(lk))
		for i, k := range lk {
			left[i] = Pair[uint8, int]{k, i}
		}
		right := make([]Pair[uint8, int], len(rk))
		for i, k := range rk {
			right[i] = Pair[uint8, int]{k, i + 1000}
		}
		want := map[[3]int]int{}
		for _, l := range left {
			for _, r := range right {
				if l.Key == r.Key {
					want[[3]int{int(l.Key), l.Value, r.Value}]++
				}
			}
		}
		ctx := testCtx()
		got := map[[3]int]int{}
		joined := Join(Parallelize(ctx, left), Parallelize(ctx, right))
		for _, p := range joined.Collect() {
			got[[3]int{int(p.Key), p.Value.A, p.Value.B}]++
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastVariable(t *testing.T) {
	ctx := testCtx()
	b := NewBroadcast(ctx, []int{1, 2, 3})
	if len(b.Value()) != 3 {
		t.Fatalf("broadcast value = %v", b.Value())
	}
	if got := ctx.Snapshot().BroadcastRecords; got != int64(3*ctx.Conf().Executors) {
		t.Fatalf("broadcast records = %d", got)
	}
}

func TestMapPartitions(t *testing.T) {
	ctx := testCtx()
	r := ParallelizeN(ctx, ints(10), 2)
	sums := MapPartitions(r, func(part []int) []int {
		s := 0
		for _, v := range part {
			s += v
		}
		return []int{s}
	})
	total := 0
	for _, v := range sums.Collect() {
		total += v
	}
	if total != 45 {
		t.Fatalf("partition sums total = %d, want 45", total)
	}
	if len(sums.parts) != 2 {
		t.Fatalf("partitions = %d", len(sums.parts))
	}
}

func TestFaultInjectionPreservesResults(t *testing.T) {
	data := make([]Pair[int, int], 500)
	for i := range data {
		data[i] = Pair[int, int]{i % 20, i}
	}
	compute := func(ctx *Context) map[int]int {
		r := Parallelize(ctx, data)
		sums := ReduceByKey(r, func(a, b int) int { return a + b })
		out := map[int]int{}
		for _, p := range sums.Collect() {
			out[p.Key] = p.Value
		}
		return out
	}
	clean := compute(testCtx())

	faulty := testCtx()
	faulty.InjectFaults(NewFaultPlan(0.3, 42))
	got := compute(faulty)
	if !reflect.DeepEqual(got, clean) {
		t.Fatalf("results changed under fault injection:\n%v\n%v", got, clean)
	}
	if faulty.TaskRetries() == 0 {
		t.Fatal("no retries recorded at 30% failure rate")
	}
}

func TestFaultInjectionStageAbort(t *testing.T) {
	ctx := testCtx()
	// Failure rate 1.0: every attempt fails, so the stage must abort.
	ctx.InjectFaults(NewFaultPlan(1.0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected stage abort panic")
		}
	}()
	_ = Map(Parallelize(ctx, ints(10)), func(v int) int { return v })
}

func TestFaultPlanDeterministic(t *testing.T) {
	run := func() int64 {
		ctx := testCtx()
		ctx.InjectFaults(NewFaultPlan(0.5, 99))
		_ = Map(Parallelize(ctx, ints(200)), func(v int) int { return v + 1 })
		return ctx.TaskRetries()
	}
	if run() != run() {
		t.Fatal("fault plan not deterministic for equal seeds")
	}
}

func TestPartitionByNoDriverMaterialization(t *testing.T) {
	// PartitionBy must not re-read the dataset: RecordsRead stays flat
	// across the shuffle (the old implementation collected the whole
	// RDD to the driver to size-sample it).
	ctx := testCtx()
	r := Parallelize(ctx, benchPairs(1000))
	before := ctx.Snapshot()
	_ = PartitionBy(r, NewHashPartitioner[string](4))
	d := ctx.Snapshot().Diff(before)
	if d.RecordsRead != 0 {
		t.Fatalf("PartitionBy read %d records from source", d.RecordsRead)
	}
	if d.ShuffleRecords != 1000 || d.ShuffleBytes <= 0 {
		t.Fatalf("shuffle metering = %d records / %d bytes", d.ShuffleRecords, d.ShuffleBytes)
	}
}

func TestJoinMixedPartitionersStillCorrect(t *testing.T) {
	// A side hash-placed at another partition count co-locates keys
	// within itself but at different indexes than the join's
	// partitioner; the shuffle-skip must not fire for it, or matching
	// keys meet on different partitions and the join drops them. The
	// side placed at the join's count keeps its placement.
	ctx := testCtx()
	mk := func(n int) []Pair[int, int] {
		out := make([]Pair[int, int], n)
		for i := range out {
			out[i] = Pair[int, int]{i % 8, i}
		}
		return out
	}
	a := PartitionBy(ParallelizeN(ctx, mk(64), 3), NewHashPartitioner[int](3))
	b := PartitionBy(ParallelizeN(ctx, mk(32), 4), NewHashPartitioner[int](4))
	before := ctx.Snapshot()
	joined := Join(a, b)
	if d := ctx.Snapshot().Diff(before); d.ShuffleRecords != 64 {
		t.Fatalf("the join shuffled %d records, want the 64 of the side placed at 3 partitions", d.ShuffleRecords)
	}
	perKey := map[int]int{}
	for _, rec := range joined.Collect() {
		perKey[rec.Key]++
	}
	if len(perKey) != 8 {
		t.Fatalf("join keys = %d, want 8", len(perKey))
	}
	for k, n := range perKey {
		if n != 8*4 {
			t.Fatalf("key %d joined %d pairs, want 32", k, n)
		}
	}
}
