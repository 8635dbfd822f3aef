package spark

// Pair is a key/value record, the element type of Spark's pair RDDs.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KeyBy turns each record into a (key(v), v) pair, like RDD.keyBy. The
// SPARQLGX engine uses this to join triple-pattern results on their
// shared variable.
func KeyBy[T any, K comparable](r *RDD[T], key func(T) K) *RDD[Pair[K, T]] {
	return Map(r, func(v T) Pair[K, T] { return Pair[K, T]{key(v), v} })
}

// Values projects the values of a pair RDD.
func Values[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[V] {
	return Map(r, func(p Pair[K, V]) V { return p.Value })
}

// MapValues transforms values while keeping keys (and any existing key
// partitioning) intact.
func MapValues[K comparable, V, W any](r *RDD[Pair[K, V]], f func(V) W) *RDD[Pair[K, W]] {
	out := Map(r, func(p Pair[K, V]) Pair[K, W] { return Pair[K, W]{p.Key, f(p.Value)} })
	out.placedBy = r.placedBy
	return out
}

// PartitionBy redistributes a pair RDD so every record lands on the
// partition chosen by p. This is the fundamental wide transformation:
// the whole dataset crosses a shuffle boundary and is metered as such.
// The scatter runs one map-side task per source partition in parallel,
// each writing per-destination buckets that are merged (in source
// order, so the placement is deterministic) at the end; the byte
// estimate samples boundary partitions instead of collecting the
// dataset to the driver.
func PartitionBy[K comparable, V any](r *RDD[Pair[K, V]], p HashPartitioner[K]) *RDD[Pair[K, V]] {
	out, total := scatterMerge(r.ctx, r.parts, p.N, func(rec Pair[K, V]) int { return p.Partition(rec.Key) })
	r.ctx.addShuffle(int64(total), estimateShuffleBytes(r.parts, total))
	res := fromParts(r.ctx, out)
	res.placedBy = p.N
	return res
}

// coPartitionedWith reports whether r is already laid out exactly as
// hash partitioner p would place it, so a join-like operation can skip
// r's shuffle. Hash placement is a pure function of key and partition
// count, so r qualifies exactly when it was hash-placed at p's count;
// a side placed at another count co-locates each key within itself but
// at different indexes.
func coPartitionedWith[K comparable, V any](r *RDD[Pair[K, V]], p HashPartitioner[K]) bool {
	return r.placedBy == p.N
}

// combineBucket is one per-destination combiner map built during the
// scatter of CombineByKey: the fold happens while records are being
// placed, so only combined records ever exist on the reduce side. The
// insertion order is kept so output ordering stays deterministic.
type combineBucket[K comparable, C any] struct {
	m     map[K]C
	order []K
}

// CombineByKey is the general aggregate-by-key operator, like
// PairRDDFunctions.combineByKey: createCombiner seeds a combiner from a
// key's first value, mergeValue folds further values into it map-side,
// and mergeCombiners merges the per-source combiners reduce-side. The
// scatter step is combiner-aware — each source task folds its records
// straight into per-destination combiner maps while placing them, so
// exactly one combined record per (source partition, key) crosses the
// shuffle and combined records are materialized once, at their
// destination. There is no intermediate pre-combined RDD and no second
// full reduce pass, and a side already hash-partitioned with the
// matching partition count folds in place with no shuffle at all.
// Output ordering is deterministic: destinations merge source buckets
// in source order, keys appear in first-seen order.
func CombineByKey[K comparable, V, C any](r *RDD[Pair[K, V]], createCombiner func(V) C, mergeValue func(C, V) C, mergeCombiners func(C, C) C) *RDD[Pair[K, C]] {
	n := len(r.parts)
	if n < 1 {
		n = 1
	}
	p := NewHashPartitioner[K](n)
	// A side already hash-placed like p has every key on its final
	// partition: fold in place, no shuffle — Spark's "known partitioner"
	// optimization, same as Join.
	if coPartitionedWith(r, p) {
		out := make([][]Pair[K, C], len(r.parts))
		r.ctx.runTasks(len(r.parts), func(i int) {
			if len(r.parts[i]) == 0 {
				return
			}
			m := make(map[K]C, len(r.parts[i]))
			order := make([]K, 0, len(r.parts[i]))
			for _, rec := range r.parts[i] {
				if c, ok := m[rec.Key]; ok {
					m[rec.Key] = mergeValue(c, rec.Value)
				} else {
					m[rec.Key] = createCombiner(rec.Value)
					order = append(order, rec.Key)
				}
			}
			part := make([]Pair[K, C], 0, len(order))
			for _, k := range order {
				part = append(part, Pair[K, C]{k, m[k]})
			}
			out[i] = part
		})
		res := fromParts(r.ctx, out)
		res.placedBy = r.placedBy
		return res
	}
	buckets := make([][]combineBucket[K, C], len(r.parts))
	r.ctx.runTasks(len(r.parts), func(i int) {
		local := make([]combineBucket[K, C], n)
		for _, rec := range r.parts[i] {
			b := &local[p.Partition(rec.Key)]
			if b.m == nil {
				b.m = make(map[K]C)
			}
			if c, ok := b.m[rec.Key]; ok {
				b.m[rec.Key] = mergeValue(c, rec.Value)
			} else {
				b.m[rec.Key] = createCombiner(rec.Value)
				b.order = append(b.order, rec.Key)
			}
		}
		buckets[i] = local
	})

	// Meter the shuffle: the records crossing it are the combined ones.
	// Sample a few from the first and last non-empty buckets for the
	// byte estimate (the combined records live only in the combiner
	// maps, so the sampling walks those instead of partitions).
	total := 0
	for _, local := range buckets {
		for _, b := range local {
			total += len(b.order)
		}
	}
	var samples []Pair[K, C]
	sampleFrom := func(b combineBucket[K, C], fromEnd bool) {
		k := len(b.order)
		if k > 3 {
			k = 3
		}
		keys := b.order[:k]
		if fromEnd {
			keys = b.order[len(b.order)-k:]
		}
		for _, key := range keys {
			samples = append(samples, Pair[K, C]{key, b.m[key]})
		}
	}
sampleFirst:
	for _, local := range buckets {
		for _, b := range local {
			if len(b.order) > 0 {
				sampleFrom(b, false)
				break sampleFirst
			}
		}
	}
sampleLast:
	for i := len(buckets) - 1; i >= 0; i-- {
		for j := len(buckets[i]) - 1; j >= 0; j-- {
			if b := buckets[i][j]; len(b.order) > 0 {
				sampleFrom(b, true)
				break sampleLast
			}
		}
	}
	r.ctx.addShuffle(int64(total), estimateBytesFromSamples(samples, total))

	// Reduce side: merge the per-source combiners in source order.
	out := make([][]Pair[K, C], n)
	r.ctx.runTasks(n, func(dst int) {
		size := 0
		for src := range buckets {
			size += len(buckets[src][dst].order)
		}
		if size == 0 {
			return
		}
		part := make([]Pair[K, C], 0, size)
		idx := make(map[K]int32, size)
		for src := range buckets {
			b := buckets[src][dst]
			for _, k := range b.order {
				if j, ok := idx[k]; ok {
					part[j].Value = mergeCombiners(part[j].Value, b.m[k])
				} else {
					idx[k] = int32(len(part))
					part = append(part, Pair[K, C]{k, b.m[k]})
				}
			}
		}
		out[dst] = part
	})
	res := fromParts(r.ctx, out)
	res.placedBy = p.N
	return res
}

// ReduceByKey merges values per key with the associative function f,
// like PairRDDFunctions.reduceByKey. It is CombineByKey with the value
// type as its own combiner: map-side combining happens inside the
// scatter, so only one record per (partition, key) crosses the shuffle
// — the accounting reflects that.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], f func(V, V) V) *RDD[Pair[K, V]] {
	return CombineByKey(r, func(v V) V { return v }, f, f)
}

// GroupByKey collects all values per key, like
// PairRDDFunctions.groupByKey. No map-side combine: the full dataset
// crosses the shuffle, which is exactly why the hybrid study prefers
// reduceByKey. The reduce side folds the scattered buckets straight
// into the grouped output, never materializing merged intermediate
// partitions; a side that is already key-partitioned skips the shuffle
// entirely and groups in place.
func GroupByKey[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[Pair[K, []V]] {
	if r.placedBy > 0 {
		out := make([][]Pair[K, []V], len(r.parts))
		r.ctx.runTasks(len(r.parts), func(i int) {
			if len(r.parts[i]) == 0 {
				return
			}
			idx := make(map[K]int32, len(r.parts[i]))
			out[i] = groupRecords(nil, idx, r.parts[i])
		})
		res := fromParts(r.ctx, out)
		res.placedBy = r.placedBy
		return res
	}
	n := len(r.parts)
	if n < 1 {
		n = 1
	}
	p := NewHashPartitioner[K](n)
	buckets, total := scatterBuckets(r.ctx, r.parts, n, func(rec Pair[K, V]) int { return p.Partition(rec.Key) })
	r.ctx.addShuffle(int64(total), estimateShuffleBytes(r.parts, total))
	out := make([][]Pair[K, []V], n)
	r.ctx.runTasks(n, func(dst int) {
		size := 0
		for src := range buckets {
			size += len(buckets[src][dst])
		}
		if size == 0 {
			return
		}
		var part []Pair[K, []V]
		idx := make(map[K]int32, size)
		for src := range buckets {
			part = groupRecords(part, idx, buckets[src][dst])
		}
		out[dst] = part
	})
	res := fromParts(r.ctx, out)
	res.placedBy = p.N
	return res
}

// groupRecords folds records into the grouped accumulator, keeping keys
// in first-seen order; idx maps each accumulated key to its position
// and is maintained across calls.
func groupRecords[K comparable, V any](part []Pair[K, []V], idx map[K]int32, recs []Pair[K, V]) []Pair[K, []V] {
	for _, rec := range recs {
		if j, ok := idx[rec.Key]; ok {
			part[j].Value = append(part[j].Value, rec.Value)
		} else {
			idx[rec.Key] = int32(len(part))
			part = append(part, Pair[K, []V]{rec.Key, []V{rec.Value}})
		}
	}
	return part
}

// Join computes the inner equi-join of two pair RDDs with a partitioned
// (shuffle hash) join: both sides are co-partitioned by key, then each
// partition is joined locally. Sides already hash-partitioned with the
// matching partition count skip their shuffle (Spark's "known
// partitioner" optimization).
func Join[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]]) *RDD[Pair[K, Tuple2[V, W]]] {
	n := len(a.parts)
	if len(b.parts) > n {
		n = len(b.parts)
	}
	p := NewHashPartitioner[K](n)
	left := a
	if !coPartitionedWith(a, p) {
		left = PartitionBy(a, p)
	}
	right := b
	if !coPartitionedWith(b, p) {
		right = PartitionBy(b, p)
	}
	out := make([][]Pair[K, Tuple2[V, W]], n)
	a.ctx.runTasks(n, func(i int) {
		build := make(map[K][]V)
		for _, rec := range left.parts[i] {
			build[rec.Key] = append(build[rec.Key], rec.Value)
		}
		var joined []Pair[K, Tuple2[V, W]]
		for _, rec := range right.parts[i] {
			for _, v := range build[rec.Key] {
				joined = append(joined, Pair[K, Tuple2[V, W]]{rec.Key, Tuple2[V, W]{v, rec.Value}})
			}
		}
		out[i] = joined
	})
	res := fromParts(a.ctx, out)
	res.placedBy = p.N
	return res
}

// BroadcastJoin joins a large pair RDD against a small one by shipping
// the small side to every executor and probing it locally — no shuffle
// of the large side. This is the broadcast-hash-join strategy the hybrid
// study [21] contrasts with the partitioned join.
func BroadcastJoin[K comparable, V, W any](large *RDD[Pair[K, V]], small *RDD[Pair[K, W]]) *RDD[Pair[K, Tuple2[V, W]]] {
	table := make(map[K][]W)
	rows := small.Collect()
	for _, rec := range rows {
		table[rec.Key] = append(table[rec.Key], rec.Value)
	}
	large.ctx.addBroadcast(len(rows))
	out := make([][]Pair[K, Tuple2[V, W]], len(large.parts))
	large.ctx.runTasks(len(large.parts), func(i int) {
		var joined []Pair[K, Tuple2[V, W]]
		for _, rec := range large.parts[i] {
			for _, w := range table[rec.Key] {
				joined = append(joined, Pair[K, Tuple2[V, W]]{rec.Key, Tuple2[V, W]{rec.Value, w}})
			}
		}
		out[i] = joined
	})
	res := fromParts(large.ctx, out)
	res.placedBy = large.placedBy
	return res
}

// Tuple2 is a plain value pair with no comparability requirement; join
// results carry their two sides in one.
type Tuple2[A, B any] struct {
	A A
	B B
}
