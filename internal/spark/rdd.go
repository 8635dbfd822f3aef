package spark

// RDD is an immutable, partitioned collection of records — the simulated
// counterpart of org.apache.spark.rdd.RDD. Transformations return new
// RDDs; the input is never mutated. Execution is eager but parallel: each
// transformation runs one task per partition on the context's worker
// pool, which keeps the simulation deterministic while still exercising
// concurrent code paths.
type RDD[T any] struct {
	ctx   *Context
	parts [][]T
	// placedBy is the partition count of the HashPartitioner that
	// placed a pair RDD by key, 0 when the placement is unknown.
	// Join-like operations compare it to decide whether a side's
	// shuffle can be skipped.
	placedBy int
}

// Parallelize distributes data across the context's default parallelism,
// like SparkContext.parallelize.
func Parallelize[T any](ctx *Context, data []T) *RDD[T] {
	return ParallelizeN(ctx, data, ctx.DefaultParallelism())
}

// ParallelizeN distributes data across n partitions using round-robin
// chunking (contiguous ranges, like Spark's ParallelCollectionRDD).
func ParallelizeN[T any](ctx *Context, data []T, n int) *RDD[T] {
	if n < 1 {
		n = 1
	}
	parts := make([][]T, n)
	if len(data) > 0 {
		chunk := (len(data) + n - 1) / n
		for i := 0; i < n; i++ {
			lo := i * chunk
			if lo >= len(data) {
				break
			}
			hi := lo + chunk
			if hi > len(data) {
				hi = len(data)
			}
			parts[i] = append([]T(nil), data[lo:hi]...)
		}
	}
	ctx.AddRead(len(data))
	return &RDD[T]{ctx: ctx, parts: parts}
}

// fromParts wraps already-partitioned data without copying.
func fromParts[T any](ctx *Context, parts [][]T) *RDD[T] {
	return &RDD[T]{ctx: ctx, parts: parts}
}

// Partition returns a read-only view of partition i.
func (r *RDD[T]) Partition(i int) []T { return r.parts[i] }

// Count returns the number of records.
func (r *RDD[T]) Count() int {
	total := 0
	for _, p := range r.parts {
		total += len(p)
	}
	return total
}

// Collect gathers all records to the driver in partition order.
func (r *RDD[T]) Collect() []T {
	out := make([]T, 0, r.Count())
	for _, p := range r.parts {
		out = append(out, p...)
	}
	return out
}

// Take returns up to n records in partition order.
func (r *RDD[T]) Take(n int) []T {
	out := make([]T, 0, n)
	for _, p := range r.parts {
		for _, v := range p {
			if len(out) == n {
				return out
			}
			out = append(out, v)
		}
	}
	return out
}

// Filter keeps the records matching pred. Narrow transformation.
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	out := make([][]T, len(r.parts))
	r.ctx.runTasks(len(r.parts), func(i int) {
		var kept []T
		for _, v := range r.parts[i] {
			if pred(v) {
				kept = append(kept, v)
			}
		}
		out[i] = kept
	})
	nr := fromParts(r.ctx, out)
	nr.placedBy = r.placedBy
	return nr
}

// Map applies f to every record. Narrow transformation. It is a free
// function because Go methods cannot introduce new type parameters.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	out := make([][]U, len(r.parts))
	r.ctx.runTasks(len(r.parts), func(i int) {
		mapped := make([]U, len(r.parts[i]))
		for j, v := range r.parts[i] {
			mapped[j] = f(v)
		}
		out[i] = mapped
	})
	return fromParts(r.ctx, out)
}

// MapPartitions transforms each partition wholesale, like
// RDD.mapPartitions. Narrow transformation.
func MapPartitions[T, U any](r *RDD[T], f func(part []T) []U) *RDD[U] {
	out := make([][]U, len(r.parts))
	r.ctx.runTasks(len(r.parts), func(i int) {
		out[i] = f(r.parts[i])
	})
	return fromParts(r.ctx, out)
}

// Union concatenates two RDDs partition-wise (no shuffle), like
// RDD.union.
func (r *RDD[T]) Union(other *RDD[T]) *RDD[T] {
	parts := make([][]T, 0, len(r.parts)+len(other.parts))
	parts = append(parts, r.parts...)
	parts = append(parts, other.parts...)
	return fromParts(r.ctx, parts)
}

// scatterBuckets is the map side of the shuffle: one task per source
// partition places each record into one of m destination buckets.
// Returns the per-source bucket matrix (indexed [source][destination])
// and the record count. Consumers that need plain merged partitions go
// through scatterMerge; consumers that aggregate (GroupByKey's
// reduce-side fold) read the buckets directly and never materialize the
// merged intermediate.
func scatterBuckets[T any](ctx *Context, parts [][]T, m int, place func(T) int) ([][][]T, int) {
	buckets := make([][][]T, len(parts))
	ctx.runTasks(len(parts), func(i int) {
		local := make([][]T, m)
		for _, v := range parts[i] {
			idx := place(v)
			local[idx] = append(local[idx], v)
		}
		buckets[i] = local
	})
	total := 0
	for src := range buckets {
		for _, bucket := range buckets[src] {
			total += len(bucket)
		}
	}
	return buckets, total
}

// scatterMerge is PartitionBy's shuffle mechanic: scatterBuckets on
// the map side, then one task per destination merges its buckets in
// source order (keeping placement deterministic). Returns the merged
// partitions and the record count.
func scatterMerge[T any](ctx *Context, parts [][]T, m int, place func(T) int) ([][]T, int) {
	buckets, total := scatterBuckets(ctx, parts, m, place)
	out := make([][]T, m)
	ctx.runTasks(m, func(dst int) {
		size := 0
		for src := range buckets {
			size += len(buckets[src][dst])
		}
		if size == 0 {
			return
		}
		merged := make([]T, 0, size)
		for src := range buckets {
			merged = append(merged, buckets[src][dst]...)
		}
		out[dst] = merged
	})
	return out, total
}

// Cartesian returns the cross product of two RDDs, like RDD.cartesian.
// The right side is broadcast to every left partition, which is how the
// survey's hybrid study models the (inefficient) Cartesian fallback.
func Cartesian[T, U any](a *RDD[T], b *RDD[U]) *RDD[Tuple2[T, U]] {
	right := b.Collect()
	a.ctx.addBroadcast(len(right))
	out := make([][]Tuple2[T, U], len(a.parts))
	a.ctx.runTasks(len(a.parts), func(i int) {
		var prod []Tuple2[T, U]
		for _, x := range a.parts[i] {
			for _, y := range right {
				prod = append(prod, Tuple2[T, U]{x, y})
			}
		}
		out[i] = prod
	})
	return fromParts(a.ctx, out)
}
