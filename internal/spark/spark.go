// Package spark is a deterministic, in-process simulation of the Apache
// Spark execution model, built so that the RDF query engines surveyed by
// Agathangelos et al. (ICDEW 2018) can be reproduced faithfully without a
// JVM cluster.
//
// The simulation keeps the properties the survey's comparisons depend on:
//
//   - datasets are split into partitions and operated on in parallel;
//   - narrow transformations (map, filter) stay within a partition while
//     wide transformations (partitionBy, join, reduceByKey, groupByKey)
//     move records across a shuffle boundary;
//   - the partitioner is pluggable (hash by default), mirroring Spark's
//     RDD-level control over data placement;
//   - broadcast variables ship a small dataset to every executor once;
//   - every shuffle and broadcast is metered, so engines can be compared
//     by the network traffic they would generate on a real cluster.
//
// A Context plays the role of SparkContext: it owns the cluster
// configuration and the metrics ledger for one logical application.
package spark

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Config describes the simulated cluster.
type Config struct {
	// Parallelism is the default number of partitions for new datasets
	// (spark.default.parallelism).
	Parallelism int
	// Executors is the number of executor processes the cluster would
	// run; broadcast cost is counted once per executor.
	Executors int
	// BroadcastThreshold is the row-count threshold below which the SQL
	// layer prefers a broadcast join over a partitioned join
	// (spark.sql.autoBroadcastJoinThreshold, expressed in rows).
	BroadcastThreshold int
	// MaxConcurrency bounds how many partition tasks run at once. Zero
	// means one goroutine per partition.
	MaxConcurrency int
}

// DefaultConfig returns a small laptop-scale cluster: 4 partitions across
// 2 executors with a 10k-row broadcast threshold.
func DefaultConfig() Config {
	return Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 10000, MaxConcurrency: 8}
}

func (c Config) normalized() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.BroadcastThreshold <= 0 {
		c.BroadcastThreshold = 10000
	}
	return c
}

// Metrics is the ledger of simulated cluster activity. All counters are
// cumulative for the owning Context; use Snapshot and Diff to meter a
// single query.
type Metrics struct {
	Stages           int64 // wide (shuffle) boundaries crossed
	Tasks            int64 // partition tasks executed
	ShuffleRecords   int64 // records written across shuffle boundaries
	ShuffleBytes     int64 // estimated bytes written across shuffles
	BroadcastRecords int64 // records shipped via broadcast (per executor)
	RecordsRead      int64 // records scanned from source datasets
	Supersteps       int64 // vertex-program supersteps (graph engines)
	MessagesSent     int64 // vertex-program messages (graphx, graph engines)
}

// Diff returns m - prev, the activity between two snapshots.
func (m Metrics) Diff(prev Metrics) Metrics {
	return Metrics{
		Stages:           m.Stages - prev.Stages,
		Tasks:            m.Tasks - prev.Tasks,
		ShuffleRecords:   m.ShuffleRecords - prev.ShuffleRecords,
		ShuffleBytes:     m.ShuffleBytes - prev.ShuffleBytes,
		BroadcastRecords: m.BroadcastRecords - prev.BroadcastRecords,
		RecordsRead:      m.RecordsRead - prev.RecordsRead,
		Supersteps:       m.Supersteps - prev.Supersteps,
		MessagesSent:     m.MessagesSent - prev.MessagesSent,
	}
}

func (m Metrics) String() string {
	return fmt.Sprintf("stages=%d tasks=%d shuffleRecords=%d shuffleBytes=%d broadcast=%d read=%d supersteps=%d msgs=%d",
		m.Stages, m.Tasks, m.ShuffleRecords, m.ShuffleBytes, m.BroadcastRecords, m.RecordsRead, m.Supersteps, m.MessagesSent)
}

// Context owns the configuration and metrics of one simulated Spark
// application. It is safe for concurrent use.
type Context struct {
	conf Config

	faultMu     sync.Mutex
	faults      *FaultPlan
	taskRetries atomic.Int64

	stages           atomic.Int64
	tasks            atomic.Int64
	shuffleRecords   atomic.Int64
	shuffleBytes     atomic.Int64
	broadcastRecords atomic.Int64
	recordsRead      atomic.Int64
	supersteps       atomic.Int64
	messagesSent     atomic.Int64
}

// NewContext creates a Context with the given configuration; zero-valued
// fields fall back to DefaultConfig-style values.
func NewContext(conf Config) *Context {
	return &Context{conf: conf.normalized()}
}

// Conf returns the cluster configuration.
func (c *Context) Conf() Config { return c.conf }

// DefaultParallelism returns the default partition count.
func (c *Context) DefaultParallelism() int { return c.conf.Parallelism }

// Snapshot returns the current cumulative metrics.
func (c *Context) Snapshot() Metrics {
	return Metrics{
		Stages:           c.stages.Load(),
		Tasks:            c.tasks.Load(),
		ShuffleRecords:   c.shuffleRecords.Load(),
		ShuffleBytes:     c.shuffleBytes.Load(),
		BroadcastRecords: c.broadcastRecords.Load(),
		RecordsRead:      c.recordsRead.Load(),
		Supersteps:       c.supersteps.Load(),
		MessagesSent:     c.messagesSent.Load(),
	}
}

// AddSupersteps records vertex-program supersteps (the graph engines
// meter their own).
func (c *Context) AddSupersteps(n int) { c.supersteps.Add(int64(n)) }

// AddMessages records vertex-program messages (graphx and S2X).
func (c *Context) AddMessages(n int) { c.messagesSent.Add(int64(n)) }

// AddRead records source records scanned.
func (c *Context) AddRead(n int) { c.recordsRead.Add(int64(n)) }

// addShuffle records one shuffle boundary moving n records of b bytes.
func (c *Context) addShuffle(records, bytes int64) {
	c.stages.Add(1)
	c.shuffleRecords.Add(records)
	c.shuffleBytes.Add(bytes)
}

// addBroadcast records a broadcast of n records to every executor.
func (c *Context) addBroadcast(records int) {
	c.broadcastRecords.Add(int64(records * c.conf.Executors))
}

// runTasks executes task(i) for i in [0,n) on a bounded worker pool and
// counts each invocation as one task.
func (c *Context) runTasks(n int, task func(i int)) {
	if n <= 0 {
		return
	}
	c.tasks.Add(int64(n))
	limit := c.conf.MaxConcurrency
	if limit <= 0 || limit > n {
		limit = n
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, limit)
	var abortOnce sync.Once
	var abort any
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			// Stage aborts (task failure beyond max attempts) surface on
			// the driver goroutine, not inside the worker.
			defer func() {
				if r := recover(); r != nil {
					abortOnce.Do(func() { abort = r })
				}
			}()
			c.runAttempts(func() { task(i) })
		}(i)
	}
	wg.Wait()
	if abort != nil {
		panic(abort)
	}
}

// Broadcast ships value-set data to every executor once, like
// SparkContext.broadcast. The returned handle exposes the data read-only.
type Broadcast[T any] struct {
	data []T
}

// Value returns the broadcast dataset. Callers must not modify it.
func (b *Broadcast[T]) Value() []T { return b.data }

// NewBroadcast registers data as a broadcast variable on ctx and meters
// the per-executor shipping cost.
func NewBroadcast[T any](ctx *Context, data []T) *Broadcast[T] {
	ctx.addBroadcast(len(data))
	return &Broadcast[T]{data: data}
}
