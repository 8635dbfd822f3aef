package sparql

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Fault tolerance for the sharded executor (dist.go). The surveyed
// Spark-based systems inherit lineage-based retry from the platform;
// the native engine reproduces that contract in-process: every shard
// may carry R replica views (ShardSet.Replicas) that encode the same
// triples in the same order through the shared dictionary, so any
// replica yields byte-identical scans and a per-shard op can fail over
// between replicas without changing one row of output. A query fails —
// with a typed PartialFailureError — only when every replica of a
// needed shard is down for retry-budget-many consecutive passes.

// PartialFailureError reports the shards for which every replica
// failed: the only condition under which a sharded run gives up.
type PartialFailureError struct {
	// Shards lists the lost shard indexes, ascending.
	Shards []int
}

func (e *PartialFailureError) Error() string {
	return fmt.Sprintf("sparql: all replicas failed for shard(s) %v", e.Shards)
}

// PanicError wraps a panic recovered inside a per-shard op after its
// retry budget was exhausted. The panic cancels the query, never the
// process.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sparql: recovered panic in executor: %v", e.Value)
}

// RetryPolicy bounds the fault handling of one sharded run. Within one
// pass over a shard's replicas failover is immediate; between passes
// the run backs off exponentially from BaseBackoff, capped at
// MaxBackoff and charged against the context's remaining deadline
// budget. Zero fields take the defaults (3 cycles, 2ms base, 50ms cap).
type RetryPolicy struct {
	// Cycles is the number of full passes over a shard's replica set
	// before the op gives up with a PartialFailureError.
	Cycles int
	// BaseBackoff is the sleep before the second pass; it doubles each
	// further pass.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-pass sleep.
	MaxBackoff time.Duration
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.Cycles <= 0 {
		rp.Cycles = 3
	}
	if rp.BaseBackoff <= 0 {
		rp.BaseBackoff = 2 * time.Millisecond
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = 50 * time.Millisecond
	}
	return rp
}

// backoffFor returns the sleep before pass cycle+1 (cycle >= 1).
func (rp RetryPolicy) backoffFor(cycle int) time.Duration {
	shift := cycle - 1
	if shift > 16 { // the cap dominates long before 2^16
		shift = 16
	}
	d := rp.BaseBackoff << shift
	if d > rp.MaxBackoff || d <= 0 {
		d = rp.MaxBackoff
	}
	return d
}

// WithRetryPolicy overrides the run's shard-op retry policy.
func WithRetryPolicy(rp RetryPolicy) RunOption {
	return func(o *runOpts) { o.retry = rp }
}

// FaultStats reports how one run's fault handling executed. Request it
// with WithFaultStats; a clean run reports zeros except Attempts.
type FaultStats struct {
	// Attempts counts per-shard-op replica attempts (sharded runs).
	Attempts int64
	// Retries counts failed replica attempts that were re-run.
	Retries int64
	// Failovers counts attempts routed to a different replica after the
	// previous replica failed.
	Failovers int64
	// RecoveredPanics counts panics recovered inside the engine.
	RecoveredPanics int64
	// Hedges counts hedged replica attempts launched after the hedge
	// delay elapsed without the primary answering (WithHedge).
	Hedges int64
	// HedgeWins counts hedged attempts whose result was committed —
	// the hedge beat the primary.
	HedgeWins int64
}

// WithFaultStats makes the run fill fs with its fault counters just
// before returning (error returns included).
func WithFaultStats(fs *FaultStats) RunOption {
	return func(o *runOpts) { o.faultStats = fs }
}

// faultTally accumulates one run's fault counters across shard workers.
// The root environment embeds the value and every worker shares it
// through the evalEnv.ftally pointer.
type faultTally struct {
	attempts  atomic.Int64
	retries   atomic.Int64
	failovers atomic.Int64
	panics    atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
}

// mergeShardErrors folds per-worker shard-op errors into the run error:
// PartialFailureErrors from different shards merge into one naming all
// lost shards; any other error (cancellation, a budget abort) wins
// outright.
func mergeShardErrors(workers []*evalEnv) error {
	var firstErr error
	var partial *PartialFailureError
	for _, w := range workers {
		if w.err == nil {
			continue
		}
		if pf, ok := w.err.(*PartialFailureError); ok {
			if partial == nil {
				partial = &PartialFailureError{}
			}
			partial.Shards = append(partial.Shards, pf.Shards...)
			continue
		}
		if firstErr == nil {
			firstErr = w.err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if partial != nil {
		sort.Ints(partial.Shards)
		return partial
	}
	return nil
}
