package sparql

import (
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// Morsel-driven intra-query parallelism. A (*Prepared).Run with
// parallelism > 1 splits its two bulk producers — each BGP's
// most-selective seed scan and each id-space hash join's probe side —
// into fixed-size morsels dispatched to a per-Run worker pool. The
// contract that keeps parallel output byte-identical to the serial
// evaluator:
//
//   - Morsels are contiguous subranges of the serial iteration order
//     (candidate triples of the seed scan's index view, probe-side
//     rows of a hash join), split by rdf.MorselBounds.
//   - Each worker owns a private evaluation environment — its own row
//     arena, cancellation tick, and error latch — and shares only the
//     immutable run state (slot table, encoded view, compiled scan,
//     hash table). Rows a worker produces stay valid after the pool is
//     gone; arenas amortize across every morsel a worker runs.
//   - A morsel task is a pure function of that immutable state: it
//     computes into memory it allocates and hands the result back, and
//     the one runner (runMorsels) commits it. So any task can be re-run
//     after a panic or raced against a speculative copy of itself.
//   - Results gather in morsel order: seed scans and probes by the left
//     side concatenate the morsels' buffers (mergeMorsels); probes
//     against a table over the left side interleave the morsels'
//     per-left-row segments (hashTable.interleave). Either way the
//     serial order is reproduced exactly.
//   - Cancellation latches across workers: the first environment to
//     observe ctx.Done() raises parRun.stop, every other worker sees
//     it at its next amortized poll (1/1024 rows), and the dispatcher
//     stops handing out morsels.
//
// The nested-loop fallback (cartesian joins, bindings partial on the
// build key) and every probe below parMinWork stay serial: the serial
// hash join is the same probe body run once, in place, on the driver's
// environment — no pool, no closure — so its allocation pins hold.

const (
	// morselSize is the number of input items (candidate triples of a
	// seed scan, probe-side rows of a hash join) one morsel covers.
	morselSize = 1024
	// parMinWork is the smallest input worth splitting: below two
	// morsels the dispatch overhead outweighs the parallelism.
	parMinWork = 2 * morselSize
)

// parRun is the state one parallel Run shares across its workers: the
// configured width, the cross-worker cancellation latch, and the
// morsel accounting surfaced through RunStats.
type parRun struct {
	n       int         // worker-pool size
	stop    atomic.Bool // latched: some environment observed ctx.Done()
	ops     atomic.Int64
	morsels atomic.Int64
	specK   float64 // > 0: speculative re-execution straggler multiple

	// Failure latch: the first task whose panic retries are exhausted
	// records its error here and raises stop, cancelling the run — the
	// query dies, the process (and the pool's other workers draining
	// their morsels) never does.
	failMu  sync.Mutex
	failErr error
}

// latchFailure records the run-cancelling error of one failed task
// (first writer wins) and raises the stop latch.
func (p *parRun) latchFailure(err error) {
	p.failMu.Lock()
	if p.failErr == nil {
		p.failErr = err
	}
	p.failMu.Unlock()
	p.stop.Store(true)
}

// failure returns the latched task failure, if any.
func (p *parRun) failure() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failErr
}

// RunStats reports how one Run executed. Request it with WithRunStats.
type RunStats struct {
	// Parallelism is the resolved worker-pool width of the run (1 for
	// a serial run).
	Parallelism int
	// ParallelOps counts the scans and probe passes that were actually
	// dispatched as morsels; 0 means the whole run stayed serial.
	ParallelOps int64
	// Morsels counts the morsels dispatched across those operations.
	Morsels int64
	// BytesCharged is the evaluator-owned memory the run charged
	// against its budget (arena chunks, join state, gather buffers);
	// 0 unless the run was armed with WithMemoryBudget.
	BytesCharged int64
}

// runOpts collects the per-Run options.
type runOpts struct {
	parallelism int
	stats       *RunStats

	// Sharded-run options (dist.go): the execution report sink and the
	// route override. Both are ignored by single-graph runs.
	shardStats   *ShardStats
	forceScatter bool

	// Fault-handling options (replica.go): the fault counters sink and
	// the shard-op retry policy (zero value = defaults).
	faultStats *FaultStats
	retry      RetryPolicy

	// Tail-latency options (health.go): hedged shard operations and
	// the speculative-re-execution straggler multiple (0 = off).
	hedge      *HedgePolicy
	specFactor float64

	// Memory-budget option (budget.go): > 0 bounds the run's charged
	// bytes, < 0 arms tracking only, 0 disables accounting.
	memBudget int64

	// Execution-trace option (trace.go): non-nil arms the run to
	// record a span tree under the trace's current span.
	trace *obs.Trace
}

// RunOption tunes one (*Prepared).Run / RunSolutions call.
type RunOption func(*runOpts)

// WithParallelism sets the run's worker-pool width. n <= 0 means
// GOMAXPROCS (the default); 1 forces fully serial evaluation.
func WithParallelism(n int) RunOption {
	return func(o *runOpts) { o.parallelism = n }
}

// WithRunStats makes the run fill s with its execution counters just
// before returning.
func WithRunStats(s *RunStats) RunOption {
	return func(o *runOpts) { o.stats = s }
}

func resolveRunOpts(opts []RunOption) runOpts {
	var o runOpts
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	if o.parallelism <= 0 {
		o.parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// configureParallel arms the environment for morsel dispatch and, when
// requested, memory accounting and execution tracing. Width 1 leaves
// env.par nil: every scan and probe runs in place on the driver. No budget
// leaves env.mem nil, no trace leaves env.trace nil: every charge and
// span site costs one nil check.
func (env *evalEnv) configureParallel(o *runOpts) {
	if o.parallelism > 1 {
		env.par = &parRun{n: o.parallelism, specK: o.specFactor}
	}
	if o.memBudget != 0 {
		mb := &memBudget{}
		if o.memBudget > 0 {
			mb.limit = o.memBudget
		}
		env.mem = mb
	}
	if o.trace != nil {
		et := &execTrace{t: o.trace}
		if o.parallelism > 1 {
			et.busy = make([]atomic.Int64, o.parallelism)
		}
		env.trace = et
	}
}

// capture fills the caller's RunStats and FaultStats after the run.
func (o *runOpts) capture(env *evalEnv) {
	if env.trace != nil {
		env.trace.finishRoot(env)
	}
	if o.faultStats != nil && env.ftally != nil {
		t := env.ftally
		*o.faultStats = FaultStats{
			Attempts:        t.attempts.Load(),
			Retries:         t.retries.Load(),
			Failovers:       t.failovers.Load(),
			RecoveredPanics: t.panics.Load(),
			Hedges:          t.hedges.Load(),
			HedgeWins:       t.hedgeWins.Load(),
			Speculations:    t.specs.Load(),
			SpeculationWins: t.specWins.Load(),
		}
	}
	if o.stats == nil {
		return
	}
	*o.stats = RunStats{Parallelism: 1}
	if env.par != nil {
		o.stats.Parallelism = env.par.n
		o.stats.ParallelOps = env.par.ops.Load()
		o.stats.Morsels = env.par.morsels.Load()
	}
	if env.mem != nil {
		o.stats.BytesCharged = env.mem.used.Load()
	}
}

// canParallel reports whether a bulk operation over n input items
// should be split into morsels.
func (env *evalEnv) canParallel(n int) bool {
	return env.par != nil && env.par.n > 1 && n >= parMinWork
}

// workerEnv derives a worker's private environment: fresh arena, tick,
// and error latch over the shared immutable run state.
func (env *evalEnv) workerEnv() *evalEnv {
	return &evalEnv{
		g:     env.g,
		view:  env.view,
		terms: env.terms,
		slots: env.slots,
		vars:  env.vars,
		stats: env.stats,
		ctx:   env.ctx,
		par:   env.par,
		mem:   env.mem, // one shared budget across every worker

		fplan:  env.fplan,
		ftally: env.ftally,

		// Shared for the busy accumulators only — a worker never
		// touches the span tree (driver-only mutation).
		trace: env.trace,
	}
}

// morselOut is what one morsel task produces, in memory private to the
// task until runMorsels commits it: the morsel's rows and, for a hash
// join probing a table over its left side, where each left row's rows
// end among them (hashTable.probe).
type morselOut struct {
	rows []slotRow
	ends []int32
}

// morselOp is one runMorsels call: the task body, the committed
// outputs, and the completion accounting its tasks share.
type morselOp struct {
	compute  func(m int, w *evalEnv) morselOut
	outs     []morselOut
	produced atomic.Int64   // rows committed so far (the LIMIT pushdown)
	wg       sync.WaitGroup // one Done per dispatched morsel, when it settles

	// Speculation (races is nil when it is off): per-morsel race state
	// and the committed copies' durations, for the straggler median.
	races []specTask
	durMu sync.Mutex
	durs  []int64
}

// poolTask is one morsel handed to the pool.
type poolTask struct {
	op *morselOp
	m  int
}

// workerPool is the per-Run pool: n goroutines, each bound to one
// worker environment for the lifetime of the run (so worker arenas
// amortize across operations), pulling morsels off an unbuffered
// channel. The unbuffered send doubles as backpressure — the
// dispatcher re-checks the limit short-circuit and the cancellation
// latch between sends.
type workerPool struct {
	tasks chan poolTask
}

func newWorkerPool(parent *evalEnv, n int) *workerPool {
	p := &workerPool{tasks: make(chan poolTask)}
	for i := 0; i < n; i++ {
		w := parent.workerEnv()
		w.wid = i
		go func() {
			for t := range p.tasks {
				t.op.runTask(w, t.m)
			}
		}()
	}
	return p
}

// close releases the pool's goroutines. Safe to call on a serial
// environment or twice; rows produced by workers remain valid.
func (env *evalEnv) close() {
	if env.pool != nil {
		close(env.pool.tasks)
		env.pool = nil
	}
}

// maxTaskAttempts bounds re-running a failed morsel task — the
// engine-side mirror of Spark's spark.task.maxFailures (lineage-based
// task retry, the fault-tolerance contract the surveyed systems inherit
// from the platform).
const maxTaskAttempts = 3

// runTask executes morsel m on pool worker w, recovering panics (real
// ones and injected ones, fault.PointMorsel) and re-running the task up
// to maxTaskAttempts times. A morsel task is a pure function of
// immutable run state that writes only memory it allocates, so a re-run
// recomputes exactly what the crashed attempt would have produced —
// byte-identical output survives the crash. When attempts exhaust, the
// failure latches into the run (parRun.latchFailure), cancelling the
// query — unless a speculative copy already rescued the morsel; the
// process and the pool's other workers stay up.
func (op *morselOp) runTask(w *evalEnv, m int) {
	start := time.Now()
	if op.races != nil {
		// Stamped before the first attempt: a task stalled ahead of its
		// compute (an injected fault delay, a descheduled worker) is
		// already straggling, and the watchdog must see it running.
		op.races[m].started.CompareAndSwap(0, start.UnixNano())
	}
	settled := false
	for attempt := 1; ; attempt++ {
		var err error
		if settled, err = op.attempt(w, m, false); err == nil {
			break
		}
		if _, ok := err.(*PanicError); ok && w.ftally != nil {
			w.ftally.panics.Add(1)
		}
		if w.err != nil {
			// The run is already cancelled; its error wins.
			settled = op.claim(m)
			break
		}
		if attempt >= maxTaskAttempts {
			if settled = op.claim(m); settled {
				w.par.latchFailure(err)
			}
			break
		}
		if op.races != nil && op.races[m].claimed.Load() {
			break // rescued while we were failing; nothing to retry for
		}
		if w.ftally != nil {
			w.ftally.retries.Add(1)
		}
	}
	if w.trace != nil {
		// Per-worker busy time, added before the Done: the accumulator is
		// complete once the dispatcher's wait returns.
		w.trace.busy[w.wid].Add(int64(time.Since(start)))
	}
	if settled {
		op.wg.Done()
	}
}

// claim settles morsel m: true for the one copy of it that gets there
// first, which then owes the operation's wait group its Done. Without
// speculation a morsel has one copy, and it always wins.
func (op *morselOp) claim(m int) bool {
	return op.races == nil || op.races[m].claimed.CompareAndSwap(false, true)
}

// attempt runs one copy of morsel m once, behind a panic recovery and
// the morsel fault point, and commits its output if it is the first
// copy to finish — the only write a task makes that anything else can
// see. settled reports that this copy claimed the morsel.
func (op *morselOp) attempt(w *evalEnv, m int, spec bool) (settled bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			settled, err = false, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if e := w.fplan.Hit(fault.PointMorsel); e != nil {
		return false, e
	}
	start := time.Now()
	if op.races != nil {
		// The claim doubles as the loser's stop flag.
		w.taskStop = &op.races[m].claimed
		defer func() { w.taskStop = nil }()
	}
	out := op.compute(m, w)
	if !op.claim(m) {
		return false, nil // lost the race; the winner already committed
	}
	if w.err != nil {
		return true, nil // a dying run: the morsel settles uncommitted
	}
	op.outs[m] = out
	op.produced.Add(int64(len(out.rows)))
	if op.races != nil {
		if spec && w.ftally != nil {
			w.ftally.specWins.Add(1)
		}
		op.durMu.Lock()
		op.durs = append(op.durs, int64(time.Since(start)))
		op.durMu.Unlock()
	}
	return true, nil
}

// runMorsels dispatches morsels [0, total) to the pool and returns the
// outputs of the dispatched ones, in morsel order, once each has
// settled. compute(m, w) runs on a worker, any number of times and
// possibly as two racing copies, so it must be a pure function of
// immutable state writing only memory it allocates; runMorsels commits
// exactly one copy's output per morsel. When needed > 0, dispatch
// short-circuits as soon as the committed morsels hold that many rows —
// the LIMIT pushdown. Any cross-worker cancellation or task failure is
// latched into env.err.
func (env *evalEnv) runMorsels(total, needed int, compute func(m int, w *evalEnv) morselOut) []morselOut {
	if env.pool == nil {
		env.pool = newWorkerPool(env, env.par.n)
	}
	op := &morselOp{compute: compute, outs: make([]morselOut, total)}
	if env.par.specK > 0 {
		op.races = make([]specTask, total)
		defer op.watch(env)()
	}
	dispatched := 0
	for m := 0; m < total; m++ {
		if env.par.stop.Load() {
			break
		}
		if needed > 0 && op.produced.Load() >= int64(needed) {
			break
		}
		op.wg.Add(1)
		env.pool.tasks <- poolTask{op: op, m: m}
		dispatched++
	}
	// Morsels beyond dispatched never settle; their wait-group slots
	// were never added, so waiting on the dispatched prefix is exact.
	op.wg.Wait()
	env.par.ops.Add(1)
	env.par.morsels.Add(int64(dispatched))
	if env.trace != nil {
		// The dispatcher runs on the driver under the operation's span
		// (seed_scan or join), so the morsel accounting lands there.
		cur := env.trace.t.Current()
		cur.AddInt("morsels", int64(dispatched))
		cur.SetInt("width", int64(env.par.n))
	}
	env.latchStop()
	return op.outs[:dispatched]
}

// latchStop surfaces into env.err whatever raised the run's stop latch.
// A latched task failure (exhausted panic retries, a blown budget)
// outranks cancellation: stop may be raised by either, and ctx.Err() is
// nil when the run died of a failure rather than cancellation.
func (env *evalEnv) latchStop() {
	if env.par == nil || env.err != nil {
		return
	}
	if ferr := env.par.failure(); ferr != nil {
		env.err = ferr
	} else if env.par.stop.Load() && env.ctx != nil {
		env.err = env.ctx.Err()
	}
}

// Speculative morsel re-execution — the engine-side reproduction of
// Spark's speculative task execution (spark.speculation): a watchdog
// re-dispatches tasks still running after specK× the run's median
// completed-task time, and the first copy to finish commits. The
// claim protocol that keeps output byte-identical:
//
//   - Each morsel's copies compute into private buffers; a single
//     atomic claim (specTask.claimed) decides which copy commits.
//     Tasks are pure functions of immutable run state, so both copies
//     compute identical rows — the claim only picks whose allocation
//     survives.
//   - The claim doubles as the loser's stop flag: evalEnv.taskStop
//     points at it, so a straggling loser abandons its morsel at the
//     next amortized poll without latching any error.
//   - The operation's wait group counts claims, not task exits: each
//     dispatched morsel settles exactly once (commit, failure latch,
//     or dying-run release).
const (
	// specMinSamples is how many completed tasks the watchdog needs
	// before it trusts the median.
	specMinSamples = 3
	// specMinThreshold floors the straggler threshold: µs-scale tasks
	// are never worth re-dispatching.
	specMinThreshold = 100 * time.Microsecond
	// specWatchdogTick is the watchdog's poll interval.
	specWatchdogTick = 500 * time.Microsecond
)

// specTask is the per-morsel race state.
type specTask struct {
	claimed atomic.Bool  // first-completion-wins claim + loser stop flag
	started atomic.Int64 // first copy's start time (unix nanos); 0 = queued
	specd   atomic.Bool  // a speculative copy was launched
}

// watch starts the operation's straggler watchdog: every tick it
// computes the straggler threshold from the committed-task median and
// launches one speculative copy (on a fresh goroutine with a private
// environment) for each unclaimed task over it. The returned stop waits
// the watchdog and every speculative copy out, so losers are gone before
// the operation returns.
func (op *morselOp) watch(env *evalEnv) (stop func()) {
	watchStop := make(chan struct{})
	var aux sync.WaitGroup // the watchdog and every speculative copy
	aux.Add(1)
	go func() {
		defer aux.Done()
		tick := time.NewTicker(specWatchdogTick)
		defer tick.Stop()
		for {
			select {
			case <-watchStop:
				return
			case <-tick.C:
			}
			op.durMu.Lock()
			var median int64
			if len(op.durs) >= specMinSamples {
				sorted := append([]int64(nil), op.durs...)
				sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
				median = sorted[len(sorted)/2]
			}
			op.durMu.Unlock()
			if median == 0 {
				continue
			}
			threshold := time.Duration(float64(median) * env.par.specK)
			if threshold < specMinThreshold {
				threshold = specMinThreshold
			}
			now := time.Now().UnixNano()
			for m := range op.races {
				st := &op.races[m]
				if st.claimed.Load() || st.specd.Load() {
					continue
				}
				startNs := st.started.Load()
				if startNs == 0 || now-startNs < int64(threshold) {
					continue
				}
				st.specd.Store(true)
				if env.ftally != nil {
					env.ftally.specs.Add(1)
				}
				aux.Add(1)
				go func(m int) {
					defer aux.Done()
					// One best-effort attempt: a panicking or failing
					// copy is simply dropped — the original still owns
					// the retry budget.
					if settled, _ := op.attempt(env.workerEnv(), m, true); settled {
						op.wg.Done()
					}
				}(m)
			}
		}
	}()
	return func() {
		close(watchStop)
		aux.Wait()
	}
}

// mergeMorsels concatenates per-morsel output buffers in morsel order
// (= serial order), charging the merged batch against the run's
// budget. A lone buffer is the result as it stands. Returns nil for an
// empty result.
func mergeMorsels(env *evalEnv, outs []morselOut) []slotRow {
	if len(outs) == 1 {
		return outs[0].rows
	}
	total := 0
	for _, o := range outs {
		total += len(o.rows)
	}
	if total == 0 {
		return nil
	}
	env.chargeRowBatch(total, stageJoin)
	if env.err != nil { // over budget: skip the merge allocation
		return nil
	}
	merged := make([]slotRow, 0, total)
	for _, o := range outs {
		merged = append(merged, o.rows...)
	}
	return merged
}

// seedScanPar splits a seed scan's candidate view into morsels. Each
// morsel scans its contiguous candidate range into a private buffer
// (rows from the worker's arena); the merge concatenates buffers in
// morsel order, so the result is the serial scan's row order exactly.
// max > 0 is the LIMIT pushdown bound: dispatch stops once the morsels
// already finished have produced enough leading rows, and each morsel
// caps itself at max (its contribution to the kept prefix can never
// exceed that).
func (env *evalEnv) seedScanPar(ps *patternScan, row slotRow, max int) []slotRow {
	n := len(ps.candidates)
	outs := env.runMorsels(rdf.MorselCount(n, morselSize), max, func(m int, w *evalEnv) morselOut {
		start, end := rdf.MorselBounds(m, n, morselSize)
		return morselOut{rows: w.scanPattern(ps, row, ps.candidates[start:end], max, make([]slotRow, 0, outputCap(end-start, max)))}
	})
	if env.err != nil {
		return nil
	}
	merged := mergeMorsels(env, outs)
	if merged == nil {
		// Serial seed scans yield an empty non-nil slice; callers only
		// check len, but stay consistent.
		merged = []slotRow{}
	}
	return merged
}

// cursorMorselSize picks the morsel size for a probe against a table
// over the left side, each of whose morsels carries one int32 cursor
// per left row until the gather: the standard morselSize, grown as
// needed to cap the morsel count at 4 per worker, so the cursors stay
// O(par · left side).
func cursorMorselSize(n, par int) int {
	if maxCount := 4 * par; rdf.MorselCount(n, morselSize) > maxCount {
		return (n + maxCount - 1) / maxCount
	}
	return morselSize
}
