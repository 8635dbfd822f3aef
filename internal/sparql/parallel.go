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
//     build-side hash table). Rows a worker produces stay valid after
//     the pool is gone; arenas amortize across every morsel a worker
//     runs.
//   - Results merge in morsel order: seed scans and build-right
//     probes concatenate per-morsel output buffers; build-left probes
//     scatter through per-(morsel, build-row) write cursors computed
//     from a counting pass, so the a-major/b-suborder of the serial
//     scatter is reproduced exactly.
//   - Cancellation latches across workers: the first environment to
//     observe ctx.Done() raises parRun.stop, every other worker sees
//     it at its next amortized poll (1/1024 rows), and the dispatcher
//     stops handing out morsels.
//
// The nested-loop fallback (cartesian joins, bindings partial on the
// build key) and every probe below parMinWork stay serial, so the
// serial path's allocation pins are untouched.

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
// env.par nil: the run takes exactly the serial code paths. No budget
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

// poolTask is one morsel handed to the pool: the work and the
// operation's completion group. A direct task manages its own retries
// and completion (speculative execution, runMorselsSpec) — the pool
// only lends it a worker environment.
type poolTask struct {
	fn     func(w *evalEnv)
	wg     *sync.WaitGroup
	direct bool
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
				runTask(w, t)
			}
		}()
	}
	return p
}

// maxTaskAttempts bounds re-running a panicked morsel task — the
// engine-side mirror of Spark's spark.task.maxFailures (lineage-based
// task retry, the fault-tolerance contract the surveyed systems inherit
// from the platform).
const maxTaskAttempts = 3

// runTask executes one morsel task, recovering panics (real ones and
// injected ones, fault.PointMorsel) and re-running the task up to
// maxTaskAttempts times. Morsel tasks are pure functions of immutable
// run state that (re)initialize their private output slots, so a re-run
// recomputes exactly what the crashed attempt would have produced —
// byte-identical output survives the crash. When attempts exhaust, the
// failure latches into the run (parRun.latchFailure), cancelling the
// query; the process and the pool's other workers stay up.
func runTask(w *evalEnv, t poolTask) {
	if t.wg != nil {
		defer t.wg.Done()
	}
	if w.trace != nil {
		// Per-worker busy time. Registered after wg.Done so it runs
		// before it (LIFO): the accumulator is complete once the
		// dispatcher's wg.Wait returns.
		start := time.Now()
		defer func() { w.trace.busy[w.wid].Add(int64(time.Since(start))) }()
	}
	if t.direct {
		t.fn(w)
		return
	}
	for attempt := 1; ; attempt++ {
		err := runTaskAttempt(w, t.fn)
		if err == nil {
			return
		}
		if _, ok := err.(*PanicError); ok && w.ftally != nil {
			w.ftally.panics.Add(1)
		}
		if w.err != nil {
			// The run is already cancelled; its error wins.
			return
		}
		if attempt >= maxTaskAttempts {
			w.par.latchFailure(err)
			return
		}
		if w.ftally != nil {
			w.ftally.retries.Add(1)
		}
	}
}

// runTaskAttempt runs the task body once behind a panic recovery and
// the morsel fault point.
func runTaskAttempt(w *evalEnv, fn func(*evalEnv)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if e := w.fplan.Hit(fault.PointMorsel); e != nil {
		return e
	}
	fn(w)
	return nil
}

// close releases the pool's goroutines. Safe to call on a serial
// environment or twice; rows produced by workers remain valid.
func (env *evalEnv) close() {
	if env.pool != nil {
		close(env.pool.tasks)
		env.pool = nil
	}
}

// runMorsels dispatches morsels [0, total) to the pool and waits for
// the dispatched ones to finish. mk builds the m-th morsel's task;
// tasks run concurrently and must write only morsel-private state.
// When needed > 0 and produced is non-nil, dispatch short-circuits as
// soon as produced (the tasks' shared output-row counter) reaches
// needed — the LIMIT pushdown. Returns how many morsels were
// dispatched and latches any cross-worker cancellation into env.err.
func (env *evalEnv) runMorsels(total, needed int, produced *atomic.Int64, mk func(m int) func(w *evalEnv)) int {
	if env.pool == nil {
		env.pool = newWorkerPool(env, env.par.n)
	}
	var wg sync.WaitGroup
	dispatched := 0
	for m := 0; m < total; m++ {
		if env.par.stop.Load() {
			break
		}
		if needed > 0 && produced != nil && produced.Load() >= int64(needed) {
			break
		}
		wg.Add(1)
		env.pool.tasks <- poolTask{fn: mk(m), wg: &wg}
		dispatched++
	}
	wg.Wait()
	env.par.ops.Add(1)
	env.par.morsels.Add(int64(dispatched))
	if env.trace != nil {
		// The dispatcher runs on the driver under the operation's span
		// (seed_scan or join), so the morsel accounting lands there.
		cur := env.trace.t.Current()
		cur.AddInt("morsels", int64(dispatched))
		cur.SetInt("width", int64(env.par.n))
	}
	// A latched task failure (exhausted panic retries) outranks the
	// cancellation latch: stop may be raised by either, and ctx.Err()
	// is nil when the run died of a panic rather than cancellation.
	if env.err == nil {
		if ferr := env.par.failure(); ferr != nil {
			env.err = ferr
		} else if env.par.stop.Load() && env.ctx != nil {
			if cerr := env.ctx.Err(); cerr != nil {
				env.err = cerr
			}
		}
	}
	return dispatched
}

// runMorselsOut dispatches morsels whose tasks each produce one
// private output buffer: compute(m, w) returns morsel m's rows, and
// the committed buffer lands in outs[m] (with len(out) added to the
// shared produced counter when non-nil). This is the commit-side
// variant of runMorsels that speculation needs: because the buffer is
// returned rather than written in place, two racing copies of the same
// morsel can run and exactly one result commits. Without speculation
// armed it delegates to runMorsels with the commit inlined — same
// dispatch, same cost.
func (env *evalEnv) runMorselsOut(total, needed int, produced *atomic.Int64, outs [][]slotRow, compute func(m int, w *evalEnv) []slotRow) int {
	if env.par.specK > 0 {
		return env.runMorselsSpec(total, needed, produced, outs, compute)
	}
	return env.runMorsels(total, needed, produced, func(m int) func(w *evalEnv) {
		return func(w *evalEnv) {
			out := compute(m, w)
			if w.err != nil {
				return
			}
			outs[m] = out
			if produced != nil {
				produced.Add(int64(len(out)))
			}
		}
	})
}

// Speculative morsel re-execution — the engine-side reproduction of
// Spark's speculative task execution (spark.speculation): a watchdog
// re-dispatches tasks still running after specK× the run's median
// completed-task time, and the first copy to finish commits. The
// claim protocol that keeps output byte-identical:
//
//   - Each morsel's copies compute into private buffers; a single
//     atomic claim (specTask.claimed) decides which copy commits
//     outs[m]. Tasks are pure functions of immutable run state, so
//     both copies compute identical rows — the claim only picks whose
//     allocation survives.
//   - The claim doubles as the loser's stop flag: evalEnv.taskStop
//     points at it, so a straggling loser abandons its morsel at the
//     next amortized poll without latching any error.
//   - The operation's wait group counts claims, not task exits: each
//     dispatched morsel resolves exactly once (commit, failure latch,
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

func (env *evalEnv) runMorselsSpec(total, needed int, produced *atomic.Int64, outs [][]slotRow, compute func(m int, w *evalEnv) []slotRow) int {
	if env.pool == nil {
		env.pool = newWorkerPool(env, env.par.n)
	}
	states := make([]specTask, total)
	var wg sync.WaitGroup // one Done per dispatched morsel, at claim resolution
	var durMu sync.Mutex
	var durs []int64 // committed-copy durations, for the straggler median

	// release resolves a morsel's claim without committing (dying run,
	// exhausted failure): the first resolver still fires the wait group.
	release := func(st *specTask) bool {
		if st.claimed.CompareAndSwap(false, true) {
			wg.Done()
			return true
		}
		return false
	}

	// run executes one copy of morsel m and resolves its claim: the
	// first copy to finish commits its private buffer, later copies
	// discard theirs.
	run := func(m int, st *specTask, w *evalEnv, spec bool) {
		start := time.Now()
		st.started.CompareAndSwap(0, start.UnixNano())
		w.taskStop = &st.claimed
		defer func() { w.taskStop = nil }()
		out := compute(m, w)
		if w.err != nil {
			release(st)
			return
		}
		if !st.claimed.CompareAndSwap(false, true) {
			return // lost the race; the winner already committed
		}
		outs[m] = out
		if produced != nil {
			produced.Add(int64(len(out)))
		}
		if spec && w.ftally != nil {
			w.ftally.specWins.Add(1)
		}
		durMu.Lock()
		durs = append(durs, int64(time.Since(start)))
		durMu.Unlock()
		wg.Done()
	}

	// original builds morsel m's pool task: runTask's retry loop,
	// inlined so an exhausted failure only kills the run if the morsel
	// was not already rescued by its speculative copy.
	original := func(m int, st *specTask) func(w *evalEnv) {
		return func(w *evalEnv) {
			// Stamp the start before the first attempt, not inside run():
			// a task stalled ahead of its compute (an injected fault
			// delay, a descheduled worker) is already straggling, and the
			// watchdog must see it running.
			st.started.CompareAndSwap(0, time.Now().UnixNano())
			for attempt := 1; ; attempt++ {
				err := runTaskAttempt(w, func(w *evalEnv) { run(m, st, w, false) })
				if err == nil {
					return
				}
				if _, ok := err.(*PanicError); ok && w.ftally != nil {
					w.ftally.panics.Add(1)
				}
				if w.err != nil {
					release(st)
					return
				}
				if attempt >= maxTaskAttempts {
					if release(st) {
						w.par.latchFailure(err)
					}
					return
				}
				if st.claimed.Load() {
					return // rescued while we were failing; nothing to retry for
				}
				if w.ftally != nil {
					w.ftally.retries.Add(1)
				}
			}
		}
	}

	// The watchdog: every tick, compute the straggler threshold from
	// the committed-task median and launch one speculative copy (on a
	// fresh goroutine with a private environment) for each unclaimed
	// task over it.
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
			durMu.Lock()
			var median int64
			if len(durs) >= specMinSamples {
				sorted := append([]int64(nil), durs...)
				sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
				median = sorted[len(sorted)/2]
			}
			durMu.Unlock()
			if median == 0 {
				continue
			}
			threshold := time.Duration(float64(median) * env.par.specK)
			if threshold < specMinThreshold {
				threshold = specMinThreshold
			}
			now := time.Now().UnixNano()
			for i := range states {
				st := &states[i]
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
				go func(m int, st *specTask) {
					defer aux.Done()
					// One best-effort attempt: a panicking or failing
					// copy is simply dropped — the original still owns
					// the retry budget.
					w := env.workerEnv()
					_ = runTaskAttempt(w, func(w *evalEnv) { run(m, st, w, true) })
				}(i, st)
			}
		}
	}()

	dispatched := 0
	for m := 0; m < total; m++ {
		if env.par.stop.Load() {
			break
		}
		if needed > 0 && produced != nil && produced.Load() >= int64(needed) {
			break
		}
		wg.Add(1)
		env.pool.tasks <- poolTask{fn: original(m, &states[m]), direct: true}
		dispatched++
	}
	// Morsels beyond dispatched never resolve a claim; their wait-group
	// slots were never added, so waiting on claims of the dispatched
	// prefix is exact.
	wg.Wait()
	close(watchStop)
	aux.Wait() // losers and the watchdog are gone before the op returns
	env.par.ops.Add(1)
	env.par.morsels.Add(int64(dispatched))
	if env.trace != nil {
		cur := env.trace.t.Current()
		cur.AddInt("morsels", int64(dispatched))
		cur.SetInt("width", int64(env.par.n))
	}
	if env.err == nil {
		if ferr := env.par.failure(); ferr != nil {
			env.err = ferr
		} else if env.par.stop.Load() && env.ctx != nil {
			if cerr := env.ctx.Err(); cerr != nil {
				env.err = cerr
			}
		}
	}
	return dispatched
}

// mergeMorsels concatenates per-morsel output buffers in morsel order
// (= serial order), charging the merged batch against the run's
// budget. Returns nil for an empty result, like the serial join paths.
func mergeMorsels(env *evalEnv, outs [][]slotRow) []slotRow {
	total := 0
	for _, o := range outs {
		total += len(o)
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
		merged = append(merged, o...)
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
	total := rdf.MorselCount(n, morselSize)
	outs := make([][]slotRow, total)
	var produced atomic.Int64
	dispatched := env.runMorselsOut(total, max, &produced, outs, func(m int, w *evalEnv) []slotRow {
		start, end := rdf.MorselBounds(m, n, morselSize)
		return w.scanPattern(ps, row, ps.candidates[start:end], max, make([]slotRow, 0, outputCap(end-start, max)))
	})
	if env.err != nil {
		return nil
	}
	merged := mergeMorsels(env, outs[:dispatched])
	if merged == nil {
		// Serial seed scans yield an empty non-nil slice; callers only
		// check len, but stay consistent.
		merged = []slotRow{}
	}
	return merged
}

// hashJoinBuildRightPar is hashJoinBuildRight with the probe side (a)
// split into morsels: the build pass stays serial, each morsel counts
// and emits its contiguous a-range into a private buffer, and buffers
// concatenate in morsel order — a-major with b-suborder, exactly the
// serial output.
func (env *evalEnv) hashJoinBuildRightPar(a, b []slotRow, key []int) []slotRow {
	head, next, mask := buildJoinTable(b, key)
	env.chargeJoinTable(head, next)
	n := len(a)
	total := rdf.MorselCount(n, morselSize)
	outs := make([][]slotRow, total)
	env.runMorselsOut(total, 0, nil, outs, func(m int, w *evalEnv) []slotRow {
		start, end := rdf.MorselBounds(m, n, morselSize)
		var out []slotRow
		for _, x := range a[start:end] {
			if w.interrupted() {
				break
			}
			h := rowKeyHash(x, key) & mask
			for yi := head[h]; yi >= 0; yi = next[yi] {
				if y := b[yi]; compatibleRows(x, y) {
					out = append(out, w.mergeRows(x, y))
				}
			}
		}
		return out
	})
	if env.err != nil {
		return nil
	}
	return mergeMorsels(env, outs)
}

// hashOptionalBuildRightPar mirrors hashOptionalBuildRight: morsels
// over the probe (left) side, unmatched left rows passing through
// uncopied inside their morsel's buffer.
func (env *evalEnv) hashOptionalBuildRightPar(left, right []slotRow, key []int) []slotRow {
	head, next, mask := buildJoinTable(right, key)
	env.chargeJoinTable(head, next)
	n := len(left)
	total := rdf.MorselCount(n, morselSize)
	outs := make([][]slotRow, total)
	env.runMorselsOut(total, 0, nil, outs, func(m int, w *evalEnv) []slotRow {
		start, end := rdf.MorselBounds(m, n, morselSize)
		out := make([]slotRow, 0, end-start)
		for _, l := range left[start:end] {
			if w.interrupted() {
				break
			}
			h := rowKeyHash(l, key) & mask
			matched := false
			for ri := head[h]; ri >= 0; ri = next[ri] {
				if r := right[ri]; compatibleRows(l, r) {
					out = append(out, w.mergeRows(l, r))
					matched = true
				}
			}
			if !matched {
				out = append(out, l)
			}
		}
		return out
	})
	if env.err != nil {
		return nil
	}
	return mergeMorsels(env, outs)
}

// scatterMorselSpan picks the morsel size for the build-left scatter
// probes, whose counting pass needs one int32 per (morsel, build row):
// the standard morselSize, grown as needed to cap the morsel count at
// 4 morsels per worker so the cursor matrix stays O(par · build side).
func scatterMorselSpan(n, par int) (size, count int) {
	size = morselSize
	if maxCount := 4 * par; rdf.MorselCount(n, size) > maxCount {
		size = (n + maxCount - 1) / maxCount
	}
	return size, rdf.MorselCount(n, size)
}

// hashJoinBuildLeftPar is hashJoinBuildLeft with the probe side (b)
// split into morsels. The serial variant's counting pass generalizes
// to a cursor matrix: morsel m counts its matches per build row,
// cursors[m][xi] then becomes the exact output offset of morsel m's
// first match for build row xi (a-major, morsels of b in order), and
// the emit pass scatters through those cursors — every (m, xi) writes
// a disjoint output range, and the order is byte-identical to serial.
func (env *evalEnv) hashJoinBuildLeftPar(a, b []slotRow, key []int) []slotRow {
	head, next, mask := buildJoinTable(a, key)
	env.chargeJoinTable(head, next)
	la, n := len(a), len(b)
	size, total := scatterMorselSpan(n, env.par.n)
	// The cursor matrix and its starts snapshot both cost one int32 per
	// (morsel, build row).
	env.charge(2*int64(total*la)*termIDBytes, stageJoin)
	if env.err != nil {
		return nil
	}
	cursors := make([]int32, total*la)
	// starts snapshots the write cursors before the emit pass, so a
	// re-run task (panic recovery, parallel.go runTask) restores its
	// cursor row instead of advancing it twice.
	var starts []int32
	probe := func(emit bool, out []slotRow) {
		env.runMorsels(total, 0, nil, func(m int) func(w *evalEnv) {
			start, end := rdf.MorselBounds(m, n, size)
			cur := cursors[m*la : (m+1)*la]
			return func(w *evalEnv) {
				// (Re)initialize the task's private cursor row: zeros
				// for the counting pass, the saved write offsets for
				// the emit pass — the emit's out[] writes are then
				// idempotent (same rows, same disjoint slots).
				if emit {
					copy(cur, starts[m*la:(m+1)*la])
				} else {
					for i := range cur {
						cur[i] = 0
					}
				}
				for _, y := range b[start:end] {
					if w.interrupted() {
						return
					}
					h := rowKeyHash(y, key) & mask
					for xi := head[h]; xi >= 0; xi = next[xi] {
						if x := a[xi]; compatibleRows(x, y) {
							if emit {
								out[cur[xi]] = w.mergeRows(x, y)
							}
							cur[xi]++
						}
					}
				}
			}
		})
	}
	probe(false, nil)
	if env.err != nil {
		return nil
	}
	// Turn counts into write cursors: a-major, then morsel order.
	pos := int32(0)
	for xi := 0; xi < la; xi++ {
		for m := 0; m < total; m++ {
			c := cursors[m*la+xi]
			cursors[m*la+xi] = pos
			pos += c
		}
	}
	if pos == 0 {
		return nil
	}
	env.chargeRowBatch(int(pos), stageJoin)
	if env.err != nil { // over budget: skip the output allocation
		return nil
	}
	starts = append([]int32(nil), cursors...)
	out := make([]slotRow, pos)
	probe(true, out)
	if env.err != nil {
		// Incomplete scatter: nil holes remain, return nothing (the
		// latched error aborts the evaluation).
		return nil
	}
	return out
}

// hashOptionalBuildLeftPar is hashOptionalBuildLeft with the probe
// (right) side split into morsels, using the same cursor matrix as
// hashJoinBuildLeftPar; unmatched left rows take their single output
// slot during the serial cursor walk, exactly where the serial scatter
// places them.
func (env *evalEnv) hashOptionalBuildLeftPar(left, right []slotRow, key []int) []slotRow {
	head, next, mask := buildJoinTable(left, key)
	env.chargeJoinTable(head, next)
	ll, n := len(left), len(right)
	size, total := scatterMorselSpan(n, env.par.n)
	// Cursor matrix + starts snapshot: one int32 each per (morsel, row).
	env.charge(2*int64(total*ll)*termIDBytes, stageJoin)
	if env.err != nil {
		return nil
	}
	cursors := make([]int32, total*ll)
	// starts: see hashJoinBuildLeftPar — restores a re-run emit task's
	// cursor row so retries stay idempotent.
	var starts []int32
	probe := func(emit bool, out []slotRow) {
		env.runMorsels(total, 0, nil, func(m int) func(w *evalEnv) {
			start, end := rdf.MorselBounds(m, n, size)
			cur := cursors[m*ll : (m+1)*ll]
			return func(w *evalEnv) {
				if emit {
					copy(cur, starts[m*ll:(m+1)*ll])
				} else {
					for i := range cur {
						cur[i] = 0
					}
				}
				for _, r := range right[start:end] {
					if w.interrupted() {
						return
					}
					h := rowKeyHash(r, key) & mask
					for li := head[h]; li >= 0; li = next[li] {
						if l := left[li]; compatibleRows(l, r) {
							if emit {
								out[cur[li]] = w.mergeRows(l, r)
							}
							cur[li]++
						}
					}
				}
			}
		})
	}
	probe(false, nil)
	if env.err != nil {
		return nil
	}
	// Size the output (unmatched lefts pass through with one slot
	// each), then turn counts into write cursors.
	outLen := 0
	for li := 0; li < ll; li++ {
		matches := 0
		for m := 0; m < total; m++ {
			matches += int(cursors[m*ll+li])
		}
		if matches == 0 {
			outLen++
		} else {
			outLen += matches
		}
	}
	env.chargeRowBatch(outLen, stageJoin)
	if env.err != nil { // over budget: skip the output allocation
		return nil
	}
	out := make([]slotRow, outLen)
	pos := int32(0)
	for li := 0; li < ll; li++ {
		colStart := pos
		for m := 0; m < total; m++ {
			c := cursors[m*ll+li]
			cursors[m*ll+li] = pos
			pos += c
		}
		if pos == colStart { // no matches: the left row passes through
			out[pos] = left[li]
			pos++
		}
	}
	starts = append([]int32(nil), cursors...)
	probe(true, out)
	if env.err != nil {
		// Incomplete scatter: nil holes remain (see above).
		return nil
	}
	return out
}
