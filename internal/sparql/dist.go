package sparql

import (
	"context"
	"errors"
	"math"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// The executor. Every run evaluates over a ShardSet: a dataset split
// into N shard views around one shared dictionary
// (rdf.NewPositionedView), or one graph as the set of its one view
// (GraphSet). A sharded run returns exactly what the run over the
// equivalent single graph returns — byte-identical rows and order —
// because every merge happens in id space under two invariants:
//
//   - Shared dictionary: a TermID means the same term on every shard,
//     so rows from different shards merge, join, deduplicate, and sort
//     with the single-graph code paths (joinRows, distinctRows,
//     sortRows) untouched.
//   - Global-position merge: the merge key of a match ends in the
//     matched triple's position in the full dataset's insertion order.
//     It lives in the shard view, as an int32 column aligned with every
//     order the view stores its triples in (rdf.NewPositionedView), so
//     a scan reads candidate i's key as positions[i] of the range it is
//     already walking — an array read beside the scanned storage; no
//     per-triple hash, map or dictionary lookup on the scan path. Each
//     shard preserves the original relative order of its triples, so
//     under one input row a shard's matches are already sorted by that
//     key, and a deterministic k-way merge on (input row, position)
//     reproduces the exact order in which a single-graph evaluation
//     extends its rows. The columns cost 4 B × 4 orders per triple at
//     any replica count: every replica of a shard reads the one view.
//     A shard operation builds keys only when more than one shard takes
//     part in it: one shard's run is already in order, so a graph's
//     view carries no column at all.
//
// Two routes move bindings to the data, the way the survey says real
// systems should (doc.go, "Sharded execution", has the prose):
//
//   - Pushdown (pushdownBGP): a WHERE clause that is one subject-star
//     BGP, on a placement that co-locates every subject's triples
//     (ShardSet.SubjectColocated), evaluates whole on each covering
//     shard. Soundness: every triple of a result star shares the star's
//     subject, so the star's shard holds all of them and no other any.
//   - Bind join (evalBGP → bindPattern → bindShard → gather): any other
//     BGP extends its batch of rows pattern by pattern, each shard
//     probing its own view for the whole batch in one operation; no
//     match set is gathered, nothing is joined inside a BGP, and
//     OPTIONAL / UNION / FILTER and the modifiers run unchanged above.
//     A graph (RouteLocal) is the one-shard case of it: the batch goes
//     to its one view on the calling goroutine.
//
// Both prune shards that cannot contribute: a shard whose indexes hold
// no candidates for a pattern (the vertical / semantic payoff) is
// skipped unscanned and reported through ShardStats.

// ShardSet describes a dataset to the executor: a sharded one, or one
// graph (GraphSet). It is immutable once built (shard graphs must not
// be mutated), and safe for unlimited concurrent runs.
type ShardSet struct {
	// Dict is the dictionary every shard encodes through.
	Dict *rdf.Dictionary
	// Views are the per-shard encoded views. On more than one shard each
	// carries its triples' global positions (rdf.NewPositionedView) —
	// the merge key for deterministic gathers, read beside the triples a
	// scan walks.
	Views []*rdf.EncodedView
	// Stats are the whole dataset's statistics: with them the
	// distributed planner reproduces the single-graph plan exactly
	// (same selectivity estimates, same join order).
	Stats rdf.Stats
	// SubjectColocated reports that the placement maps each subject's
	// triples to a single shard (the pushdown soundness condition).
	SubjectColocated bool

	// Replicas is the number of replicas of every shard (0 or 1 means
	// one). A replica is a routing identity, not a copy: replica r of
	// shard s is the index that its health score and fault point
	// (fault.ReplicaPoint(s, r)) are keyed by, and every
	// attempt on any replica scans Views[s]. Failover therefore cannot
	// change a row of query output.
	Replicas int
	// Health carries the per-replica health scores steering replica
	// selection. Nil disables steering (replicas are tried in index
	// order). It is the set's only mutable field and is internally
	// synchronized.
	Health *ReplicaHealth

	// local marks a graph's own set (GraphSet): its runs take
	// RouteLocal.
	local bool
}

// GraphSet is g as the set its runs evaluate over: g's encoded view as
// the one shard, under g's dictionary and statistics. Its runs take
// RouteLocal — the bind join on the calling goroutine, with no fault
// points, no shard report and the single-graph trace. Build it after
// g's last Add.
func GraphSet(g *rdf.Graph) *ShardSet {
	view := g.Encoded()
	return &ShardSet{Dict: view.Dict(), Views: []*rdf.EncodedView{view}, Stats: g.Stats(), local: true}
}

// ShardRoute identifies how the executor ran a query.
type ShardRoute string

// The three execution routes.
const (
	RouteLocal    ShardRoute = "local"
	RoutePushdown ShardRoute = "pushdown"
	RouteScatter  ShardRoute = "scatter-gather"
)

// ShardStats reports how one run executed. Request it with
// WithShardStats.
type ShardStats struct {
	// Route is the route the query took.
	Route ShardRoute
	// Shards is the number of shards in the set (0 on a graph).
	Shards int
	// ShardsTouched counts the shards the run actually scanned.
	ShardsTouched int
	// ShardsPruned counts the shards skipped because their indexes
	// could not contribute a candidate (Shards - ShardsTouched).
	ShardsPruned int
	// ScatterPatterns counts the triple patterns whose row batches were
	// shipped to the shards (0 on the pushdown route and on a graph).
	ScatterPatterns int
}

// WithShardStats makes a run fill st with its execution report just
// before returning. A run on a graph reports RouteLocal and no shards.
func WithShardStats(st *ShardStats) RunOption {
	return func(o *runOpts) { o.shardStats = st }
}

// WithScatterOnly forces the per-pattern route (the bind join) even
// when the query qualifies for pushdown — the benchmark baseline for
// measuring what placement-aware routing buys. Results are identical on
// both routes.
func WithScatterOnly() RunOption {
	return func(o *runOpts) { o.forceScatter = true }
}

// RunSharded evaluates the prepared query over a sharded dataset,
// returning exactly what (*Prepared).Run over the equivalent single
// graph returns — the same rows in the same order. Cancellation and
// RunOptions behave as in Run; WithParallelism bounds how many shards
// one shard operation runs on concurrently.
func (p *Prepared) RunSharded(ctx context.Context, ss *ShardSet, opts ...RunOption) (*Results, error) {
	return materialize(p.RunShardedSolutions(ctx, ss, opts...))
}

// RunShardedSolutions is RunSharded positioned for streaming, mirroring
// (*Prepared).RunSolutions: SELECT rows stay in id space with terms
// decoded on access. It is the one body every run shares: evaluate the
// WHERE pattern, then the answer tail (solutions).
func (p *Prepared) RunShardedSolutions(ctx context.Context, ss *ShardSet, opts ...RunOption) (*Solutions, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	ro := resolveRunOpts(opts)
	env := p.newEnv(ctx, ss, &ro)
	defer ro.capture(env)
	rows, err := env.evalPattern(p.q.Where)
	if err != nil {
		return nil, err
	}
	return env.solutions(p.q, rows)
}

// newEnv builds the environment of one run over ss: the query's slot
// table, the set's dictionary snapshot and statistics, its route, and
// the run's options. Every index scan happens on a shard view; the
// joins, filters and the whole answer tail run above the BGPs on the
// calling goroutine (a DESCRIBE reads its subjects' triples off every
// shard: subjectTriples). A context that can never be cancelled
// (Done() == nil, e.g. context.Background()) costs the hot loops
// nothing.
func (p *Prepared) newEnv(ctx context.Context, ss *ShardSet, ro *runOpts) *evalEnv {
	env := &evalEnv{
		ss:        ss,
		view:      ss.Views[0],
		dict:      ss.Dict,
		slots:     p.slots,
		vars:      p.vars,
		stats:     ss.Stats,
		limitHint: p.limitHint,
		prep:      p,
		route:     p.shardRoute(ss, ro.forceScatter),
		retry:     ro.retry.withDefaults(),
	}
	env.snapshotTerms()
	if env.route != RouteLocal {
		env.touched = make([]bool, len(ss.Views))
	}
	env.ftally = &env.tally
	// Read the fault plan off the raw context: chaos plans also ride
	// uncancellable contexts, which env.ctx deliberately drops.
	env.fplan = fault.From(ctx)
	if ctx != nil && ctx.Done() != nil {
		env.ctx = ctx
	}
	env.configure(ro)
	return env
}

// shardRoute picks the execution route: local on a graph, pushdown when
// the WHERE clause is a single subject-star BGP and the placement
// co-locates subjects, the per-pattern bind join (scatter-gather)
// otherwise.
func (p *Prepared) shardRoute(ss *ShardSet, forceScatter bool) ShardRoute {
	switch {
	case ss.local:
		return RouteLocal
	case forceScatter || !ss.SubjectColocated || !p.subjectStar():
		return RouteScatter
	}
	return RoutePushdown
}

// subjectStar reports whether the WHERE clause is a single BGP whose
// patterns all share one subject — one variable, or one constant (a
// point lookup, which the covering prune then sends to the one shard
// holding that subject) — the shape whose evaluation pushes down whole
// to subject-co-located shards.
func (p *Prepared) subjectStar() bool {
	if !isSoleBGP(p.q.Where) {
		return false
	}
	bgp, _ := p.q.BGPOf() // a sole BGP always flattens
	for _, tp := range bgp.Patterns {
		if tp.S != bgp.Patterns[0].S {
			return false
		}
	}
	return len(bgp.Patterns) > 0
}

// shardReport is the run's ShardStats: the route, and on a shard set
// the shards it touched and pruned.
func (env *evalEnv) shardReport() ShardStats {
	st := ShardStats{Route: env.route}
	if env.route == RouteLocal {
		return st
	}
	st.Shards, st.ScatterPatterns = len(env.ss.Views), env.scatter
	for _, t := range env.touched {
		if t {
			st.ShardsTouched++
		}
	}
	st.ShardsPruned = st.Shards - st.ShardsTouched
	return st
}

// evalBGP is the one BGP evaluator: the pushdown route when the run
// qualified, otherwise a bind join — pattern by pattern, the whole
// batch of rows bound so far goes to the shards and comes back extended
// (bindPattern). The first pattern's batch is the empty row alone: the
// seed scan. The plan is compiled from the set's statistics, so pattern
// order — and with it row order — is exactly the single-graph plan's.
// When the query's limitHint applies, the last pattern stops producing
// once enough leading rows exist (LIMIT pushdown below the modifier
// pipeline).
func (env *evalEnv) evalBGP(b BGP) []slotRow {
	cps := env.planFor(b)
	if env.route == RoutePushdown && len(cps) > 0 {
		return env.pushdownBGP(cps, env.limitHint)
	}
	if env.route == RouteLocal {
		// endSpan also closes a pattern span left open by an error
		// return; a nil span (the disarmed default) is a no-op.
		bsp := env.span("bgp")
		defer env.endSpan(bsp)
		if bsp != nil {
			bsp.SetInt("patterns", int64(len(cps)))
			bsp.SetStr("join_order", planOrder(cps))
		}
	}
	rows := []slotRow{env.emptyRow()}
	for i := range cps {
		max := 0
		if i == len(cps)-1 {
			// limitHint is only set when this BGP is the whole WHERE
			// clause, so its last pattern emits the final row sequence.
			max = env.limitHint
		}
		rows = env.bindPattern(&cps[i], i == 0, rows, max)
		if len(rows) == 0 { // nothing left to extend, or the run failed
			break
		}
	}
	return rows
}

// parRun is the state the shard goroutines of one sharded run at width
// > 1 share: the fan-out width and the run-wide stop and failure latch.
type parRun struct {
	n    int         // shards one shard op runs on at once
	stop atomic.Bool // latched: some environment observed ctx.Done()

	// Failure latch: the first shard worker that fails the run (a blown
	// budget) records its error here and raises stop, so every other
	// worker stops at its next poll.
	failMu  sync.Mutex
	failErr error
}

// latchFailure records the run-cancelling error of one failed worker
// (first writer wins) and raises the stop latch.
func (p *parRun) latchFailure(err error) {
	p.failMu.Lock()
	if p.failErr == nil {
		p.failErr = err
	}
	p.failMu.Unlock()
	p.stop.Store(true)
}

// failure returns the latched worker failure, if any.
func (p *parRun) failure() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failErr
}

// width is the run's shard fan-out width: 1 without a parRun.
func (env *evalEnv) width() int {
	if env.par == nil {
		return 1
	}
	return env.par.n
}

// workerEnv derives a shard worker's private environment: fresh arena,
// tick, and error latch over the shared run state a shard op reads (its
// view is set per attempt: attemptShardOp).
func (env *evalEnv) workerEnv() *evalEnv {
	return &evalEnv{vars: env.vars, ctx: env.ctx, par: env.par, mem: env.mem, fplan: env.fplan, ftally: env.ftally}
}

// latchStop surfaces into env.err whatever raised the run's stop latch.
// A latched worker failure (a blown budget) outranks cancellation: stop
// may be raised by either, and ctx.Err() is nil when the run died of a
// failure rather than cancellation.
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

// forEachShard runs the keyed op on every picked shard, marking it
// touched, and returns each shard's run and keys by shard index. Each
// shard gets a private worker environment and routes itself to a
// replica through runShardOp. At width 1 the shards run one after
// another on the driver. At a wider run the driver still runs the last
// picked shard itself and counts as one of the width. Worker errors
// latch into the driver env, with PartialFailureErrors from different
// shards merged into one naming every lost shard.
func (env *evalEnv) forEachShard(picked []int, op shardOp) (outs [][]slotRow, keys [][]uint64) {
	outs = make([][]slotRow, len(env.ss.Views))
	keys = make([][]uint64, len(env.ss.Views))
	fn := func(s int, w *evalEnv) { outs[s], keys[s] = env.runShardOp(s, w, true, op) }
	width := env.width()
	var sem chan struct{}
	var wg sync.WaitGroup
	workers := make([]*evalEnv, 0, len(picked))
	for i, s := range picked {
		if env.err != nil || (env.par != nil && env.par.stop.Load()) {
			break
		}
		env.touched[s] = true
		w := env.workerEnv()
		workers = append(workers, w)
		if width == 1 || i == len(picked)-1 {
			fn(s, w)
			if w.err != nil {
				break
			}
			continue
		}
		if sem == nil {
			sem = make(chan struct{}, width-1)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(s int, w *evalEnv) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(s, w)
		}(s, w)
	}
	wg.Wait()
	if merr := mergeShardErrors(workers); merr != nil && env.err == nil {
		env.err = merr
	}
	env.latchStop()
	return outs, keys
}

// pickReplica selects the next replica for an op on shard s, by the
// straggler scores when the set carries health state and in index
// order otherwise. -1 means every replica was already
// tried this pass.
func pickReplica(h *ReplicaHealth, s int, tried []bool) int {
	if h != nil {
		return h.pick(s, tried)
	}
	for r, t := range tried {
		if !t {
			return r
		}
	}
	return -1
}

// shardOp is one per-shard operation: the bind join of pattern cp over
// the batch in, or, with cps set, a whole pushdown BGP; max > 0 caps
// each shard's run (LIMIT pushdown). It is a value, not a closure, so
// an op that runs on the driver alone — every op on a graph — costs no
// allocation for itself.
type shardOp struct {
	cp  *cPattern
	in  []slotRow
	cps []cPattern
	max int
}

// picks is the pruning peek: whether a shard's view holds candidates
// for the op's pattern, or for every pattern of its pushdown BGP (a
// conjunction: one empty pattern empties the shard's contribution).
func (op shardOp) picks(view *rdf.EncodedView) bool {
	for i := range op.cps {
		if len(scanOn(view, &op.cps[i]).candidates) == 0 {
			return false
		}
	}
	return op.cps != nil || len(scanOn(view, op.cp).candidates) > 0
}

// run runs the op against a worker environment whose view is already
// pointed at the shard. It returns its rows and, when keyed (more than
// one shard takes part in the operation), their ascending merge keys
// (bindKey). Returning the output buffers (instead of writing shared
// state) is what keeps a failed attempt out of the output: only the
// successful attempt's return value is committed by runShardOp's
// caller.
func (op shardOp) run(w *evalEnv, keyed bool) ([]slotRow, []uint64) {
	if op.cps != nil {
		return pushdownShard(w, op.cps, op.max, keyed)
	}
	return bindShard(w, op.cp, op.in, op.max, keyed)
}

// fatalAttemptErr reports whether an attempt error is a query-level
// verdict, never retried on another replica: cancellation, the run's
// own deadline, or budget exhaustion (retrying would charge the same
// bytes against the same shared budget).
func fatalAttemptErr(err error) bool {
	var be *BudgetError
	return errors.As(err, &be) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// shardPlan is the fault plan the shard operations consult: the run's,
// except on a graph, whose one view has no replica to fail over to.
func (env *evalEnv) shardPlan() *fault.Plan {
	if env.route == RouteLocal {
		return nil
	}
	return env.fplan
}

// runShardOp executes one per-shard operation (a bind join or a
// pushdown BGP) fault-tolerantly and returns its output: the op runs
// against a replica of shard s chosen by the straggler scores, with
// injected or returned failures — and recovered panics — failing over
// immediately to the next replica; full passes over the replica set
// are separated by capped exponential backoff charged against the
// context's remaining deadline. The op gives up, latching a
// PartialFailureError naming the shard into the worker's error, only
// after every replica failed in retry.Cycles consecutive passes.
// Cancellation is never retried. env is the run's driver environment;
// w may be env itself.
//
// Failover is invisible in results because every replica of a shard
// scans the same view (ShardSet.Replicas) and exactly one attempt's
// returned buffers are committed.
func (env *evalEnv) runShardOp(s int, w *evalEnv, keyed bool, op shardOp) ([]slotRow, []uint64) {
	replicas := max(env.ss.Replicas, 1)
	if env.shardPlan() == nil && replicas == 1 {
		// Nothing to inject and nothing to fail over to — but panics
		// are still isolated into the error latch: a crashing scan must
		// kill the query, not the process serving it. This is the
		// disarmed fast path; it allocates nothing beyond the op.
		rows, keys, err := env.attemptShardOp(w, s, -1, keyed, op)
		if err != nil {
			w.err = err
			return nil, nil
		}
		return rows, keys
	}
	h := env.ss.Health
	tried := make([]bool, replicas)
	lastFailed := -1
	for cycle := 0; ; {
		r := pickReplica(h, s, tried)
		if r < 0 {
			// Every replica failed this pass.
			cycle++
			if cycle >= env.retry.Cycles {
				w.err = &PartialFailureError{Shards: []int{s}}
				return nil, nil
			}
			if err := env.backoff(cycle); err != nil {
				w.err = err
				return nil, nil
			}
			for i := range tried {
				tried[i] = false
			}
			continue
		}
		w.ftally.attempts.Add(1)
		if lastFailed >= 0 && r != lastFailed {
			w.ftally.failovers.Add(1)
		}
		start := time.Now()
		rows, keys, err := env.attemptShardOp(w, s, r, keyed, op)
		if err == nil {
			if h != nil {
				h.ok(s, r, time.Since(start))
			}
			return rows, keys
		}
		if fatalAttemptErr(err) {
			w.err = err
			return nil, nil
		}
		if h != nil {
			h.fail(s, r)
		}
		w.ftally.retries.Add(1)
		tried[r] = true
		lastFailed = r
	}
}

// attemptShardOp runs op once on shard s as one replica, converting
// injected faults (the scatter and replica points) and panics into
// returned errors. A latched worker error (cancellation observed
// mid-scan) surfaces as the attempt's error; successful attempts
// return the op's private output buffers.
func (env *evalEnv) attemptShardOp(w *evalEnv, s, replica int, keyed bool, op shardOp) (rows []slotRow, keys []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if w.ftally != nil {
				w.ftally.panics.Add(1)
			}
			rows, keys = nil, nil
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if plan := env.shardPlan(); plan != nil && replica >= 0 {
		if e := plan.Hit(fault.PointScatter); e != nil {
			return nil, nil, e
		}
		if e := plan.Hit(fault.ReplicaPoint(s, replica)); e != nil {
			return nil, nil, e
		}
	}
	w.err = nil
	w.view = env.ss.Views[s]
	rows, keys = op.run(w, keyed)
	if w.err != nil {
		return nil, nil, w.err
	}
	return rows, keys, nil
}

// backoff sleeps the capped exponential delay before retry pass
// cycle+1, charged against the context's remaining deadline: when the
// budget cannot cover the delay the op stops waiting and reports the
// deadline instead of sleeping through it.
func (env *evalEnv) backoff(cycle int) error {
	dur := env.retry.backoffFor(cycle)
	ctx := env.ctx
	if ctx == nil {
		time.Sleep(dur)
		return nil
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= dur {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maxBindRows is the largest batch bindPattern ships — on a graph too,
// where it bounds a BGP's row batch: a merge key holds the input row's
// index in its upper half (bindKey), signed like the position beside
// it. A variable so tests can lower it.
var maxBindRows = math.MaxInt32

// bindKey packs a shard op's merge key: the index of the input row an
// output row extends, then the global position of the triple extending
// it. Ascending keys are single-graph emission order: input rows in
// sequence, and under each its matches in dataset order.
func bindKey(i int, pos int32) uint64 { return uint64(i)<<32 | uint64(uint32(pos)) }

// bindPattern is one step of the bind join: it extends every row of in
// by the triples matching cp, returning exactly the rows, in exactly
// the order, a single graph's pass over the same rows emits. Each shard
// that can contribute receives the whole batch in one shard operation,
// probes its own view per input row (bindShard) and answers a run
// ascending in bindKey; a triple lives on exactly one shard and a
// view's positions ascend within any index range, so the k-way merge of
// the runs is the single-graph order by construction. first marks the
// BGP's first pattern, whose batch is the empty row alone — a plain
// scatter, or a graph's seed scan. max > 0 caps each shard's run (LIMIT
// pushdown): a run is a subsequence of the merged order, so the merged
// leading max rows draw only from per-shard prefixes of at most max
// rows.
func (env *evalEnv) bindPattern(cp *cPattern, first bool, in []slotRow, max int) []slotRow {
	env.scatter++
	sp := env.patternSpan(cp, first, in)
	defer env.endSpan(sp)
	if len(in) > maxBindRows {
		env.err = &rdf.CapacityError{What: "bind-join rows", Limit: int64(maxBindRows)}
		return nil
	}
	var retries0, failovers0 int64
	if sp != nil {
		// Scatters run one at a time on the driver, so the run-tally
		// deltas across this op are exactly its own retries/failovers.
		retries0, failovers0 = env.ftally.retries.Load(), env.ftally.failovers.Load()
	}
	merged := env.fanOut(sp, shardOp{cp: cp, in: in, max: max})
	if sp != nil && env.err == nil {
		if n := env.ftally.retries.Load() - retries0; n > 0 {
			sp.SetInt("retries", n)
		}
		if n := env.ftally.failovers.Load() - failovers0; n > 0 {
			sp.SetInt("failovers", n)
		}
	}
	return merged
}

// patternSpan opens the span of one bind-join step on a traced run: a
// scatter on a shard set; on a graph the single-graph names, seed_scan
// for the first pattern (with its candidate count) and match after it
// (with its input rows).
func (env *evalEnv) patternSpan(cp *cPattern, first bool, in []slotRow) *obs.Span {
	if env.trace == nil {
		return nil
	}
	local := env.route == RouteLocal
	var sp *obs.Span
	switch {
	case !local:
		sp = env.trace.Begin("scatter")
	case first:
		sp = env.trace.Begin("seed_scan")
	default:
		sp = env.trace.Begin("match")
		sp.SetInt("rows_in", int64(len(in)))
	}
	sp.SetInt("pattern", int64(cp.src))
	sp.SetInt("est", int64(cp.est))
	if local && first {
		sp.SetInt("candidates", int64(len(scanOn(env.view, cp).candidates)))
	}
	return sp
}

// fanOut runs one shard operation on every shard it picks and merges
// the shards' runs. An operation one shard is picked for runs on the
// driver environment itself and builds no merge keys: its run is the
// answer. sp, the operation's span on a traced run, gets the merged row
// count and, on a shard set, how many shards were picked
// (shards_scanned, or shards_covering on pushdown) and each
// contributing shard's row count.
func (env *evalEnv) fanOut(sp *obs.Span, op shardOp) []slotRow {
	if env.err != nil { // the batch's own rows blew the budget
		return nil
	}
	var buf [8]int
	picked := buf[:0]
	for s, view := range env.ss.Views {
		if op.picks(view) {
			picked = append(picked, s)
		}
	}
	var merged []slotRow
	var outs [][]slotRow
	switch len(picked) {
	case 0:
	case 1:
		if env.touched != nil { // nil on a graph, which reports no shards
			env.touched[picked[0]] = true
		}
		merged, _ = env.runShardOp(picked[0], env, false, op)
	default:
		var keys [][]uint64
		outs, keys = env.forEachShard(picked, op)
		if env.err == nil {
			merged = gather(env, outs, keys)
		}
	}
	if env.err != nil {
		return nil
	}
	if sp != nil && env.route != RouteLocal {
		attr := "shards_scanned"
		if op.cps != nil {
			attr = "shards_covering"
		}
		sp.SetInt(attr, int64(len(picked)))
		if outs == nil && len(merged) > 0 {
			sp.SetInt("shard_"+strconv.Itoa(picked[0])+"_rows", int64(len(merged)))
		}
		for s, o := range outs {
			if len(o) > 0 {
				sp.SetInt("shard_"+strconv.Itoa(s)+"_rows", int64(len(o)))
			}
		}
	}
	sp.SetInt("rows", int64(len(merged)))
	return merged
}

// bindShard is one shard's side of bindPattern: it resolves cp's
// constants on this shard's view once, then for each input row in turn
// the positions the row binds, scans the smallest index range and emits
// every extension, keyed when the op is by (input index, global
// position), the position read from the view's column beside the
// candidate. A row binding a term this shard does not hold there —
// under subject placement, every row of a star arm on every shard but
// one — has no range to scan. The output batch is charged where it is
// sized and grown. max > 0 stops the op once that many rows exist.
func bindShard(w *evalEnv, cp *cPattern, in []slotRow, max int, keyed bool) ([]slotRow, []uint64) {
	op := scanOn(w.view, cp)
	if len(op.candidates) == 0 { // a miss, or nothing here
		return nil, nil
	}
	var rows []slotRow
	var keys []uint64
	for i, row := range in {
		ps := op
		ps.resolve(row)
		cands := ps.candidates
		for off := 0; off < len(cands); {
			n := w.block(len(cands) - off)
			if n == 0 {
				return nil, nil
			}
			for j, t := range cands[off : off+n] {
				if !ps.matches(t) {
					continue
				}
				if rows == nil {
					// One row per candidate left under this input row and
					// one per input row to come; on a keyed op, where those
					// rows may each match on another shard, a start on them
					// only — the rule below takes it from there.
					rest := len(in) - i - 1
					if keyed {
						rest = min(rest, 64)
					}
					c := outputCap(len(cands)-off-j+rest, max)
					w.chargeRowBatch(c, stageJoin)
					rows = make([]slotRow, 0, c)
					if keyed {
						keys = make([]uint64, 0, c)
						if c < 256 { // a small op's arena is its rows, not newRow's chunk
							w.reserveRows(c)
						}
					}
				}
				rows = append(rows, ps.extend(w, row, t))
				if keyed {
					keys = append(keys, bindKey(i, ps.positions[off+j]))
				}
				if max > 0 && len(rows) >= max {
					return rows, keys
				}
			}
			off += n
		}
		// A pattern that fans out outgrows one slot per input row. Once
		// the output is half full, make room for what the rows still to
		// come will add at the fan-out seen so far — at most fourfold a
		// step, so a cartesian product still grows with its rows and not
		// ahead of them — instead of leaving it to append's many small
		// steps.
		if c := cap(rows); len(rows) > c/2 {
			if want := outputCap(min(len(rows)*len(in)/(i+1), 4*c), max); want > c {
				w.chargeRowBatch(want, stageJoin)
				rows = slices.Grow(rows, want-len(rows))
				if keyed {
					keys = slices.Grow(keys, want-len(keys))
				}
			}
		}
	}
	return rows, keys
}

// outputCap sizes a scan's output from its candidate count: one row per
// candidate — exact whenever the chosen index applied the scan's only
// bound position, an upper bound otherwise — or max when LIMIT pushdown
// stops the scan sooner.
func outputCap(candidates, max int) int {
	if max > 0 && max < candidates {
		return max
	}
	return candidates
}

// pushdownBGP evaluates the whole (subject-star) BGP on each covering
// shard independently and merges shard results by the seed triple's
// global position. Shards missing candidates for any pattern are
// pruned without scanning. max > 0 caps each shard's output, as in
// bindPattern.
func (env *evalEnv) pushdownBGP(cps []cPattern, max int) []slotRow {
	sp := env.span("pushdown")
	defer env.endSpan(sp)
	sp.SetInt("patterns", int64(len(cps)))
	return env.fanOut(sp, shardOp{cps: cps, max: max})
}

// pushdownShard runs the full pattern-at-a-time BGP loop against one
// shard's view, keying every result row, when the op is keyed, by the
// global position of its seed candidate (the view's position column, as
// in bindShard; the one input row is the empty row, index 0). Within
// one seed the extension order is the shard's insertion order — the
// same relative order the single graph's indexes hold — so rows under
// one key are already in single-graph order, and keys ascend across the
// list. max > 0 stops the loop once that many rows exist (the last seed
// may overshoot; callers truncate).
func pushdownShard(w *evalEnv, cps []cPattern, max int, keyed bool) ([]slotRow, []uint64) {
	empty := w.emptyRow()
	ps := w.preparePatternScan(&cps[0], empty)
	n := outputCap(len(ps.candidates), max)
	w.chargeRowBatch(n, stageJoin)
	rows := make([]slotRow, 0, n)
	var keys []uint64
	if keyed {
		keys = make([]uint64, 0, n)
	}
	var cur, next []slotRow
	for i, t := range ps.candidates {
		if w.interrupted() {
			return nil, nil
		}
		cur = cur[:0]
		if ps.matches(t) {
			cur = append(cur, ps.extend(w, empty, t))
		}
		for j := 1; j < len(cps) && len(cur) > 0; j++ {
			next = next[:0]
			for _, r := range cur {
				next = w.matchPattern(&cps[j], r, next)
				if w.err != nil {
					return nil, nil
				}
			}
			cur, next = next, cur
		}
		rows = append(rows, cur...)
		for range cur {
			if keyed {
				keys = append(keys, bindKey(0, ps.positions[i]))
			}
		}
		if max > 0 && len(rows) >= max {
			break
		}
	}
	return rows, keys
}

// gather k-way merges per-shard runs by their ascending keys, charging
// the merge buffer against the run's budget. A triple lives on exactly
// one shard, so two runs never hold the same key and the merge is total
// and deterministic.
func gather(env *evalEnv, outs [][]slotRow, keys [][]uint64) []slotRow {
	total, lists, last := 0, 0, -1
	for s, o := range outs {
		if len(o) > 0 {
			total, lists, last = total+len(o), lists+1, s
		}
	}
	if lists == 0 {
		return nil
	}
	if lists == 1 {
		return outs[last]
	}
	env.chargeRowBatch(total, stageGather)
	if env.err != nil { // over budget: skip the gather allocation
		return nil
	}
	sp := env.span("gather")
	defer env.endSpan(sp)
	sp.SetInt("lists", int64(lists))
	sp.SetInt("rows", int64(total))
	// heads[s] is run s's next key, or exhausted once the run is spent
	// (no key reaches it: an input index stays below 1<<31).
	const exhausted = math.MaxUint64
	merged := make([]slotRow, 0, total)
	idx := make([]int, len(outs))
	heads := make([]uint64, len(outs))
	for s := range heads {
		heads[s] = exhausted
		if len(keys[s]) > 0 {
			heads[s] = keys[s][0]
		}
	}
	for len(merged) < total {
		best := 0
		for s := 1; s < len(heads); s++ {
			if heads[s] < heads[best] {
				best = s
			}
		}
		i := idx[best]
		merged = append(merged, outs[best][i])
		idx[best] = i + 1
		heads[best] = exhausted
		if i+1 < len(keys[best]) {
			heads[best] = keys[best][i+1]
		}
	}
	return merged
}

// collectPatternSlots fills cp.slots with the distinct variable slots
// of the compiled pattern and masks the position pairs that share one.
func collectPatternSlots(cp *cPattern) {
	for _, e := range [3]cElem{cp.s, cp.p, cp.o} {
		if !e.isVar {
			continue
		}
		dup := false
		for _, s := range cp.slots {
			if s == e.slot {
				dup = true
				break
			}
		}
		if !dup {
			cp.slots = append(cp.slots, e.slot)
		}
	}
	same := func(a, b cElem) rdf.TermID {
		if a.isVar && b.isVar && a.slot == b.slot {
			return ^rdf.TermID(0)
		}
		return 0
	}
	cp.eqSP, cp.eqSO, cp.eqPO = same(cp.s, cp.p), same(cp.s, cp.o), same(cp.p, cp.o)
}
