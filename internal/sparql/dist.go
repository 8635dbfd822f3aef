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

// Distributed (sharded) evaluation. A dataset split into N shard views
// around one shared dictionary (rdf.NewPositionedView) executes
// prepared queries through (*Prepared).RunSharded exactly as a single
// graph would — byte-identical rows and order — because every merge
// happens in id space under two invariants:
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
//
// Both prune shards that cannot contribute: a shard whose indexes hold
// no candidates for a pattern (the vertical / semantic payoff) is
// skipped unscanned and reported through ShardStats / ShardExplain.

// ShardSet describes a sharded dataset to the distributed executor. It
// is immutable once built (shard graphs must not be mutated), and safe
// for unlimited concurrent RunSharded calls.
type ShardSet struct {
	// Dict is the dictionary every shard encodes through.
	Dict *rdf.Dictionary
	// Views are the per-shard encoded views. Each carries its triples'
	// global positions (rdf.NewPositionedView) — the merge key for
	// deterministic gathers, read beside the triples a scan walks.
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
	// shard s is the index that its breaker, health score, hedge and
	// fault point (fault.ReplicaPoint(s, r)) are keyed by, and every
	// attempt on any replica scans Views[s]. Failover therefore cannot
	// change a row of query output.
	Replicas int
	// Health carries the per-replica circuit breakers steering replica
	// selection. Nil disables breaker steering (replicas are tried in
	// index order). It is the set's only mutable field and is
	// internally synchronized.
	Health *ReplicaHealth
}

// ShardRoute identifies how the distributed executor ran a query.
type ShardRoute string

// The two execution routes.
const (
	RoutePushdown ShardRoute = "pushdown"
	RouteScatter  ShardRoute = "scatter-gather"
)

// ShardStats reports how one sharded run executed. Request it with
// WithShardStats.
type ShardStats struct {
	// Route is the route the query took.
	Route ShardRoute
	// Shards is the number of shards in the set.
	Shards int
	// ShardsTouched counts the shards the run actually scanned.
	ShardsTouched int
	// ShardsPruned counts the shards skipped because their indexes
	// could not contribute a candidate (Shards - ShardsTouched).
	ShardsPruned int
	// ScatterPatterns counts the triple patterns whose row batches were
	// shipped to the shards (0 on the pushdown route).
	ScatterPatterns int
}

// ShardExplain reports, without executing, how a prepared query would
// run over a shard set.
type ShardExplain struct {
	Route         ShardRoute
	Shards        int
	ShardsTouched int
	ShardsPruned  int
	// Patterns is the number of triple patterns in the query.
	Patterns int
}

// WithShardStats makes a sharded run fill st with its execution report
// just before returning. Ignored by non-sharded runs.
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
// decoded on access.
func (p *Prepared) RunShardedSolutions(ctx context.Context, ss *ShardSet, opts ...RunOption) (*Solutions, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	ro := resolveRunOpts(opts)
	d := p.newDistEnv(ctx, ss, &ro)
	defer ro.captureShard(d)
	return p.solutionsFromEnv(d.env, &ro)
}

// ExplainSharded reports, without executing, which route the query
// would take over the shard set and how many shards its pattern
// constants can touch. The same candidate peeks drive the report and
// the executor's pruning, so the prediction is an upper bound on a
// subsequent run's touched shards: a run touches exactly these shards
// unless an intermediate result empties early, in which case it stops
// scattering and touches fewer.
func (p *Prepared) ExplainSharded(ss *ShardSet) ShardExplain {
	d := p.newDistEnv(nil, ss, &runOpts{parallelism: 1})
	ex := ShardExplain{Route: d.route, Shards: len(ss.Views)}
	touched := make([]bool, len(ss.Views))
	var walk func(GraphPattern)
	walk = func(gp GraphPattern) {
		switch n := gp.(type) {
		case BGP:
			cps := d.env.planFor(n)
			ex.Patterns += len(cps)
			for s, view := range ss.Views {
				if d.route == RoutePushdown {
					if shardCovers(view, cps) {
						touched[s] = true
					}
					continue
				}
				for i := range cps {
					if viewCandidateCount(view, &cps[i]) > 0 {
						touched[s] = true
						break
					}
				}
			}
		case Group:
			for _, part := range n.Parts {
				walk(part)
			}
		case Filter:
			walk(n.Inner)
		case Optional:
			walk(n.Left)
			walk(n.Right)
		case Union:
			walk(n.Left)
			walk(n.Right)
		}
	}
	walk(p.q.Where)
	for _, t := range touched {
		if t {
			ex.ShardsTouched++
		}
	}
	ex.ShardsPruned = ex.Shards - ex.ShardsTouched
	return ex
}

// distEnv is the driver state of one sharded run: the global evaluation
// environment (slot table, shared-dictionary term snapshot, global
// statistics, join arena) plus the shard set and the routing/pruning
// bookkeeping.
type distEnv struct {
	env     *evalEnv
	ss      *ShardSet
	route   ShardRoute
	touched []bool // shard s contributed at least one candidate scan
	scatter int    // patterns scattered across shards

	// Fault handling (replica.go): the run's injection plan (nil
	// outside chaos runs) and the shard-op retry policy.
	plan  *fault.Plan
	retry RetryPolicy

	// Tail-latency defense (health.go): > 0 arms hedged shard ops.
	hedgeDelay time.Duration
}

// newDistEnv builds the driver environment of one sharded run. The
// global env carries no view — every index scan happens on a shard —
// but shares the query's slot table and the full dictionary snapshot,
// and routes BGP evaluation through the shard hook, so joins, filters
// and the whole answer tail run the single-graph code unchanged (a
// DESCRIBE reads its subjects' triples off every shard: subjectTriples).
func (p *Prepared) newDistEnv(ctx context.Context, ss *ShardSet, ro *runOpts) *distEnv {
	env := &evalEnv{
		ss:        ss,
		dict:      ss.Dict,
		terms:     ss.Dict.Terms(),
		slots:     p.slots,
		vars:      p.vars,
		stats:     ss.Stats,
		limitHint: p.limitHint,
		prep:      p,
	}
	env.ftally = &env.tally
	// Read the fault plan off the raw context: chaos plans also ride
	// uncancellable contexts, which env.ctx deliberately drops.
	env.fplan = fault.From(ctx)
	if ctx != nil && ctx.Done() != nil {
		env.ctx = ctx
	}
	env.configure(ro)
	d := &distEnv{
		env:        env,
		ss:         ss,
		touched:    make([]bool, len(ss.Views)),
		plan:       env.fplan,
		retry:      ro.retry.withDefaults(),
		hedgeDelay: ro.hedgeDelay,
	}
	d.route = p.shardRoute(ss, ro.forceScatter)
	env.bgp = d.evalBGP
	return d
}

// shardRoute picks the execution route: pushdown when the WHERE clause
// is a single subject-star BGP and the placement co-locates subjects,
// the per-pattern bind join (scatter-gather) otherwise.
func (p *Prepared) shardRoute(ss *ShardSet, forceScatter bool) ShardRoute {
	if forceScatter || !ss.SubjectColocated || !p.subjectStar() {
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

// captureShard fills the caller's ShardStats after a sharded run and,
// on a traced run, stamps the routing report onto the trace root.
func (o *runOpts) captureShard(d *distEnv) {
	if o.shardStats == nil && d.env.trace == nil {
		return
	}
	st := ShardStats{Route: d.route, Shards: len(d.ss.Views), ScatterPatterns: d.scatter}
	for _, t := range d.touched {
		if t {
			st.ShardsTouched++
		}
	}
	st.ShardsPruned = st.Shards - st.ShardsTouched
	if o.shardStats != nil {
		*o.shardStats = st
	}
	if d.env.trace != nil {
		root := d.env.trace.Root()
		root.SetStr("route", string(st.Route))
		root.SetInt("shards", int64(st.Shards))
		root.SetInt("shards_touched", int64(st.ShardsTouched))
		root.SetInt("shards_pruned", int64(st.ShardsPruned))
	}
}

// evalBGP evaluates one BGP over the shards: the pushdown route when
// the run qualified, otherwise a bind join — pattern by pattern, the
// whole batch of rows bound so far goes to the shards and comes back
// extended (bindPattern), as evalEnv.evalBGP extends it on one graph.
// The plan is compiled from the global statistics, so pattern order —
// and with it row order — is exactly the single-graph plan's.
func (d *distEnv) evalBGP(b BGP) []slotRow {
	cps := d.env.planFor(b)
	if d.route == RoutePushdown && len(cps) > 0 {
		return d.pushdownBGP(cps, d.env.limitHint)
	}
	rows := []slotRow{d.env.emptyRow()}
	for i := range cps {
		max := 0
		if i == len(cps)-1 {
			// limitHint is only set when this BGP is the whole WHERE
			// clause, so its last pattern emits the final row sequence.
			max = d.env.limitHint
		}
		rows = d.bindPattern(&cps[i], rows, max)
		if len(rows) == 0 { // nothing left to extend, or the run failed
			break
		}
	}
	return rows
}

// viewCandidateCount returns the size of the smallest index view a
// pattern's constants select on one shard — the executor's pruning
// peek: zero means the shard cannot contribute a single candidate.
func viewCandidateCount(view *rdf.EncodedView, cp *cPattern) int {
	if (!cp.s.isVar && !cp.s.ok) || (!cp.p.isVar && !cp.p.ok) || (!cp.o.isVar && !cp.o.ok) {
		return 0
	}
	n := view.Len()
	if !cp.s.isVar {
		n = len(view.WithSubject(cp.s.id))
	}
	if !cp.o.isVar {
		if m := len(view.WithObject(cp.o.id)); m < n {
			n = m
		}
	}
	if !cp.p.isVar {
		if m := len(view.WithPredicate(cp.p.id)); m < n {
			n = m
		}
	}
	return n
}

// shardCovers reports whether a shard holds candidates for every
// pattern of a conjunctive plan — the pushdown prune: a BGP is a
// conjunction, so one empty pattern empties the shard's contribution.
func shardCovers(view *rdf.EncodedView, cps []cPattern) bool {
	for i := range cps {
		if viewCandidateCount(view, &cps[i]) == 0 {
			return false
		}
	}
	return true
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
// tick, and error latch over the shared immutable run state.
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
	}
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

// forEachShard runs fn(s, w) for every picked shard, marking it touched.
// Each invocation gets a private worker environment; fn routes itself
// to a replica through runShardOp. At width 1 the shards run one
// after another on the driver. At a wider run the driver still runs the
// last picked shard itself and counts as one of the width, so the op
// that pruning leaves a single shard for — every constant-subject
// pattern, most selective bind joins — starts no goroutine. Worker
// errors latch into the global env, with PartialFailureErrors from
// different shards merged into one naming every lost shard.
func (d *distEnv) forEachShard(picked []int, fn func(s int, w *evalEnv)) {
	env := d.env
	width := env.width()
	var sem chan struct{}
	var wg sync.WaitGroup
	workers := make([]*evalEnv, 0, len(picked))
	for i, s := range picked {
		if env.err != nil || (env.par != nil && env.par.stop.Load()) {
			break
		}
		d.touched[s] = true
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
}

// pickReplica selects the next replica for an op on shard s, through
// the breakers and straggler scores when the set carries health state
// and in index order otherwise. -1 means every replica was already
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

// shardOp is one per-shard operation body — a bind join of one pattern
// or a pushdown BGP — run against a worker environment whose view is
// already pointed at the shard. It returns its rows with
// their ascending merge keys (bindKey). Returning the output buffers
// (instead of writing shared state) is what lets hedged attempts race:
// racing copies compute into private buffers, and only the winning
// attempt's return value is committed by runShardOp's caller.
type shardOp func(w *evalEnv) ([]slotRow, []uint64)

// fatalAttemptErr reports whether an attempt error is a query-level
// verdict, never retried on another replica: cancellation, the run's
// own deadline, or budget exhaustion (retrying would charge the same
// bytes against the same shared budget).
func fatalAttemptErr(err error) bool {
	var be *BudgetError
	return errors.As(err, &be) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runShardOp executes one per-shard operation (a bind join or a
// pushdown BGP) fault-tolerantly and returns its output: the op runs
// against a replica of shard s chosen by the circuit breakers and
// straggler scores, with injected or returned failures — and recovered
// panics — failing over immediately to the next replica; full passes
// over the replica set are separated by capped exponential backoff
// charged against the context's remaining deadline. With a hedge
// policy armed (WithHedge) and more than one replica, an attempt
// that outlives the hedge delay races a second copy on the next-best
// replica — first success wins, the loser is cancelled through its
// taskStop claim. The op gives up, latching a PartialFailureError
// naming the shard into the worker's error, only after every replica
// failed in retry.Cycles consecutive passes. Cancellation is never
// retried.
//
// Failover and hedging are invisible in results because every replica
// of a shard scans the same view (ShardSet.Replicas) and exactly one
// attempt's returned buffers are committed.
func (d *distEnv) runShardOp(s int, w *evalEnv, op shardOp) ([]slotRow, []uint64) {
	replicas := max(d.ss.Replicas, 1)
	if d.plan == nil && replicas == 1 {
		// Nothing to inject and nothing to fail over to — but panics
		// are still isolated into the error latch: a crashing scan must
		// kill the query, not the process serving it. This is the
		// disarmed fast path; it allocates nothing beyond the op.
		rows, keys, err := d.attemptShardOp(w, s, -1, op)
		if err != nil {
			w.err = err
			return nil, nil
		}
		return rows, keys
	}
	h := d.ss.Health
	hedging := d.hedgeDelay > 0 && replicas > 1
	tried := make([]bool, replicas)
	lastFailed := -1
	for cycle := 0; ; {
		r := pickReplica(h, s, tried)
		if r < 0 {
			// Every replica failed this pass.
			cycle++
			if cycle >= d.retry.Cycles {
				w.err = &PartialFailureError{Shards: []int{s}}
				return nil, nil
			}
			if err := d.backoff(cycle); err != nil {
				w.err = err
				return nil, nil
			}
			for i := range tried {
				tried[i] = false
			}
			continue
		}
		if hedging {
			rows, keys, done := d.racedAttempt(w, s, r, tried, &lastFailed, op)
			if done {
				return rows, keys
			}
			continue
		}
		w.ftally.attempts.Add(1)
		if lastFailed >= 0 && r != lastFailed {
			w.ftally.failovers.Add(1)
		}
		start := time.Now()
		rows, keys, err := d.attemptShardOp(w, s, r, op)
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

// racedAttempt runs one hedged pass of a shard op: the primary attempt
// launches immediately, and if the hedge delay elapses first, a second
// copy launches on the next-best replica not already racing or failed.
// The first success wins and is returned (done=true); the loser is
// cancelled through its taskStop claim and drains into the buffered
// channel without being read. A fatal error also ends the op
// (done=true, with w.err latched). When every racing attempt fails
// non-fatally the pass reports done=false and the caller's retry loop
// picks the next replica.
func (d *distEnv) racedAttempt(w *evalEnv, s, primary int, tried []bool, lastFailed *int, op shardOp) ([]slotRow, []uint64, bool) {
	h := d.ss.Health
	type attemptRes struct {
		rows []slotRow
		keys []uint64
		err  error
		r    int
		dur  time.Duration
	}
	resCh := make(chan attemptRes, 2) // buffered: a loser's send never blocks
	var stops []*atomic.Bool
	launch := func(r int) {
		w.ftally.attempts.Add(1)
		if *lastFailed >= 0 && r != *lastFailed {
			w.ftally.failovers.Add(1)
		}
		stop := &atomic.Bool{}
		stops = append(stops, stop)
		ae := w.workerEnv()
		ae.par = nil
		ae.taskStop = stop
		go func() {
			start := time.Now()
			rows, keys, err := d.attemptShardOp(ae, s, r, op)
			resCh <- attemptRes{rows: rows, keys: keys, err: err, r: r, dur: time.Since(start)}
		}()
	}
	racing := make([]bool, len(tried))
	racing[primary] = true
	launch(primary)
	timer := time.NewTimer(d.hedgeDelay)
	defer timer.Stop()
	inFlight, hedged := 1, false
	for {
		select {
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			avoid := make([]bool, len(tried))
			for i := range avoid {
				avoid[i] = tried[i] || racing[i]
			}
			if r2 := pickReplica(h, s, avoid); r2 >= 0 {
				racing[r2] = true
				w.ftally.hedges.Add(1)
				launch(r2)
				inFlight++
			}
		case res := <-resCh:
			inFlight--
			if res.err == nil {
				if h != nil {
					h.ok(s, res.r, res.dur)
				}
				if res.r != primary {
					w.ftally.hedgeWins.Add(1)
				}
				for _, st := range stops {
					st.Store(true)
				}
				return res.rows, res.keys, true
			}
			if fatalAttemptErr(res.err) {
				w.err = res.err
				for _, st := range stops {
					st.Store(true)
				}
				return nil, nil, true
			}
			if h != nil {
				h.fail(s, res.r)
			}
			w.ftally.retries.Add(1)
			tried[res.r] = true
			*lastFailed = res.r
			if inFlight > 0 {
				continue // the other copy may still win this pass
			}
			return nil, nil, false
		}
	}
}

// attemptShardOp runs op once on shard s as one replica, converting
// injected faults (the scatter and replica points) and panics into
// returned errors. A latched worker error (cancellation observed
// mid-scan) surfaces as the attempt's error; successful attempts
// return the op's private output buffers.
func (d *distEnv) attemptShardOp(w *evalEnv, s, replica int, op shardOp) (rows []slotRow, keys []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if w.ftally != nil {
				w.ftally.panics.Add(1)
			}
			rows, keys = nil, nil
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if d.plan != nil && replica >= 0 {
		if e := d.plan.Hit(fault.PointScatter); e != nil {
			return nil, nil, e
		}
		if e := d.plan.Hit(fault.ReplicaPoint(s, replica)); e != nil {
			return nil, nil, e
		}
	}
	w.err = nil
	w.view = d.ss.Views[s]
	rows, keys = op(w)
	if w.err != nil {
		return nil, nil, w.err
	}
	return rows, keys, nil
}

// backoff sleeps the capped exponential delay before retry pass
// cycle+1, charged against the context's remaining deadline: when the
// budget cannot cover the delay the op stops waiting and reports the
// deadline instead of sleeping through it.
func (d *distEnv) backoff(cycle int) error {
	dur := d.retry.backoffFor(cycle)
	ctx := d.env.ctx
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

// maxBindRows is the largest batch bindPattern ships: a merge key holds
// the input row's index in its upper half (bindKey), signed like the
// position beside it. A variable so tests can lower it.
var maxBindRows = math.MaxInt32

// bindKey packs a shard op's merge key: the index of the input row an
// output row extends, then the global position of the triple extending
// it. Ascending keys are single-graph emission order: input rows in
// sequence, and under each its matches in dataset order.
func bindKey(i int, pos int32) uint64 { return uint64(i)<<32 | uint64(uint32(pos)) }

// bindPattern is one step of the sharded bind join: it extends every
// row of in by the triples matching cp, returning exactly the rows, in
// exactly the order, evalEnv.evalBGP's pass over the same rows emits on
// the single graph. Each shard that can contribute receives the whole
// batch in one shard operation, probes its own view per input row
// (bindShard) and answers a run ascending in bindKey; a triple lives on
// exactly one shard and a view's positions ascend within any index
// range, so the k-way merge of the runs is the single-graph order by
// construction. The first pattern's batch is the empty row alone — a
// plain scatter. max > 0 caps each shard's run (LIMIT pushdown): a run
// is a subsequence of the merged order, so the merged leading max rows
// draw only from per-shard prefixes of at most max rows.
func (d *distEnv) bindPattern(cp *cPattern, in []slotRow, max int) []slotRow {
	d.scatter++
	env := d.env
	sp := env.span("scatter")
	defer env.endSpan(sp)
	if len(in) > maxBindRows {
		env.err = &rdf.CapacityError{What: "bind-join rows", Limit: int64(maxBindRows)}
		return nil
	}
	var retries0, failovers0 int64
	if sp != nil {
		sp.SetInt("pattern", int64(cp.src))
		sp.SetInt("est", int64(cp.est))
		// Scatters run one at a time on the driver, so the run-tally
		// deltas across this op are exactly its own retries/failovers.
		retries0, failovers0 = env.ftally.retries.Load(), env.ftally.failovers.Load()
	}
	merged := d.fanOut(sp, "shards_scanned",
		func(v *rdf.EncodedView) bool { return viewCandidateCount(v, cp) > 0 },
		func(w *evalEnv) ([]slotRow, []uint64) { return bindShard(w, cp, in, max) })
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

// fanOut runs one shard operation on every shard pick selects — the
// pruning peek at the shard's view — and merges the shards' runs. sp, the operation's span on a traced run, gets how many
// shards were picked (under pickedAttr), each contributing shard's row
// count, and the merged count.
func (d *distEnv) fanOut(sp *obs.Span, pickedAttr string, pick func(*rdf.EncodedView) bool, op shardOp) []slotRow {
	nsh := len(d.ss.Views)
	picked := make([]int, 0, nsh)
	for s, view := range d.ss.Views {
		if pick(view) {
			picked = append(picked, s)
		}
	}
	outs := make([][]slotRow, nsh)
	keys := make([][]uint64, nsh)
	d.forEachShard(picked, func(s int, w *evalEnv) { outs[s], keys[s] = d.runShardOp(s, w, op) })
	if d.env.err != nil {
		return nil
	}
	if sp != nil {
		sp.SetInt(pickedAttr, int64(len(picked)))
		for s := range outs {
			if len(outs[s]) > 0 {
				sp.SetInt("shard_"+strconv.Itoa(s)+"_rows", int64(len(outs[s])))
			}
		}
	}
	merged := gather(d.env, outs, keys)
	sp.SetInt("rows", int64(len(merged)))
	return merged
}

// bindShard is one shard's side of bindPattern: for each input row in
// turn it resolves cp under the row, scans the smallest index range of
// this shard's view and emits every extension keyed by (input index,
// global position), the position read from the view's column beside the
// candidate. max > 0 stops the op once that many rows exist.
func bindShard(w *evalEnv, cp *cPattern, in []slotRow, max int) ([]slotRow, []uint64) {
	var rows []slotRow
	var keys []uint64
	for i, row := range in {
		// A row that binds the pattern's subject to a term this shard
		// does not hold extends to nothing here — under subject placement,
		// every row of a star arm on every shard but one — and one offset
		// read says so before a scan is prepared.
		if cp.s.isVar && row[cp.s.slot] != unboundID && len(w.view.WithSubject(row[cp.s.slot])) == 0 {
			continue
		}
		ps := w.preparePatternScan(cp, row)
		if ps.miss {
			return nil, nil
		}
		cands, positions := ps.candidates, ps.positions
		for len(cands) > 0 {
			n := w.block(len(cands))
			if n == 0 {
				return nil, nil
			}
			for j, t := range cands[:n] {
				if !ps.matches(t) {
					continue
				}
				if rows == nil {
					// One row per candidate left under this input row and
					// a start on the rows to come, which may each match on
					// another shard; the rule below takes it from there.
					c := outputCap(len(cands)-j+min(len(in)-i-1, 64), max)
					rows, keys = make([]slotRow, 0, c), make([]uint64, 0, c)
					if c < 256 { // a small op's arena is its rows, not newRow's chunk
						w.reserveRows(c)
					}
				}
				rows = append(rows, ps.extend(w, row, t))
				keys = append(keys, bindKey(i, positions[j]))
				if max > 0 && len(rows) >= max {
					return rows, keys
				}
			}
			cands, positions = cands[n:], positions[n:]
		}
		// A pattern that fans out outgrows one slot per input row. Once
		// the output is half full, make room for what the rows still to
		// come will add at the fan-out seen so far, at most fourfold a
		// step (evalEnv.evalBGP's rule), not append's many small steps.
		if c := cap(rows); len(rows) > c/2 {
			if want := outputCap(min(len(rows)*len(in)/(i+1), 4*c), max); want > c {
				rows = slices.Grow(rows, want-len(rows))
				keys = slices.Grow(keys, want-len(keys))
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
func (d *distEnv) pushdownBGP(cps []cPattern, max int) []slotRow {
	sp := d.env.span("pushdown")
	defer d.env.endSpan(sp)
	sp.SetInt("patterns", int64(len(cps)))
	return d.fanOut(sp, "shards_covering",
		func(v *rdf.EncodedView) bool { return shardCovers(v, cps) },
		func(w *evalEnv) ([]slotRow, []uint64) { return pushdownShard(w, cps, max) })
}

// pushdownShard runs the full pattern-at-a-time BGP loop against one
// shard's view, keying every result row by the global position of its
// seed candidate (the view's position column, as in bindShard; the one
// input row is the empty row, index 0). Within one seed the extension
// order is the shard's insertion order — the same relative order the
// single graph's indexes hold — so rows under one key are already in
// single-graph order, and keys ascend across the list. max > 0 stops
// the loop once that many rows exist (the last seed may overshoot;
// callers truncate).
func pushdownShard(w *evalEnv, cps []cPattern, max int) ([]slotRow, []uint64) {
	empty := w.emptyRow()
	ps := w.preparePatternScan(&cps[0], empty)
	if ps.miss {
		return nil, nil
	}
	n := outputCap(len(ps.candidates), max)
	rows := make([]slotRow, 0, n)
	keys := make([]uint64, 0, n)
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
			keys = append(keys, bindKey(0, ps.positions[i]))
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
// of the compiled pattern and masks the position pairs that share one
// (shared by the single-graph and sharded compilers).
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
