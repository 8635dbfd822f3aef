package sparql

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// Prepared is a query compiled for repeated execution: the parsed
// algebra plus the Var→slot table, built once by Prepare and reused by
// every Run. A Prepared value is goroutine-safe — any number of Run /
// RunSolutions calls may execute concurrently against the same or
// different graphs — because each run builds its own evaluation
// environment (row arena, cancellation state) and only shares the
// immutable query, the slot table, and the mutex-guarded plan cache.
//
// The plan cache memoizes, per BGP of the query, the compiled triple
// patterns (constants resolved to dictionary ids) in selectivity order
// for one snapshot of the data: a graph's EncodedView pointer and its
// triple count, or a ShardSet pointer (shard sets are immutable once
// built). Re-running against the same snapshot skips
// parsing, slot-table construction, constant encoding, selectivity
// estimation, and join ordering; a run against a different graph — or
// the same graph after an Add — recompiles and replaces the cache.
// Cached plans are never mutated after publication, so concurrent runs
// share them without copying.
type Prepared struct {
	q           *Query
	vars        []Var
	slots       map[Var]int
	limitHint   int
	fingerprint string // normalized shape hash (fingerprint.go)

	// Plan memo: the compiled plan of each BGP, in evaluation order, for
	// one snapshot of the data (a graph's encoded view, or a shard set).
	mu       sync.Mutex
	planSnap snapshot
	plans    [][]cPattern

	// Cost-estimate memo (budget.go): the admission controller's work
	// estimate, keyed like the plan memo so the per-request hot path is
	// one mutex-guarded lookup.
	costSnap snapshot
	costVal  int64
}

// Prepare parses text and compiles it for repeated execution.
func Prepare(text string) (*Prepared, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return PrepareQuery(q), nil
}

// PrepareQuery compiles an already-parsed query for repeated execution.
// The query must not be mutated afterwards.
func PrepareQuery(q *Query) *Prepared {
	vars := q.Where.PatternVars()
	slots := make(map[Var]int, len(vars))
	for i, v := range vars {
		slots[v] = i
	}
	return &Prepared{
		q:           q,
		vars:        vars,
		slots:       slots,
		limitHint:   limitHintFor(q),
		fingerprint: FingerprintQuery(q),
	}
}

// Query returns the parsed query. Callers must treat it as read-only.
func (p *Prepared) Query() *Query { return p.q }

// RunStats reports how one Run executed. Request it with WithRunStats.
type RunStats struct {
	// Parallelism is the resolved shard fan-out width of a sharded run,
	// and 1 for a run on a single graph.
	Parallelism int
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

	// Tail-latency option (health.go): hedged shard operations.
	hedge *HedgePolicy

	// Memory-budget option (budget.go): > 0 bounds the run's charged
	// bytes, < 0 arms tracking only, 0 disables accounting.
	memBudget int64

	// Execution-trace option (trace.go): non-nil arms the run to
	// record a span tree under the trace's current span.
	trace *obs.Trace
}

// RunOption tunes one (*Prepared).Run / RunSolutions call.
type RunOption func(*runOpts)

// WithParallelism sets a sharded run's fan-out width: how many shards
// one shard operation (a pattern's bind join, a pushdown BGP) runs on
// at once. n <= 0 means GOMAXPROCS (the default); 1 runs the shards one
// after another on the calling goroutine. A run on a single graph is
// serial whatever n is, and its output is byte-identical either way.
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

// configure arms the environment for the run's options: the fan-out
// latch of a sharded run wider than one shard at a time, memory
// accounting and execution tracing. A single graph gets no parRun, no
// budget leaves env.mem nil and no trace leaves env.trace nil: every
// charge and span site costs one nil check.
func (env *evalEnv) configure(o *runOpts) {
	if env.ss != nil && o.parallelism > 1 {
		env.par = &parRun{n: o.parallelism}
	}
	if o.memBudget != 0 {
		mb := &memBudget{}
		if o.memBudget > 0 {
			mb.limit = o.memBudget
		}
		env.mem = mb
	}
	env.trace = o.trace
}

// capture fills the caller's RunStats and FaultStats after the run.
func (o *runOpts) capture(env *evalEnv) {
	if env.trace != nil {
		env.finishRoot()
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
		}
	}
	if o.stats == nil {
		return
	}
	*o.stats = RunStats{Parallelism: env.width()}
	if env.mem != nil {
		o.stats.BytesCharged = env.mem.used.Load()
	}
}

// newEnv builds a fresh evaluation environment for one run, reusing
// the prepared slot table and wiring in the cancellation context. A
// context that can never be cancelled (Done() == nil, e.g.
// context.Background()) costs the hot loops nothing.
func (p *Prepared) newEnv(ctx context.Context, g *rdf.Graph) *evalEnv {
	view := g.Encoded()
	env := &evalEnv{
		g:         g,
		view:      view,
		terms:     view.Dict().Terms(),
		slots:     p.slots,
		vars:      p.vars,
		stats:     g.Stats(),
		limitHint: p.limitHint,
		prep:      p,
	}
	env.ftally = &env.tally
	// The fault plan is read off the raw context: chaos plans also ride
	// uncancellable contexts, which env.ctx deliberately drops.
	env.fplan = fault.From(ctx)
	if ctx != nil && ctx.Done() != nil {
		env.ctx = ctx
	}
	return env
}

// Run evaluates the prepared query over g, honoring ctx: when the
// context is cancelled or its deadline passes, the evaluation aborts
// promptly (the join and scan loops poll the context with an amortized
// check every cancelCheckEvery rows) and Run returns ctx.Err(). A run
// on one graph is serial: it evaluates on the calling goroutine.
func (p *Prepared) Run(ctx context.Context, g *rdf.Graph, opts ...RunOption) (*Results, error) {
	ro := resolveRunOpts(opts)
	return p.runWith(ctx, g, &ro)
}

func (p *Prepared) runWith(ctx context.Context, g *rdf.Graph, ro *runOpts) (*Results, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	env := p.newEnv(ctx, g)
	env.configure(ro)
	res, err := evaluate(env, p.q)
	ro.capture(env)
	return res, err
}

// cachedPlan returns the cached plan of the seq-th BGP for the given
// snapshot, or nil when no matching plan is cached.
func (p *Prepared) cachedPlan(snap snapshot, seq int) []cPattern {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.planSnap != snap || seq >= len(p.plans) {
		return nil
	}
	return p.plans[seq]
}

// storePlan publishes the compiled plan of the seq-th BGP for the
// given snapshot, discarding plans of any other snapshot.
func (p *Prepared) storePlan(snap snapshot, seq int, cps []cPattern) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.planSnap != snap {
		p.planSnap = snap
		p.plans = p.plans[:0]
	}
	for len(p.plans) <= seq {
		p.plans = append(p.plans, nil)
	}
	p.plans[seq] = cps
}

// Solutions is a result sequence positioned for streaming: for plain
// SELECT (and ASK) queries the rows stay in id space with all solution
// modifiers already applied, and each term is decoded on access — a
// serializer can write row after row straight into a response without
// ever materializing a []Binding. Aggregates, CONSTRUCT, and DESCRIBE
// need term values for every solution, so those forms carry decoded
// rows (or the result graph) behind the same accessors.
//
// A Solutions value is read-only and safe for concurrent readers; it
// pins the evaluation environment (and through it the graph's term
// dictionary snapshot) until released to the GC.
type Solutions struct {
	vars []Var

	// id-space backing (plain SELECT).
	env  *evalEnv
	rows []slotRow
	cols []int // vars[i] → slot, -1 when the variable never binds

	// decoded backing (aggregates and other forms).
	decoded []Binding

	isAsk   bool
	ask     bool
	isGraph bool
	triples []rdf.Triple
}

// RunSolutions evaluates the prepared query over g like Run, but
// returns the solutions positioned for streaming instead of a
// materialized Results. Cancellation and the RunOptions behave exactly
// as in Run.
func (p *Prepared) RunSolutions(ctx context.Context, g *rdf.Graph, opts ...RunOption) (*Solutions, error) {
	ro := resolveRunOpts(opts)
	if p.streamable() {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		env := p.newEnv(ctx, g)
		env.configure(&ro)
		return p.solutionsFromEnv(env, &ro)
	}
	res, err := p.runWith(ctx, g, &ro)
	if err != nil {
		return nil, err
	}
	return ResultsSolutions(res), nil
}

// streamable reports whether the query's solutions can stay in id
// space for streaming: plain SELECT and ASK. Aggregates, CONSTRUCT,
// and DESCRIBE need term values for every solution.
func (p *Prepared) streamable() bool {
	q := p.q
	return (q.Form == FormSelect || q.Form == FormAsk) && q.Agg == nil
}

// solutionsFromEnv runs the streamable tail shared by RunSolutions and
// RunShardedSolutions over an armed environment: evaluate the WHERE
// pattern, apply the id-space modifier pipeline, and position the
// surviving rows for on-access term decoding.
func (p *Prepared) solutionsFromEnv(env *evalEnv, ro *runOpts) (*Solutions, error) {
	q := p.q
	defer ro.capture(env)
	rows, err := env.evalPattern(q.Where)
	if err != nil {
		return nil, err
	}
	if env.err != nil {
		return nil, env.err
	}
	if q.Form == FormAsk {
		return &Solutions{isAsk: true, ask: len(rows) > 0}, nil
	}
	vars := q.SelectedVars()
	rows = env.modifierPipeline(q, vars, rows)
	if env.err != nil { // cancelled inside the pipeline (top-K scan)
		return nil, env.err
	}
	cols := make([]int, len(vars))
	for i, v := range vars {
		if s, ok := env.slots[v]; ok {
			cols[i] = s
		} else {
			cols[i] = -1
		}
	}
	return &Solutions{vars: vars, env: env, rows: rows, cols: cols}, nil
}

// ResultsSolutions wraps an already-materialized Results behind the
// Solutions accessors, so serializers written against the streaming
// API also accept results from engines that only produce Bindings.
func ResultsSolutions(res *Results) *Solutions {
	return &Solutions{
		vars:    res.Vars,
		decoded: res.Rows,
		isAsk:   res.IsAsk,
		ask:     res.Ask,
		isGraph: res.IsGraph,
		triples: res.Triples,
	}
}

// Vars returns the result variables in projection order (read-only).
func (s *Solutions) Vars() []Var { return s.vars }

// Len returns the number of solution rows.
func (s *Solutions) Len() int {
	if s.env != nil {
		return len(s.rows)
	}
	return len(s.decoded)
}

// IsAsk reports whether this is an ASK answer (see Ask).
func (s *Solutions) IsAsk() bool { return s.isAsk }

// Ask returns the boolean answer of an ASK query.
func (s *Solutions) Ask() bool { return s.ask }

// IsGraph reports whether this is a CONSTRUCT/DESCRIBE graph result
// (see Graph).
func (s *Solutions) IsGraph() bool { return s.isGraph }

// Graph returns the triples of a graph result (read-only).
func (s *Solutions) Graph() []rdf.Triple { return s.triples }

// Term returns the term bound to column col of row, decoding it from
// the id-space row on the fly; ok is false for unbound positions. It
// allocates nothing and may be called from concurrent readers.
func (s *Solutions) Term(row, col int) (rdf.Term, bool) {
	if s.env != nil {
		id, ok := s.TermID(row, col)
		if !ok {
			return rdf.Term{}, false
		}
		return s.env.terms[id], true
	}
	t, ok := s.decoded[row][s.vars[col]]
	return t, ok
}

// TermID returns the dictionary id bound to column col of row while the
// solutions are still in id space (a plain SELECT over the graph or
// shard set that was evaluated); ok is false for an unbound position
// and for decoded solutions, whose terms only Term returns.
func (s *Solutions) TermID(row, col int) (rdf.TermID, bool) {
	if s.env == nil {
		return 0, false
	}
	slot := s.cols[col]
	if slot < 0 {
		return 0, false
	}
	id := s.rows[row][slot]
	return id, id != unboundID
}

// Results materializes the solutions as a Results value (decoding every
// row). It is the bridge back to the non-streaming API.
func (s *Solutions) Results() *Results {
	if s.isAsk {
		return &Results{IsAsk: true, Ask: s.ask}
	}
	if s.isGraph {
		return &Results{IsGraph: true, Triples: s.triples}
	}
	if s.env == nil {
		return &Results{Vars: s.vars, Rows: s.decoded}
	}
	return &Results{Vars: append([]Var{}, s.vars...), Rows: s.env.decodeRows(s.rows)}
}
