package sparql

import (
	"context"
	"runtime"
	"slices"
	"sync"

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
// for one snapshot of the data: the set's first EncodedView pointer and
// its triple count (GraphSet wraps a graph anew on every run; a graph's
// view keeps its pointer). Re-running against the same snapshot skips
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
	// one snapshot of the data (snapshotOf).
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
	// Parallelism is the resolved shard fan-out width of a run on a
	// shard set, and 1 for a run on a graph (RouteLocal), which is
	// serial.
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

	// Shard-execution options (dist.go): the execution report sink and
	// the route override (ignored on a graph).
	shardStats   *ShardStats
	forceScatter bool

	// Fault-handling options (replica.go): the fault counters sink and
	// the shard-op retry policy (zero value = defaults).
	faultStats *FaultStats
	retry      RetryPolicy

	// Memory-budget option (budget.go): > 0 bounds the run's charged
	// bytes, < 0 arms tracking only, 0 disables accounting.
	memBudget int64

	// Execution-trace option (trace.go): non-nil arms the run to
	// record a span tree under the trace's current span.
	trace *obs.Trace
}

// RunOption tunes one (*Prepared).Run / RunSolutions call.
type RunOption func(*runOpts)

// WithParallelism sets a run's shard fan-out width: how many shards one
// shard operation (a pattern's bind join, a pushdown BGP) runs on at
// once. n <= 0 means GOMAXPROCS (the default); 1 runs the shards one
// after another on the calling goroutine. A run on a graph — the
// one-shard set of RouteLocal — is serial whatever n is; an operation
// pruning leaves one shard for runs on the calling goroutine too. The
// output is byte-identical at every width.
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
// accounting and execution tracing. A graph gets no parRun, no budget
// leaves env.mem nil and no trace leaves env.trace nil: every charge
// and span site costs one nil check.
func (env *evalEnv) configure(o *runOpts) {
	if env.route != RouteLocal && o.parallelism > 1 {
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

// capture fills the caller's RunStats, FaultStats and ShardStats after
// the run and, on a traced run, stamps the run-wide counters and a
// shard set's routing report onto the trace root.
func (o *runOpts) capture(env *evalEnv) {
	if env.trace != nil {
		env.finishRoot()
	}
	if o.shardStats != nil {
		*o.shardStats = env.shardReport()
	}
	if o.faultStats != nil && env.ftally != nil {
		t := env.ftally
		*o.faultStats = FaultStats{
			Attempts:        t.attempts.Load(),
			Retries:         t.retries.Load(),
			Failovers:       t.failovers.Load(),
			RecoveredPanics: t.panics.Load(),
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

// Run evaluates the prepared query over g, honoring ctx: when the
// context is cancelled or its deadline passes, the evaluation aborts
// promptly (the join and scan loops poll the context with an amortized
// check every cancelCheckEvery rows) and Run returns ctx.Err(). A run
// on one graph is the one-shard run of its GraphSet, serial on the
// calling goroutine.
func (p *Prepared) Run(ctx context.Context, g *rdf.Graph, opts ...RunOption) (*Results, error) {
	return p.RunSharded(ctx, GraphSet(g), opts...)
}

// materialize is a Solutions-returning run's Results.
func materialize(s *Solutions, err error) (*Results, error) {
	if err != nil {
		return nil, err
	}
	return s.Results(), nil
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

// Solutions is a result sequence positioned for streaming: the rows of
// a SELECT stay in id space with every solution modifier (and the
// aggregate) already applied, and each term is decoded on access (Term)
// — a serializer can write row after row straight into a response. ASK
// carries its answer and CONSTRUCT and DESCRIBE their result graph
// behind the same accessors.
//
// A Solutions value is read-only and safe for concurrent readers; it
// pins the evaluation environment (and through it the graph's term
// dictionary snapshot) until released to the GC.
type Solutions struct {
	vars []Var
	idRows

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
	return p.RunShardedSolutions(ctx, GraphSet(g), opts...)
}

// Vars returns the result variables in projection order (read-only).
func (s *Solutions) Vars() []Var { return s.vars }

// IsAsk reports whether this is an ASK answer (see Ask).
func (s *Solutions) IsAsk() bool { return s.isAsk }

// Ask returns the boolean answer of an ASK query.
func (s *Solutions) Ask() bool { return s.ask }

// IsGraph reports whether this is a CONSTRUCT/DESCRIBE graph result
// (see Graph).
func (s *Solutions) IsGraph() bool { return s.isGraph }

// Graph returns the triples of a graph result (read-only).
func (s *Solutions) Graph() []rdf.Triple { return s.triples }

// TermID returns the dictionary id bound to column col of row; ok is
// false for an unbound position and for a value an aggregate computed
// that the dictionary lacks.
func (s *Solutions) TermID(row, col int) (rdf.TermID, bool) {
	id, ok := s.id(row, col)
	return id, ok && int(id) < len(s.env.terms)
}

// Results is the solutions as a Results value: it shares their id rows,
// copying none.
func (s *Solutions) Results() *Results {
	return &Results{Vars: slices.Clone(s.vars), Ask: s.ask, IsAsk: s.isAsk, Triples: s.triples, IsGraph: s.isGraph, idRows: s.idRows}
}
