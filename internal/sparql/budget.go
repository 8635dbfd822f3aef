package sparql

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fault"
)

// Per-query memory accounting. The surveyed Spark systems inherit
// executor memory management from the platform: a task that outgrows
// its executor's budget is spilled or killed, and one pathological job
// cannot take a whole worker down. The native engine reproduces that
// governance in-process: a run armed with WithMemoryBudget charges a
// shared byte counter at every allocation site the evaluator owns —
// arena chunk growth (newRow/reserveRows), hash-join tables, probe
// cursors and output batches, and the sharded gather's merge buffer —
// and aborts with a typed BudgetError
// the moment the charges exceed the budget.
//
// The contract mirrors cancellation exactly: a budget abort rides the
// same latched-error machinery (evalEnv.err, parRun.latchFailure), so
// a budgeted run either completes with output byte-identical to an
// unbudgeted serial run or fails with the typed error — never partial
// rows. Charges happen where allocations are already amortized (a row
// arena charges once per 256-row chunk, not per row), and an unarmed
// run pays one nil check per charge site, so the serial allocation
// pins are untouched when no budget is set.
//
// Accounting is deliberately a lower bound on the process's true
// allocation: small fixed-size structures (pattern scans, per-shard
// tag lists, modifier scratch) are not charged, and a shard attempt
// re-run after a failover charges its arena chunks again. The budget
// bounds the dominant, input-proportional allocations — result rows
// and join state — which is what an overload guard needs.

// termIDBytes is the byte size of one rdf.TermID (the unit every row
// slot and join-table entry costs).
const termIDBytes = 4

// rowHeaderBytes is the byte size of one slotRow slice header in a row
// batch ([]slotRow) — charged when an output batch is pre-sized.
const rowHeaderBytes = 24

// Charge-site stage labels, reported in BudgetError.Stage.
const (
	stageArena  = "arena"  // row-arena chunk growth
	stageJoin   = "join"   // hash-join tables, cursors, output batches
	stageGather = "gather" // sharded scatter-gather merge buffers
)

// BudgetError reports a query aborted by its memory budget: the run
// had charged Used bytes against a Limit-byte budget when the charge
// at Stage pushed it over. It is the memory analogue of the
// cancellation error: when Run returns it, no partial rows escaped.
type BudgetError struct {
	// Used is the total bytes the run had charged, including the
	// charge that exceeded the budget.
	Used int64
	// Limit is the configured budget (WithMemoryBudget).
	Limit int64
	// Stage names the charge site that went over: "arena", "join", or
	// "gather".
	Stage string
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sparql: query memory budget exceeded at %s: %d bytes charged, limit %d",
		e.Stage, e.Used, e.Limit)
}

// memBudget is the byte tracker one budgeted run shares across its
// shard scans: a single atomic counter, so charges from concurrent
// shard workers all draw down the same budget.
type memBudget struct {
	// limit is the configured bound; 0 means track-only (no abort).
	limit int64
	used  atomic.Int64
}

// WithMemoryBudget bounds the bytes one run may charge for its row
// arenas, join state, and gather buffers. bytes > 0 makes the run
// abort with a *BudgetError once its charges exceed the budget;
// bytes < 0 arms tracking only (RunStats.BytesCharged fills, nothing
// aborts); 0 — the default — disables accounting entirely, leaving
// the hot paths with one nil check per charge site.
func WithMemoryBudget(bytes int64) RunOption {
	return func(o *runOpts) { o.memBudget = bytes }
}

// charge records n bytes of evaluator-owned allocation against the
// run's budget. Unbudgeted runs return after one nil check. Going
// over the limit (or hitting an armed fault.PointMem) latches a
// *BudgetError into the environment — and, under a sharded fan-out,
// into the shared failure latch, stopping every shard worker at its
// next amortized poll — exactly like cancellation, which is what keeps
// a budget abort free of partial rows.
func (env *evalEnv) charge(n int64, stage string) {
	mb := env.mem
	if mb == nil || n <= 0 {
		return
	}
	used := mb.used.Add(n)
	if env.err != nil {
		return
	}
	over := mb.limit > 0 && used > mb.limit
	if !over && env.fplan != nil {
		if e := env.fplan.Hit(fault.PointMem); e != nil {
			over = true
		}
	}
	if !over {
		return
	}
	berr := &BudgetError{Used: used, Limit: mb.limit, Stage: stage}
	env.err = berr
	if env.par != nil {
		env.par.latchFailure(berr)
	}
}

// chargeJoinTable charges the chained-array hash table a join just
// built (head + next, int32 each).
func (env *evalEnv) chargeJoinTable(head, next []int32) {
	env.charge(int64(len(head)+len(next))*termIDBytes, stageJoin)
}

// chargeRowBatch charges an output batch of n slotRow headers about to
// be allocated at the given stage.
func (env *evalEnv) chargeRowBatch(n int, stage string) {
	env.charge(int64(n)*rowHeaderBytes, stage)
}

// Cost estimation. The admission controller (internal/server) weighs
// queries by estimated work before they hold a worker slot, using the
// same Graph.Stats selectivity estimates the planner orders joins
// with. The estimate is unitless and deliberately coarse: it ranks
// queries (a cartesian product scores orders of magnitude above a
// selective star), it does not predict latency.

// costCap saturates cost arithmetic well below overflow.
const costCap = int64(1) << 62

func satAdd(a, b int64) int64 {
	if a > costCap-b {
		return costCap
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > costCap/b {
		return costCap
	}
	return a * b
}

// EstimateCost returns the planner's work estimate for running p over
// ss (a graph is GraphSet(g)): per BGP, triple patterns group into
// connected components by shared variables, each component
// contributes the sum of its patterns' estimated candidate counts,
// and the component sums multiply — so a BGP whose patterns share no
// variables (the nested-loop cartesian fallback) scores as the
// product it would produce, while a connected query scores as the sum
// of its scans. Groups fold the same way: parts sharing no variables
// multiply. Constants resolve through the set's shared dictionary and
// cardinalities sum across shards, so a sharded estimate equals the
// single-graph estimate over the equivalent unsharded dataset. The
// estimate is cached per snapshot alongside the plan memo.
func (p *Prepared) EstimateCost(ss *ShardSet) int64 {
	snap := snapshotOf(ss)
	p.mu.Lock()
	if p.costSnap == snap {
		c := p.costVal
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	env := &evalEnv{ss: ss, slots: p.slots, vars: p.vars, stats: ss.Stats}
	c := costOfPattern(p.q.Where, len(p.vars), env.compilePattern)
	p.mu.Lock()
	p.costSnap, p.costVal = snap, c
	p.mu.Unlock()
	return c
}

// costOfPattern walks one graph pattern, estimating each triple
// pattern with compile (the planner's own selectivity estimator).
func costOfPattern(gp GraphPattern, nslots int, compile func(TriplePattern) cPattern) int64 {
	switch n := gp.(type) {
	case BGP:
		return bgpCost(n, nslots, compile)
	case Group:
		// The Group fold joins parts left to right; a part sharing no
		// variables with what came before falls back to the nested
		// loop, so its cost multiplies instead of adding.
		cost := int64(0)
		seen := make([]bool, nslots)
		for i, part := range n.Parts {
			c := costOfPattern(part, nslots, compile)
			vars := make([]bool, nslots)
			patternSlotSet(part, compile, vars)
			if i == 0 {
				cost = c
			} else if slotsOverlap(seen, vars) {
				cost = satAdd(cost, c)
			} else {
				cost = satMul(max64(cost, 1), max64(c, 1))
			}
			for s, v := range vars {
				if v {
					seen[s] = true
				}
			}
		}
		return cost
	case Filter:
		return costOfPattern(n.Inner, nslots, compile)
	case Optional:
		return satAdd(costOfPattern(n.Left, nslots, compile), costOfPattern(n.Right, nslots, compile))
	case Union:
		return satAdd(costOfPattern(n.Left, nslots, compile), costOfPattern(n.Right, nslots, compile))
	default:
		return 0
	}
}

// bgpCost scores one BGP: patterns partition into connected components
// over shared variable slots (union-find); each component costs the
// sum of its patterns' estimates, and components multiply — the
// cartesian the join engine would actually produce between them.
func bgpCost(b BGP, nslots int, compile func(TriplePattern) cPattern) int64 {
	if len(b.Patterns) == 0 {
		return 0
	}
	cps := make([]cPattern, len(b.Patterns))
	for i, tp := range b.Patterns {
		cps[i] = compile(tp)
	}
	// Union-find over pattern indexes, keyed by first pattern seen per
	// slot.
	parent := make([]int, len(cps))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	slotOwner := make([]int, nslots)
	for i := range slotOwner {
		slotOwner[i] = -1
	}
	for i, cp := range cps {
		for _, s := range cp.slots {
			if slotOwner[s] < 0 {
				slotOwner[s] = i
			} else {
				parent[find(i)] = find(slotOwner[s])
			}
		}
	}
	sums := make(map[int]int64, len(cps))
	total := int64(0)
	for i, cp := range cps {
		r := find(i)
		sums[r] = satAdd(sums[r], int64(cp.est))
		total = satAdd(total, int64(cp.est))
	}
	product := int64(1)
	for _, s := range sums {
		product = satMul(product, max64(s, 1))
	}
	return max64(total, product)
}

// patternSlotSet marks, in set, every variable slot the pattern's
// triple patterns touch (compile resolves Var→slot).
func patternSlotSet(gp GraphPattern, compile func(TriplePattern) cPattern, set []bool) {
	switch n := gp.(type) {
	case BGP:
		for _, tp := range n.Patterns {
			cp := compile(tp)
			for _, s := range cp.slots {
				set[s] = true
			}
		}
	case Group:
		for _, part := range n.Parts {
			patternSlotSet(part, compile, set)
		}
	case Filter:
		patternSlotSet(n.Inner, compile, set)
	case Optional:
		patternSlotSet(n.Left, compile, set)
		patternSlotSet(n.Right, compile, set)
	case Union:
		patternSlotSet(n.Left, compile, set)
		patternSlotSet(n.Right, compile, set)
	}
}

func slotsOverlap(a, b []bool) bool {
	for i, v := range a {
		if v && b[i] {
			return true
		}
	}
	return false
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
