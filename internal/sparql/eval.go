package sparql

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// The reference evaluator is slot-compiled: each query is compiled
// once into a Var→slot table, and every partial solution is a
// []rdf.TermID row indexed by slot (unboundID marking empty slots)
// over the graph's dictionary-encoded triples. Joins, OPTIONALs, and
// intra-pattern consistency checks compare 4-byte ids instead of
// string-bearing Terms, and extending a solution copies one small
// slice instead of cloning a map per candidate triple. BGPs are
// reordered by estimated selectivity from rdf.Stats (the SPARQLGX
// statistics) before evaluation. Ids are decoded back to Terms only
// when the final solution sequence is materialized as Bindings.

// unboundID marks an empty slot in a compiled solution row.
const unboundID = ^rdf.TermID(0)

// slotRow is one partial solution in id space: index i holds the id
// bound to the query's i-th variable, or unboundID. Rows are immutable
// once produced.
type slotRow []rdf.TermID

// Evaluate runs q over g with the reference evaluator: a direct,
// centralized implementation of the SPARQL algebra. Every distributed
// engine in internal/systems is tested against it. For repeated or
// cancellable evaluation use Prepare / (*Prepared).Run, which share
// this exact code path.
func Evaluate(q *Query, g *rdf.Graph) (*Results, error) {
	return evaluate(newEvalEnv(q, g), q)
}

// evaluate is the shared body of Evaluate and (*Prepared).Run.
func evaluate(env *evalEnv, q *Query) (*Results, error) {
	rows, err := env.evalPattern(q.Where)
	if err != nil {
		return nil, err
	}
	if env.err != nil {
		return nil, env.err
	}
	// Plain SELECT and ASK run the whole modifier pipeline in id
	// space and decode only the surviving rows. Aggregates, CONSTRUCT,
	// and DESCRIBE need term values for every solution, so they decode
	// first and share the engines' modifier tail.
	if (q.Form == FormSelect || q.Form == FormAsk) && q.Agg == nil {
		res := env.applyModifiers(q, rows)
		if env.err != nil { // cancelled inside the pipeline (top-K scan)
			return nil, env.err
		}
		return res, nil
	}
	decoded := env.decodeRows(rows)
	if q.Form == FormDescribe {
		if env.describe != nil {
			return env.describe(q, decoded), nil
		}
		return env.describeResources(q, decoded), nil
	}
	return ApplySolutionModifiers(q, decoded), nil
}

// applyModifiers applies projection / DISTINCT / ORDER BY / OFFSET /
// LIMIT over id-space rows, mirroring ApplySolutionModifiers exactly,
// and decodes only the rows that survive.
func (env *evalEnv) applyModifiers(q *Query, rows []slotRow) *Results {
	if q.Form == FormAsk {
		return &Results{IsAsk: true, Ask: len(rows) > 0}
	}
	vars := q.SelectedVars()
	rows = env.modifierPipeline(q, vars, rows)
	return &Results{Vars: append([]Var{}, vars...), Rows: env.decodeRows(rows)}
}

// modifierPipeline runs projection / DISTINCT / ORDER BY / OFFSET /
// LIMIT entirely in id space and returns the surviving rows undecoded.
// Both the Binding-materializing path (applyModifiers) and the
// streaming path ((*Prepared).RunSolutions) share it.
func (env *evalEnv) modifierPipeline(q *Query, vars []Var, rows []slotRow) []slotRow {
	sp := env.span("modifiers")
	sp.SetInt("rows_in", int64(len(rows)))
	rows = env.projectRows(rows, vars)
	if q.Distinct {
		rows = env.distinctRows(rows)
	}
	if len(q.OrderBy) > 0 {
		topK := -1
		if q.Limit >= 0 {
			if k := q.Limit + q.Offset; k >= 0 { // guard vs overflow
				topK = k
			}
		}
		rows = env.sortRows(rows, q.OrderBy, topK)
	}
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	sp.SetInt("rows", int64(len(rows)))
	env.endSpan(sp)
	return rows
}

// projectRows restricts rows to the selected variables by clearing
// every other slot. When the projection keeps every compiled slot the
// rows are returned as-is (no copy).
func (env *evalEnv) projectRows(rows []slotRow, vars []Var) []slotRow {
	keep := make([]bool, len(env.vars))
	kept := 0
	for _, v := range vars {
		if s, ok := env.slots[v]; ok && !keep[s] {
			keep[s] = true
			kept++
		}
	}
	if kept == len(env.vars) {
		return rows
	}
	out := make([]slotRow, len(rows))
	for i, row := range rows {
		nr := env.newRow(row)
		for s := range nr {
			if !keep[s] {
				nr[s] = unboundID
			}
		}
		out[i] = nr
	}
	return out
}

// distinctRows deduplicates rows on their full slot vector. Ids are
// injective over terms, so id equality is exactly the term equality
// the map-based DISTINCT uses.
func (env *evalEnv) distinctRows(rows []slotRow) []slotRow {
	seen := make(map[string]bool, len(rows))
	var kept []slotRow
	buf := make([]byte, 0, 4*len(env.vars))
	for _, row := range rows {
		buf = buf[:0]
		for _, id := range row {
			buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		if !seen[string(buf)] {
			seen[string(buf)] = true
			kept = append(kept, row)
		}
	}
	return kept
}

// keySlot is one compiled ORDER BY key: the slot it reads (-1 for a
// variable the query never binds) and its direction.
type keySlot struct {
	slot int
	asc  bool
}

func (env *evalEnv) compileOrderKeys(keys []OrderKey) []keySlot {
	ks := make([]keySlot, 0, len(keys))
	for _, k := range keys {
		if s, ok := env.slots[k.Var]; ok {
			ks = append(ks, keySlot{s, k.Asc})
		} else {
			ks = append(ks, keySlot{-1, k.Asc})
		}
	}
	return ks
}

// compareRowsByKeys three-way-compares two rows under the ORDER BY
// keys, with the same unbound-first/last semantics as Results.SortRows:
// an unbound value sorts before every bound value ascending and after
// every bound value descending.
func (env *evalEnv) compareRowsByKeys(a, b slotRow, ks []keySlot) int {
	for _, k := range ks {
		var ta, tb rdf.TermID = unboundID, unboundID
		if k.slot >= 0 {
			ta, tb = a[k.slot], b[k.slot]
		}
		if ta == unboundID && tb == unboundID {
			continue
		}
		if ta == unboundID {
			if k.asc {
				return -1
			}
			return 1
		}
		if tb == unboundID {
			if k.asc {
				return 1
			}
			return -1
		}
		c := CompareTerms(env.terms[ta], env.terms[tb])
		if c == 0 {
			continue
		}
		if !k.asc {
			c = -c
		}
		return c
	}
	return 0
}

// sortRows orders rows by the ORDER BY keys, with the same
// unbound-first/last and stability semantics as Results.SortRows, and
// returns the surviving prefix. topK < 0 (or >= len(rows)) requests
// the full stable sort in place. 0 <= topK < len(rows) — ORDER BY with
// a LIMIT (+ OFFSET) that keeps only the first topK rows — selects and
// orders those rows with a bounded max-heap instead of sorting the
// whole sequence: O(n log k) comparisons and one k-entry scratch
// allocation instead of O(n log n) over everything. Ties break on the
// original row index, which is exactly the order a stable full sort
// followed by truncation would produce.
func (env *evalEnv) sortRows(rows []slotRow, keys []OrderKey, topK int) []slotRow {
	ks := env.compileOrderKeys(keys)
	if topK >= 0 && topK < len(rows) {
		return env.topKRows(rows, ks, topK)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return env.compareRowsByKeys(rows[i], rows[j], ks) < 0
	})
	return rows
}

// heapEnt is one bounded-heap entry: a candidate row and its original
// index (the stability tie-break).
type heapEnt struct {
	row slotRow
	idx int
}

// entBefore reports whether a sorts strictly before b under the keys,
// breaking ties by original position (stable-sort order).
func (env *evalEnv) entBefore(a, b heapEnt, ks []keySlot) bool {
	if c := env.compareRowsByKeys(a.row, b.row, ks); c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}

// siftDown restores the max-heap property (largest entry at the root)
// from position i.
func (env *evalEnv) siftDown(h []heapEnt, i int, ks []keySlot) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && env.entBefore(h[l], h[r], ks) {
			big = r
		}
		if !env.entBefore(h[i], h[big], ks) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// topKRows writes the k smallest rows (under ks + stable tie-break),
// in sorted order, into rows[:k] and returns that prefix. It maintains
// a k-entry max-heap whose root is the worst candidate: a new row
// enters only by beating the root, and a final heap-sort pass orders
// the survivors.
func (env *evalEnv) topKRows(rows []slotRow, ks []keySlot, k int) []slotRow {
	if k == 0 {
		return rows[:0]
	}
	h := make([]heapEnt, k)
	for i := 0; i < k; i++ {
		h[i] = heapEnt{rows[i], i}
	}
	for i := k/2 - 1; i >= 0; i-- {
		env.siftDown(h, i, ks)
	}
	for i := k; i < len(rows); i++ {
		if env.interrupted() {
			break
		}
		if e := (heapEnt{rows[i], i}); env.entBefore(e, h[0], ks) {
			h[0] = e
			env.siftDown(h, 0, ks)
		}
	}
	for n := k - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		env.siftDown(h[:n], 0, ks)
	}
	out := rows[:k]
	for i, e := range h {
		out[i] = e.row
	}
	return out
}

// evalEnv is the per-query compilation environment: the slot table,
// the encoded graph view, and the dataset statistics driving join
// ordering. Rows are bump-allocated from chunked arenas, so producing
// a solution costs a copy, not a heap allocation.
type evalEnv struct {
	g    *rdf.Graph
	view *rdf.EncodedView
	// ss, on the driver of a sharded run (dist.go), is the shard set the
	// run plans against in place of view; nil on a single graph.
	ss    *ShardSet
	terms []rdf.Term // id→term snapshot for lock-free decoding
	slots map[Var]int
	vars  []Var // slot→var
	stats rdf.Stats
	arena []rdf.TermID // bump allocator for slot rows

	// Cancellation state ((*Prepared).Run): ctx is nil for
	// uncancellable evaluations (Evaluate, or a context that can never
	// be cancelled), so the hot loops pay one nil check. When set, the
	// loops poll ctx.Done() every cancelCheckEvery iterations through
	// interrupted(), latching the context error in err; every layer
	// above bails out as soon as err is non-nil.
	ctx  context.Context
	tick uint
	err  error

	// par is the shard fan-out state of a sharded run at width > 1
	// (dist.go): the width and the run-wide stop and failure latch its
	// shard goroutines share. Nil on a single graph, which evaluates
	// serially on the calling goroutine.
	par *parRun

	// limitHint, when > 0, is the number of leading rows the modifier
	// pipeline will keep (LIMIT + OFFSET, or 1 for ASK) for queries
	// whose WHERE clause is a single BGP and whose modifiers only
	// truncate (no DISTINCT, no ORDER BY): the BGP's last pattern may
	// stop producing once that many rows exist.
	limitHint int

	// Plan reuse ((*Prepared).Run): prep, when non-nil, caches each
	// BGP's compiled-and-ordered patterns across runs, keyed by the
	// snapshot. bgpSeq numbers planFor calls in (deterministic)
	// evaluation order to address the cache.
	prep   *Prepared
	bgpSeq int

	// Distributed evaluation hooks (dist.go). bgp, when non-nil,
	// overrides BGP evaluation — the sharded executor routes BGPs
	// through per-shard pushdown or the per-pattern bind join;
	// describe, when non-nil, resolves DESCRIBE targets across shards
	// instead of env.g. Everything else — joins, filters, UNION, the
	// modifier pipeline — runs the exact single-graph code above the
	// hooks, which is what keeps sharded output byte-identical.
	bgp      func(BGP) []slotRow
	describe func(*Query, []Binding) *Results

	// Fault handling (replica.go, internal/fault): fplan is the fault
	// plan installed on the run's context (nil outside chaos tests and
	// chaos serving); tally accumulates the run's fault counters and
	// ftally points at the root environment's tally so every worker
	// shares it. tally is embedded by value so arming fault stats costs
	// a run no extra allocation.
	fplan  *fault.Plan
	tally  faultTally
	ftally *faultTally

	// Memory accounting (budget.go): mem, when non-nil, is the run's
	// shared byte budget, charged at arena chunk growth, join-state
	// builds, and gather merges. Shard workers share the root
	// environment's tracker (workerEnv), so one budget spans the whole
	// run. Nil — the default — costs each charge site one nil check.
	mem *memBudget

	// Execution tracing (trace.go, internal/obs): trace, when non-nil,
	// records the run's span tree. The tree is mutated only by the
	// driver goroutine. Nil — the default — costs each span site one nil
	// check.
	trace *obs.Trace

	// taskStop, when non-nil, is the first-completion-wins claim of the
	// racing copies of a hedged shard attempt (dist.go). Once another
	// copy commits, interrupted() reports true WITHOUT latching an
	// error, so the losing copy quietly abandons its private work. Nil
	// everywhere outside a race.
	taskStop *atomic.Bool
}

// cancelCheckEvery is the amortization interval of the cancellation
// check: hot loops consult ctx.Done() once per this many iterations, so
// a cancellable run costs one counter increment per row instead of one
// channel poll.
const cancelCheckEvery = 1024

// interrupted reports whether the evaluation has been cancelled,
// polling the context at most once per cancelCheckEvery calls. Once it
// returns true it keeps returning true (the error is latched). Under a
// sharded fan-out the latch spans shard workers: the first environment
// to observe ctx.Done() raises the shared parRun.stop flag, and every
// other environment picks it up at its own next poll.
func (env *evalEnv) interrupted() bool { return env.block(1) == 0 }

// block is interrupted for a loop that visits its items in runs: of the
// next n items it returns how many (at least 1) may be visited before a
// poll falls due, having counted them on the tick, or 0 once the
// evaluation is interrupted. A poll still falls every cancelCheckEvery
// items, however short the runs that add up to them, and is taken
// before the run that reaches it.
func (env *evalEnv) block(n int) int {
	if env.err != nil {
		return 0
	}
	if env.ctx == nil && env.taskStop == nil {
		return n
	}
	if left := cancelCheckEvery - int(env.tick&(cancelCheckEvery-1)); n > left {
		n = left
	}
	if env.tick += uint(n); env.tick&(cancelCheckEvery-1) == 0 && env.poll() {
		return 0
	}
	return n
}

// poll is the slow half of block: the actual look at the race claim,
// the cross-worker latch and the context.
func (env *evalEnv) poll() bool {
	if env.taskStop != nil && env.taskStop.Load() {
		// This copy of the shard attempt lost its hedge race: stop
		// computing, but latch no error — the winner's result is already
		// committed and the run is healthy.
		return true
	}
	if env.ctx == nil {
		return false
	}
	if env.par != nil && env.par.stop.Load() {
		env.err = env.ctx.Err()
		return true
	}
	select {
	case <-env.ctx.Done():
		env.err = env.ctx.Err()
		if env.par != nil {
			env.par.stop.Store(true)
		}
		return true
	default:
		return false
	}
}

// newRow bump-allocates a row and initializes it as a copy of src
// (which may be shorter, e.g. empty). Rows handed out stay valid for
// the whole evaluation; exhausted chunks are abandoned to the GC along
// with the rows that reference them.
func (env *evalEnv) newRow(src slotRow) slotRow {
	w := len(env.vars)
	if w == 0 {
		return slotRow{}
	}
	if len(env.arena)+w > cap(env.arena) {
		chunk := 256 * w
		env.charge(int64(chunk)*termIDBytes, stageArena)
		env.arena = make([]rdf.TermID, 0, chunk)
	}
	start := len(env.arena)
	env.arena = env.arena[:start+w]
	row := slotRow(env.arena[start : start+w : start+w])
	copy(row, src)
	for i := len(src); i < w; i++ {
		row[i] = unboundID
	}
	return row
}

// reserveRows pre-sizes the arena for n upcoming rows, so the emit pass
// of a hash join bump-allocates every merged row out of a single chunk.
func (env *evalEnv) reserveRows(n int) {
	w := len(env.vars)
	if w == 0 || n <= 0 {
		return
	}
	if len(env.arena)+n*w <= cap(env.arena) {
		return
	}
	env.charge(int64(n*w)*termIDBytes, stageArena)
	env.arena = make([]rdf.TermID, 0, n*w)
}

func newEvalEnv(q *Query, g *rdf.Graph) *evalEnv {
	vars := q.Where.PatternVars()
	slots := make(map[Var]int, len(vars))
	for i, v := range vars {
		slots[v] = i
	}
	view := g.Encoded()
	env := &evalEnv{
		g:         g,
		view:      view,
		terms:     view.Dict().Terms(),
		slots:     slots,
		vars:      vars,
		stats:     g.Stats(),
		limitHint: limitHintFor(q),
	}
	env.ftally = &env.tally
	return env
}

// limitHintFor computes the LIMIT-pushdown hint of a query: the number
// of leading pattern rows the modifier pipeline keeps, or 0 when
// truncation cannot be pushed below the modifiers. The hint is only
// sound when the WHERE clause is a single BGP (its output feeds the
// pipeline directly — joins above a BGP could drop or multiply rows)
// and when every modifier preserves the leading rows: projection
// always does, DISTINCT and ORDER BY do not. ASK needs exactly one
// row; SELECT needs OFFSET+LIMIT.
func limitHintFor(q *Query) int {
	if q.Agg != nil || q.Distinct || len(q.OrderBy) > 0 || !isSoleBGP(q.Where) {
		return 0
	}
	switch q.Form {
	case FormAsk:
		return 1
	case FormSelect:
		if q.Limit >= 0 {
			if n := q.Limit + q.Offset; n > 0 {
				return n
			}
		}
	}
	return 0
}

// isSoleBGP reports whether the pattern is exactly one BGP, possibly
// wrapped in single-part groups. (Unlike Query.BGPOf it rejects a
// conjunction of several BGPs: those evaluate as a join fold, so the
// last BGP's output is not the final row sequence.)
func isSoleBGP(p GraphPattern) bool {
	for {
		switch n := p.(type) {
		case BGP:
			return true
		case Group:
			if len(n.Parts) != 1 {
				return false
			}
			p = n.Parts[0]
		default:
			return false
		}
	}
}

func (env *evalEnv) emptyRow() slotRow { return env.newRow(nil) }

// decodeRow materializes one id-space row as a Binding.
func (env *evalEnv) decodeRow(row slotRow) Binding {
	b := make(Binding, len(row))
	for i, id := range row {
		if id != unboundID {
			b[env.vars[i]] = env.terms[id]
		}
	}
	return b
}

func (env *evalEnv) decodeRows(rows []slotRow) []Binding {
	out := make([]Binding, len(rows))
	for i, row := range rows {
		out[i] = env.decodeRow(row)
	}
	return out
}

// describeResources returns the description graph of a DESCRIBE query:
// for every target resource (constant, or each binding of a target
// variable), all triples with that resource as subject — a simplified
// concise bounded description. The lookup stays in id space (dictionary
// → encoded view → decode), so describing a resource of a served graph
// never materializes the graph's term-space indexes.
func (env *evalEnv) describeResources(q *Query, rows []Binding) *Results {
	targets := map[rdf.Term]bool{}
	var order []rdf.Term
	add := func(t rdf.Term) {
		if t.IsLiteral() || targets[t] {
			return
		}
		targets[t] = true
		order = append(order, t)
	}
	for _, el := range q.Describe {
		if !el.IsVar {
			add(el.Term)
			continue
		}
		for _, b := range rows {
			if t, ok := b[el.Var]; ok {
				add(t)
			}
		}
	}
	res := &Results{IsGraph: true}
	seen := map[rdf.Triple]bool{}
	dict := env.view.Dict()
	for _, t := range order {
		id, ok := dict.Lookup(t)
		if !ok {
			continue
		}
		for _, e := range env.view.WithSubject(id) {
			tr := rdf.Triple{S: env.terms[e.S], P: env.terms[e.P], O: env.terms[e.O]}
			if !seen[tr] {
				seen[tr] = true
				res.Triples = append(res.Triples, tr)
			}
		}
	}
	return res
}

func (env *evalEnv) evalPattern(p GraphPattern) ([]slotRow, error) {
	if env.err != nil {
		return nil, env.err
	}
	switch n := p.(type) {
	case BGP:
		var rows []slotRow
		if env.bgp != nil {
			rows = env.bgp(n)
		} else {
			rows = env.evalBGP(n)
		}
		if env.err != nil { // cancelled mid-scan
			return nil, env.err
		}
		return rows, nil
	case Group:
		rows := []slotRow{env.emptyRow()}
		for _, part := range n.Parts {
			sub, err := env.evalPattern(part)
			if err != nil {
				return nil, err
			}
			rows = env.joinRows(rows, sub)
			if env.err != nil {
				return nil, env.err
			}
		}
		return rows, nil
	case Filter:
		rows, err := env.evalPattern(n.Inner)
		if err != nil {
			return nil, err
		}
		sp := env.span("filter")
		sp.SetInt("rows_in", int64(len(rows)))
		// Filter in place: every evalPattern result is freshly built and
		// referenced only by its parent, so the surviving rows can be
		// compacted into the same slice instead of growing a new one.
		kept := rows[:0]
		for _, row := range rows {
			if env.evalFilter(n.Cond, row) {
				kept = append(kept, row)
			}
		}
		sp.SetInt("rows", int64(len(kept)))
		env.endSpan(sp)
		return kept, nil
	case Optional:
		left, err := env.evalPattern(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := env.evalPattern(n.Right)
		if err != nil {
			return nil, err
		}
		rows := env.optionalRows(left, right)
		if env.err != nil { // cancelled mid-join: rows are partial
			return nil, env.err
		}
		return rows, nil
	case Union:
		left, err := env.evalPattern(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := env.evalPattern(n.Right)
		if err != nil {
			return nil, err
		}
		return env.unionRows(left, right), nil
	default:
		return nil, fmt.Errorf("sparql: cannot evaluate pattern %T", p)
	}
}

// unionRows concatenates the two branches of a UNION, sharing both
// branches' slot-row batches: the right-side rows are referenced, not
// copied through the arena. This leans on the engine-wide invariant
// that rows are immutable once produced — every downstream operator
// that rewrites a row (projection, merge) allocates a fresh one, and
// in-place operators (Filter's compaction, sortRows) only permute the
// row *slice*, which is freshly built here. TestUnionSharedBatchAllocs
// pins the no-copy behavior.
func (env *evalEnv) unionRows(left, right []slotRow) []slotRow {
	out := make([]slotRow, 0, len(left)+len(right))
	out = append(out, left...)
	return append(out, right...)
}

// compatibleRows reports whether two rows agree on every slot bound in
// both (the SPARQL join condition, in id space).
func compatibleRows(a, b slotRow) bool {
	for i, v := range a {
		if v != unboundID && b[i] != unboundID && b[i] != v {
			return false
		}
	}
	return true
}

// mergeRows returns the union of two compatible rows.
func (env *evalEnv) mergeRows(a, b slotRow) slotRow {
	out := env.newRow(a)
	for i, v := range b {
		if out[i] == unboundID {
			out[i] = v
		}
	}
	return out
}

// The join engine: joinRows, optionalRows, and the Group-part fold all
// run as one id-space hash join (hashJoin). The join key is the set of
// slots bound in every row of both sides (computed per join from the
// slot table); the smaller side is hashed on that key into a chained
// array table and the other side probes it. Candidate
// pairs are still verified with compatibleRows, so hash collisions and
// shared-but-non-key slots are handled exactly as the nested loop would.
// The nested loop survives as the fallback for the two cases a hash key
// cannot express: sides sharing no slots at all (a true cartesian
// product) and sides whose bindings are partial on the would-be build
// key (an unbound key slot is compatible with every value, which a hash
// bucket cannot model).

// sharedKeySlots returns the slots bound in every row of a AND every
// row of b — the hash-join key. An empty key means the join must fall
// back to the nested loop.
func (env *evalEnv) sharedKeySlots(a, b []slotRow) []int {
	w := len(env.vars)
	if w == 0 || len(a) == 0 || len(b) == 0 {
		return nil
	}
	const allA, allB = 1, 2
	flags := make([]uint8, w)
	for s, id := range a[0] {
		if id != unboundID {
			flags[s] |= allA
		}
	}
	for _, row := range a[1:] {
		for s, id := range row {
			if id == unboundID {
				flags[s] &^= allA
			}
		}
	}
	for s, id := range b[0] {
		if id != unboundID {
			flags[s] |= allB
		}
	}
	for _, row := range b[1:] {
		for s, id := range row {
			if id == unboundID {
				flags[s] &^= allB
			}
		}
	}
	key := make([]int, 0, w)
	for s, f := range flags {
		if f == allA|allB {
			key = append(key, s)
		}
	}
	return key
}

// rowKeyHash hashes the ids at the key slots (FNV-1a over the 4 bytes
// of each id). Equal key values always collide into the same bucket;
// unequal values that collide are rejected by compatibleRows.
func rowKeyHash(row slotRow, key []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range key {
		id := row[s]
		h = (h ^ uint64(id&0xff)) * prime64
		h = (h ^ uint64((id>>8)&0xff)) * prime64
		h = (h ^ uint64((id>>16)&0xff)) * prime64
		h = (h ^ uint64(id>>24)) * prime64
	}
	return h
}

// buildJoinTable hashes rows on the key slots into a chained array
// table: head[bucket] is the first row index, next[i] chains to the
// following one. Rows are inserted back to front so every bucket lists
// row indexes in ascending order, which keeps hash-join output in the
// exact order the nested loop would produce.
func buildJoinTable(rows []slotRow, key []int) (head, next []int32, mask uint64) {
	m := 1
	for m < 2*len(rows) {
		m <<= 1
	}
	head = make([]int32, m)
	for i := range head {
		head[i] = -1
	}
	next = make([]int32, len(rows))
	mask = uint64(m - 1)
	for i := len(rows) - 1; i >= 0; i-- {
		h := rowKeyHash(rows[i], key) & mask
		next[i] = head[h]
		head[h] = int32(i)
	}
	return head, next, mask
}

// allUnbound reports whether no slot of the row is bound.
func allUnbound(row slotRow) bool {
	for _, id := range row {
		if id != unboundID {
			return false
		}
	}
	return true
}

// joinRows computes the SPARQL join of two solution sequences with an
// id-space hash join, falling back to the nested loop when the sides
// share no all-bound slots. Output order is identical to the nested
// loop's (a-major, b-suborder) on every path. Identity shortcuts stay
// span-free — they do no work.
func (env *evalEnv) joinRows(a, b []slotRow) []slotRow {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	// A single all-unbound row is the join identity (the Group-fold
	// seed): merging it with any row yields that row back.
	if len(a) == 1 && allUnbound(a[0]) {
		return b
	}
	if len(b) == 1 && allUnbound(b[0]) {
		return a
	}
	return env.join("join", a, b, false)
}

// optionalRows computes the SPARQL left join (OPTIONAL): every left row
// extended by each compatible right row, or passed through unchanged
// when none matches. The fallback keeps the nested loop's exact
// semantics for partial bindings on the join variables (an unbound slot
// matches everything).
func (env *evalEnv) optionalRows(left, right []slotRow) []slotRow {
	if len(left) == 0 {
		return nil
	}
	if len(right) == 0 {
		return left
	}
	return env.join("optional", left, right, true)
}

// join runs one (left) join: the hash kernel on the slots bound in
// every row of both sides, the nested loop where no such slot exists.
// On a traced run it records a span named name with the input and
// output cardinalities and the method taken. An interrupted join
// returns nil on every path — its error is latched in env.err.
func (env *evalEnv) join(name string, left, right []slotRow, outer bool) []slotRow {
	sp := env.span(name)
	sp.SetInt("left", int64(len(left)))
	sp.SetInt("right", int64(len(right)))
	var out []slotRow
	if key := env.sharedKeySlots(left, right); len(key) > 0 {
		out = env.hashJoin(left, right, key, outer)
	} else {
		sp.SetStr("method", "nested_loop")
		if outer {
			out = env.nestedOptionalRows(left, right)
		} else {
			out = env.nestedJoinRows(left, right)
		}
	}
	if env.err != nil {
		out = nil
	}
	sp.SetInt("rows", int64(len(out)))
	env.endSpan(sp)
	return out
}

// nestedJoinRows is the O(n·m) fallback join, kept for cartesian joins
// (no shared slots) and joins whose bindings are partial on the build
// key. It is also the reference the hash join is tested and benchmarked
// against.
func (env *evalEnv) nestedJoinRows(a, b []slotRow) []slotRow {
	var out []slotRow
	for _, x := range a {
		for _, y := range b {
			if env.interrupted() {
				return out
			}
			if compatibleRows(x, y) {
				out = append(out, env.mergeRows(x, y))
			}
		}
	}
	return out
}

// nestedOptionalRows is the O(n·m) fallback left join.
func (env *evalEnv) nestedOptionalRows(left, right []slotRow) []slotRow {
	var out []slotRow
	for _, l := range left {
		matched := false
		for _, r := range right {
			if env.interrupted() {
				return out
			}
			if compatibleRows(l, r) {
				out = append(out, env.mergeRows(l, r))
				matched = true
			}
		}
		if !matched {
			out = append(out, l)
		}
	}
	return out
}

// maxJoinRows is the most rows either side of a hash join may hold, and
// the most rows one join may emit: the chained table links build rows
// and the build-left probe places its output through int32 indexes. A
// variable so tests can lower it (maxBindRows' idiom).
var maxJoinRows = math.MaxInt32

// hashJoin is the one hash join: it hashes the smaller side on the key
// into a chained table and probes it with the other side, emitting in
// left-major order, the nested loop's. A counting pass sizes the output
// and the arena exactly, so a join costs O(1) allocations on top of its
// rows. When left probes a table over right, the emit pass walks left
// in order. When right probes a table over left, per-left-row cursors
// place each match in its left row's segment and an outer join's
// unmatched left row fills the one slot its segment was given. A join
// past maxJoinRows fails typed; interrupted, it returns nil.
func (env *evalEnv) hashJoin(left, right []slotRow, key []int, outer bool) []slotRow {
	build, probe, method := right, left, "hash_build_right"
	buildLeft := len(right) > len(left)
	if buildLeft {
		build, probe, method = left, right, "hash_build_left"
	}
	env.noteStr("method", method)
	if len(build) > maxJoinRows {
		env.err = &rdf.CapacityError{What: "join rows", Limit: int64(maxJoinRows)}
		return nil
	}
	head, next, mask := buildJoinTable(build, key)
	env.chargeJoinTable(head, next)
	var cur []int32
	if buildLeft {
		env.charge(int64(len(build))*termIDBytes, stageJoin)
		if env.err != nil {
			return nil
		}
		cur = make([]int32, len(build))
	}
	total, merged := 0, 0
	for _, p := range probe {
		if env.interrupted() {
			return nil
		}
		n := 0
		for bi := head[rowKeyHash(p, key)&mask]; bi >= 0; bi = next[bi] {
			if compatibleRows(p, build[bi]) {
				n++
				if cur != nil {
					cur[bi]++
				}
			}
		}
		merged += n
		if n == 0 && outer && cur == nil {
			total++ // an unmatched left row passes through
		}
	}
	// Prefix-sum the counts into write cursors; an outer join keeps one
	// slot for each left row nothing matched.
	for i, c := range cur {
		cur[i] = int32(total)
		if c == 0 && outer {
			c = 1
		}
		total += int(c)
	}
	if cur == nil {
		total += merged
	}
	if max(total, merged) > maxJoinRows { // merged also catches a count that wrapped
		env.err = &rdf.CapacityError{What: "join rows", Limit: int64(maxJoinRows)}
		return nil
	}
	if total == 0 {
		return nil
	}
	env.chargeRowBatch(total, stageJoin)
	if env.err != nil { // over budget: skip the output allocation
		return nil
	}
	out := make([]slotRow, total)
	env.reserveRows(merged)
	k := 0
	for _, p := range probe {
		if env.interrupted() {
			return nil
		}
		matched := false
		for bi := head[rowKeyHash(p, key)&mask]; bi >= 0; bi = next[bi] {
			b := build[bi]
			if !compatibleRows(p, b) {
				continue
			}
			matched = true
			if cur != nil {
				out[cur[bi]] = env.mergeRows(b, p)
				cur[bi]++
			} else {
				out[k] = env.mergeRows(p, b)
				k++
			}
		}
		if !matched && outer && cur == nil {
			out[k] = p
			k++
		}
	}
	if cur != nil && outer {
		// A left row whose cursor never moved matched nothing: its
		// segment's one slot is the row itself.
		end := 0
		for i, l := range left {
			if int(cur[i]) == end {
				out[end] = l
				end++
			} else {
				end = int(cur[i])
			}
		}
	}
	return out
}

// evalFilter computes the effective boolean value of a FILTER over an
// id-space row, decoding only the terms the expression touches. An
// expression type the compiler does not know falls back to the
// map-based FilterExpr API on a decoded row.
func (env *evalEnv) evalFilter(e FilterExpr, row slotRow) bool {
	switch n := e.(type) {
	case Comparison:
		l, ok := env.resolveOperand(n.L, row)
		if !ok {
			return false
		}
		r, ok := env.resolveOperand(n.R, row)
		if !ok {
			return false
		}
		return cmpSatisfies(n.Op, CompareTerms(l, r))
	case LogicalAnd:
		return env.evalFilter(n.L, row) && env.evalFilter(n.R, row)
	case LogicalOr:
		return env.evalFilter(n.L, row) || env.evalFilter(n.R, row)
	case LogicalNot:
		return !env.evalFilter(n.E, row)
	case Bound:
		slot, ok := env.slots[n.Var]
		return ok && row[slot] != unboundID
	default:
		// Unknown expression types fall back to the map-based
		// FilterExpr API. When the expression can enumerate the
		// variables it touches, only those are decoded; otherwise the
		// whole row is.
		if vl, ok := e.(VarLister); ok {
			return e.EvalFilter(env.decodeVars(row, vl.FilterVars()))
		}
		return e.EvalFilter(env.decodeRow(row))
	}
}

// decodeVars materializes just the named variables of an id-space row
// as a Binding, for filter expressions that declare what they touch.
func (env *evalEnv) decodeVars(row slotRow, vars []Var) Binding {
	b := make(Binding, len(vars))
	for _, v := range vars {
		if s, ok := env.slots[v]; ok {
			if id := row[s]; id != unboundID {
				b[v] = env.terms[id]
			}
		}
	}
	return b
}

func (env *evalEnv) resolveOperand(o Operand, row slotRow) (rdf.Term, bool) {
	if !o.IsVar {
		return o.Term, true
	}
	slot, ok := env.slots[o.Var]
	if !ok {
		return rdf.Term{}, false
	}
	id := row[slot]
	if id == unboundID {
		return rdf.Term{}, false
	}
	return env.terms[id], true
}

// cElem is one compiled triple-pattern position: either a slot index
// (variables) or a pre-encoded constant id. A constant absent from the
// dictionary (ok=false) cannot match any triple.
type cElem struct {
	isVar bool
	slot  int
	id    rdf.TermID
	ok    bool
}

// cPattern is one compiled triple pattern with its selectivity
// estimate.
type cPattern struct {
	s, p, o cElem
	est     int
	src     int   // position of the pattern as written (trace/EXPLAIN)
	slots   []int // distinct variable slots, for join-ordering

	// eqSP, eqSO and eqPO are all ones where one variable fills both
	// positions (?x ?p ?x sets eqSO) and zero otherwise — in nearly every
	// pattern, all three. A candidate gives each repeated variable one
	// value iff its ids differ in no masked bit.
	eqSP, eqSO, eqPO rdf.TermID
}

// snapshot identifies the data a plan was compiled against — what the
// plan and cost memos of a Prepared are keyed by: a graph's encoded view
// and its length (a graph grows), or a shard set (immutable once built).
type snapshot struct {
	src any // *rdf.EncodedView or *ShardSet
	n   int
}

func snapshotOf(view *rdf.EncodedView, ss *ShardSet) snapshot {
	if ss != nil {
		return snapshot{src: ss}
	}
	return snapshot{src: view, n: view.Len()}
}

// compilePattern encodes the pattern's constants and estimates its
// result cardinality from the dataset statistics: the tightest bound
// among the per-subject, per-object, and per-predicate (SPARQLGX
// PredicateCounts) index cardinalities, or the triple count when fully
// unbound. Against a shard set, constants resolve through the shared
// dictionary and the index cardinalities sum across the shards, so the
// estimate — and with it the join order — is the single graph's.
func (env *evalEnv) compilePattern(tp TriplePattern) cPattern {
	var dict *rdf.Dictionary
	var views []*rdf.EncodedView
	if env.ss != nil {
		dict, views = env.ss.Dict, env.ss.Views
	} else {
		dict, views = env.view.Dict(), []*rdf.EncodedView{env.view}
	}
	compile := func(e TPElem) cElem {
		if e.IsVar {
			return cElem{isVar: true, slot: env.slots[e.Var]}
		}
		id, ok := dict.Lookup(e.Term)
		return cElem{id: id, ok: ok}
	}
	cp := cPattern{s: compile(tp.S), p: compile(tp.P), o: compile(tp.O)}
	collectPatternSlots(&cp)
	est := env.stats.Triples
	switch {
	case !cp.s.isVar && !cp.s.ok, !cp.p.isVar && !cp.p.ok, !cp.o.isVar && !cp.o.ok:
		est = 0
	default:
		if !cp.s.isVar {
			n := 0
			for _, v := range views {
				n += len(v.WithSubject(cp.s.id))
			}
			est = min(est, n)
		}
		if !cp.o.isVar {
			n := 0
			for _, v := range views {
				n += len(v.WithObject(cp.o.id))
			}
			est = min(est, n)
		}
		if !cp.p.isVar {
			est = min(est, env.stats.PredicateCounts[tp.P.Term.Value])
		}
	}
	cp.est = est
	return cp
}

// orderPatterns reorders compiled patterns greedily by estimated
// selectivity: start from the most selective pattern, then repeatedly
// take the most selective pattern connected to an already-bound
// variable (avoiding Cartesian intermediates), falling back to the
// global minimum when no remaining pattern connects. Ties keep the
// original order, so fully-unselective queries evaluate as written.
func orderPatterns(cps []cPattern, nslots int) []cPattern {
	n := len(cps)
	if n <= 1 {
		return cps
	}
	used := make([]bool, n)
	bound := make([]bool, nslots)
	out := make([]cPattern, 0, n)
	for len(out) < n {
		best, bestConnected := -1, false
		for i, cp := range cps {
			if used[i] {
				continue
			}
			connected := false
			for _, s := range cp.slots {
				if bound[s] {
					connected = true
					break
				}
			}
			if best == -1 ||
				(connected && !bestConnected) ||
				(connected == bestConnected && cp.est < cps[best].est) {
				best, bestConnected = i, connected
			}
		}
		used[best] = true
		for _, s := range cps[best].slots {
			bound[s] = true
		}
		out = append(out, cps[best])
	}
	return out
}

// evalBGP evaluates a conjunction of triple patterns by iterated
// selection and join over the encoded indexes, visiting patterns in
// selectivity order. Prepared runs reuse the compiled-and-ordered
// pattern list across calls via planFor. The first (most selective)
// pattern — the seed scan — runs over a single empty row; when the
// query's limitHint applies, the last pattern stops producing once
// enough leading rows exist (LIMIT pushdown below the modifier
// pipeline).
func (env *evalEnv) evalBGP(b BGP) []slotRow {
	cps := env.planFor(b)
	bsp := env.span("bgp")
	// endSpan also closes per-pattern spans left open by the error
	// returns below; nil span (the disarmed default) is a no-op.
	defer env.endSpan(bsp)
	if bsp != nil {
		bsp.SetInt("patterns", int64(len(cps)))
		bsp.SetStr("join_order", planOrder(cps))
	}
	rows := []slotRow{env.emptyRow()}
	for i := range cps {
		cp := &cps[i]
		max := 0
		if i == len(cps)-1 {
			// limitHint is only set when this BGP is the whole WHERE
			// clause, so its last pattern emits the final row sequence.
			max = env.limitHint
		}
		var psp *obs.Span
		if env.trace != nil {
			if i == 0 {
				psp = env.trace.Begin("seed_scan")
			} else {
				psp = env.trace.Begin("match")
				psp.SetInt("rows_in", int64(len(rows)))
			}
			psp.SetInt("pattern", int64(cp.src))
			psp.SetInt("est", int64(cp.est))
		}
		if i == 0 {
			rows = env.seedScan(cp, rows[0], max)
		} else {
			next := make([]slotRow, 0, len(rows))
			for done, row := range rows {
				next = env.matchPattern(cp, row, next)
				if env.err != nil {
					return nil
				}
				if max > 0 && len(next) >= max {
					break
				}
				// A pattern that fans out outgrows one slot per input row.
				// Once the output is half full, make room for what the rows
				// still to come will add at the fan-out seen so far — at
				// most fourfold a step, so a cartesian product still grows
				// with its rows and not ahead of them — instead of leaving
				// it to append's many small steps.
				if len(next) > cap(next)/2 {
					want := min(int64(len(next))*int64(len(rows))/int64(done+1), 4*int64(cap(next)))
					if want > int64(cap(next)) {
						next = slices.Grow(next, int(want)-len(next))
					}
				}
			}
			rows = next
		}
		if env.err != nil {
			return nil
		}
		if psp != nil {
			psp.SetInt("rows", int64(len(rows)))
			env.trace.End(psp)
		}
		if len(rows) == 0 {
			break
		}
	}
	return rows
}

// seedScan evaluates the BGP's first pattern against the empty row into
// an output sized from the candidate count. max > 0 bounds how many
// rows are needed (LIMIT pushdown): the scan stops exactly at max rows.
func (env *evalEnv) seedScan(cp *cPattern, row slotRow, max int) []slotRow {
	ps := env.preparePatternScan(cp, row)
	if ps.miss {
		return nil
	}
	env.noteInt("candidates", int64(len(ps.candidates)))
	return env.scanPattern(&ps, row, max, make([]slotRow, 0, outputCap(len(ps.candidates), max)))
}

// planFor returns the compiled, selectivity-ordered patterns of the
// run's next BGP (BGPs are numbered in evaluation order, which is
// deterministic). Plain Evaluate compiles on every call; a Prepared run
// consults the plan memo first, so re-running a plan on an unchanged
// snapshot — graph or shard set — skips constant encoding, selectivity
// estimation, and join ordering entirely. Cached plans are immutable
// after publication and therefore safe to share across concurrent runs.
func (env *evalEnv) planFor(b BGP) []cPattern {
	seq := env.bgpSeq
	env.bgpSeq++
	var snap snapshot
	if env.prep != nil {
		snap = snapshotOf(env.view, env.ss)
		if cps := env.prep.cachedPlan(snap, seq); cps != nil {
			return cps
		}
	}
	cps := make([]cPattern, len(b.Patterns))
	for i, tp := range b.Patterns {
		cps[i] = env.compilePattern(tp)
		cps[i].src = i
	}
	cps = orderPatterns(cps, len(env.vars))
	if env.prep != nil {
		env.prep.storePlan(snap, seq, cps)
	}
	return cps
}

// elemID resolves a compiled element under a row: constants yield
// their id, variables their current binding (bound=false when the slot
// is empty). miss is true for constants absent from the dictionary.
func elemID(e cElem, row slotRow) (id rdf.TermID, bound, miss bool) {
	if !e.isVar {
		return e.id, true, !e.ok
	}
	id = row[e.slot]
	return id, id != unboundID, false
}

// patternScan is one pattern's resolved scan: the ids each position
// must match under the current row, and the smallest applicable index
// view to scan. cp points into the plan's []cPattern
// (plans are immutable after publication), so preparing a scan per
// input row copies no pattern. positions is the view's position column
// over the same range as candidates (positions[i] is candidates[i]'s
// place in the whole dataset — the sharded gather key); it is nil on a
// single-graph view.
type patternScan struct {
	cp                     *cPattern
	sID, pID, oID          rdf.TermID
	sBound, pBound, oBound bool
	miss                   bool
	candidates             []rdf.EncodedTriple
	positions              []int32
}

// matches reports whether a candidate triple satisfies the scan's
// resolved positions and gives a repeated variable one value — the
// filter every candidate loop (the scan, the per-shard bind and
// pushdown scans) applies before extending the row.
func (ps *patternScan) matches(t rdf.EncodedTriple) bool {
	if ps.sBound && t.S != ps.sID {
		return false
	}
	if ps.pBound && t.P != ps.pID {
		return false
	}
	if ps.oBound && t.O != ps.oID {
		return false
	}
	cp := ps.cp
	return (t.S^t.P)&cp.eqSP|(t.S^t.O)&cp.eqSO|(t.P^t.O)&cp.eqPO == 0
}

// extend returns a fresh copy of row, the row the scan was prepared
// under, with the positions that row leaves unbound taking t's ids. t
// must satisfy matches: that already compared every bound position and
// every repeated variable, so there is nothing left to check and the row
// is written once.
func (ps *patternScan) extend(env *evalEnv, row slotRow, t rdf.EncodedTriple) slotRow {
	r := env.newRow(row)
	if !ps.sBound {
		r[ps.cp.s.slot] = t.S
	}
	if !ps.pBound {
		r[ps.cp.p.slot] = t.P
	}
	if !ps.oBound {
		r[ps.cp.o.slot] = t.O
	}
	return r
}

// preparePatternScan resolves cp's positions under row and picks the
// smallest applicable index as the candidate view.
func (env *evalEnv) preparePatternScan(cp *cPattern, row slotRow) patternScan {
	ps := patternScan{cp: cp}
	var sMiss, pMiss, oMiss bool
	ps.sID, ps.sBound, sMiss = elemID(cp.s, row)
	ps.pID, ps.pBound, pMiss = elemID(cp.p, row)
	ps.oID, ps.oBound, oMiss = elemID(cp.o, row)
	if sMiss || pMiss || oMiss {
		ps.miss = true
		return ps
	}
	// Scan the smallest applicable index.
	ps.candidates, ps.positions = env.view.ScanAll()
	if ps.sBound {
		ps.candidates, ps.positions = env.view.ScanSubject(ps.sID)
	}
	if ps.oBound {
		if byO, pos := env.view.ScanObject(ps.oID); len(byO) < len(ps.candidates) {
			ps.candidates, ps.positions = byO, pos
		}
	}
	if ps.pBound {
		if byP, pos := env.view.ScanPredicate(ps.pID); len(byP) < len(ps.candidates) {
			ps.candidates, ps.positions = byP, pos
		}
	}
	return ps
}

// matchPattern appends to out every extension of row by a triple
// matching cp.
func (env *evalEnv) matchPattern(cp *cPattern, row slotRow, out []slotRow) []slotRow {
	ps := env.preparePatternScan(cp, row)
	if ps.miss {
		return out
	}
	return env.scanPattern(&ps, row, 0, out)
}

// scanPattern appends to out every extension of row by a candidate
// triple matching the prepared scan; max > 0 stops the scan once out
// holds max rows (LIMIT pushdown). Cancellation is polled per run of
// candidates (block), not per candidate.
func (env *evalEnv) scanPattern(ps *patternScan, row slotRow, max int, out []slotRow) []slotRow {
	cands := ps.candidates
	for len(cands) > 0 {
		n := env.block(len(cands))
		if n == 0 {
			return out
		}
		for _, t := range cands[:n] {
			if !ps.matches(t) {
				continue
			}
			out = append(out, ps.extend(env, row, t))
			if max > 0 && len(out) >= max {
				return out
			}
		}
		cands = cands[n:]
	}
	return out
}
