// Package sparqlgx reproduces SPARQLGX (Graux et al., ISWC 2016,
// survey ref [13]): RDF vertically partitioned by predicate — a triple
// (s p o) is stored in a "file" named p holding only (s, o) — with
// SPARQL compiled pattern-by-pattern onto the RDD API. Triple-pattern
// results join on their shared variable via keyBy; patterns with no
// shared variable fall back to a Cartesian product. Data statistics
// (distinct subjects / predicates / objects) reorder the join sequence.
//
// Supported fragment (Table II): BGP+ — DISTINCT, SORT, UNION, OPTIONAL
// and FILTER on top of BGPs.
package sparqlgx

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// SO is one row of a vertical-partition file: the subject and object of
// a triple whose predicate names the file.
type SO struct {
	S, O rdf.TermID
}

// Engine is the SPARQLGX system.
type Engine struct {
	solutions.Source
	ctx  *spark.Context
	data *solutions.Dataset
	// vertical holds one RDD per predicate id — the vertical
	// partitioning.
	vertical map[rdf.TermID]*spark.RDD[SO]
	// preds keeps the predicates in IRI order for deterministic
	// iteration.
	preds []rdf.TermID
}

// New creates an unloaded engine on ctx.
func New(ctx *spark.Context) *Engine {
	return &Engine{ctx: ctx}
}

// Info implements core.Engine.
func (e *Engine) Info() core.SystemInfo {
	return core.SystemInfo{
		Name:            "SPARQLGX",
		Citation:        "[13]",
		Model:           core.TripleModel,
		Abstractions:    []core.Abstraction{core.RDDAbstraction},
		QueryProcessing: "RDD API",
		Optimized:       true,
		Partitioning:    "Vertical",
		SPARQL:          core.FragmentBGPPlus,
	}
}

// Context implements core.Engine.
func (e *Engine) Context() *spark.Context { return e.ctx }

// Load vertically partitions the dataset: one (s,o) RDD per predicate.
// The statistics used for join reordering are the dataset's.
func (e *Engine) Load(triples []rdf.Triple) error {
	d, err := e.Dataset(triples)
	if err != nil {
		return fmt.Errorf("sparqlgx: %w", err)
	}
	e.data = d
	e.vertical = make(map[rdf.TermID]*spark.RDD[SO])
	byPred := make(map[rdf.TermID][]SO)
	for _, t := range d.Triples {
		byPred[t.P] = append(byPred[t.P], SO{S: t.S, O: t.O})
	}
	e.preds = e.preds[:0]
	for p, rows := range byPred {
		e.vertical[p] = spark.Parallelize(e.ctx, rows)
		e.preds = append(e.preds, p)
	}
	sort.Slice(e.preds, func(i, j int) bool { return d.Term(e.preds[i]).Value < d.Term(e.preds[j]).Value })
	return nil
}

// Execute implements core.Engine.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	s, err := e.data.Schema("sparqlgx", q, false)
	if err != nil {
		return nil, err
	}
	rows, err := e.evalPattern(s, q.Where)
	if err != nil {
		return nil, err
	}
	return sparql.Answer(q, s.Vars, e.data.Dict, rows.Collect())
}

// evalPattern evaluates the supported algebra; BGPs go through the
// vertical-partition join pipeline, other operators map onto Spark ops.
func (e *Engine) evalPattern(s *solutions.Schema, p sparql.GraphPattern) (*spark.RDD[solutions.Row], error) {
	switch n := p.(type) {
	case sparql.BGP:
		return e.evalBGP(s, n)
	case sparql.Group:
		cur := spark.Parallelize(e.ctx, []solutions.Row{s.Row()})
		for _, part := range n.Parts {
			sub, err := e.evalPattern(s, part)
			if err != nil {
				return nil, err
			}
			cur = joinRowRDDs(s, cur, sub)
		}
		return cur, nil
	case sparql.Filter:
		inner, err := e.evalPattern(s, n.Inner)
		if err != nil {
			return nil, err
		}
		return inner.Filter(s.Keep(n.Cond)), nil
	case sparql.Optional:
		left, err := e.evalPattern(s, n.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.evalPattern(s, n.Right)
		if err != nil {
			return nil, err
		}
		return leftOuterJoinRowRDDs(e.ctx, left, right)
	case sparql.Union:
		left, err := e.evalPattern(s, n.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.evalPattern(s, n.Right)
		if err != nil {
			return nil, err
		}
		return left.Union(right), nil
	default:
		return nil, fmt.Errorf("sparqlgx: unsupported pattern %T", p)
	}
}

// evalBGP reorders the triple patterns by estimated selectivity (the
// statistics optimization of the paper) and then folds them left to
// right, joining each pattern's bindings with the accumulated result by
// keyBy on the shared variables.
func (e *Engine) evalBGP(s *solutions.Schema, bgp sparql.BGP) (*spark.RDD[solutions.Row], error) {
	if len(bgp.Patterns) == 0 {
		return spark.Parallelize(e.ctx, []solutions.Row{s.Row()}), nil
	}
	ordered := e.reorder(bgp.Patterns)
	cur := e.scanPattern(s, ordered[0])
	bound := map[sparql.Var]bool{}
	for _, v := range ordered[0].Vars() {
		bound[v] = true
	}
	for _, tp := range ordered[1:] {
		next := e.scanPattern(s, tp)
		var shared []sparql.Var
		for _, v := range tp.Vars() {
			if bound[v] {
				shared = append(shared, v)
			}
		}
		if len(shared) == 0 {
			cur = solutions.MergeCross(spark.Cartesian(cur, next))
		} else {
			cur = joinOn(s, cur, next, s.Slots(shared))
		}
		for _, v := range tp.Vars() {
			bound[v] = true
		}
	}
	return cur, nil
}

// reorder sorts patterns ascending by estimated cardinality: bound
// predicates use the per-predicate triple count, a bound subject or
// object divides by the distinct-subject/object counts (the statistics
// SPARQLGX gathers), and variable predicates scan everything.
func (e *Engine) reorder(tps []sparql.TriplePattern) []sparql.TriplePattern {
	out := append([]sparql.TriplePattern{}, tps...)
	stats := &e.data.Stats
	est := func(tp sparql.TriplePattern) float64 {
		var card float64
		if !tp.P.IsVar {
			card = float64(stats.PredicateCounts[e.data.ID(tp.P.Term)])
		} else {
			card = float64(stats.Triples)
		}
		if !tp.S.IsVar && stats.DistinctSubjects > 0 {
			card /= float64(stats.DistinctSubjects)
		}
		if !tp.O.IsVar && stats.DistinctObjects > 0 {
			card /= float64(stats.DistinctObjects)
		}
		return card
	}
	sort.SliceStable(out, func(i, j int) bool { return est(out[i]) < est(out[j]) })
	return out
}

// scanPattern reads the vertical partition(s) for one pattern and emits
// its bindings. A bound predicate touches exactly one file — the core
// SPARQLGX win; a variable predicate unions all files.
func (e *Engine) scanPattern(s *solutions.Schema, tp sparql.TriplePattern) *spark.RDD[solutions.Row] {
	pat := s.Pattern(tp)
	matchSO := func(pred rdf.TermID) func(part []SO) []solutions.Row {
		return func(part []SO) []solutions.Row {
			var out []solutions.Row
			for _, row := range part {
				if r, ok := pat.Match(rdf.EncodedTriple{S: row.S, P: pred, O: row.O}); ok {
					out = append(out, r)
				}
			}
			return out
		}
	}
	if !tp.P.IsVar {
		p := e.data.ID(tp.P.Term)
		file, ok := e.vertical[p]
		if !ok {
			return spark.Parallelize(e.ctx, []solutions.Row{})
		}
		return spark.MapPartitions(file, matchSO(p))
	}
	result := spark.Parallelize(e.ctx, []solutions.Row{})
	for _, p := range e.preds {
		result = result.Union(spark.MapPartitions(e.vertical[p], matchSO(p)))
	}
	return result
}

// --- row RDD combinators (SPARQLGX's keyBy-based joins) ---

// joinOn joins two row RDDs on the given shared slots using the
// partitioned keyBy join of the RDD API.
func joinOn(s *solutions.Schema, a, b *spark.RDD[solutions.Row], shared []int) *spark.RDD[solutions.Row] {
	return solutions.MergeJoined(spark.Join(s.KeyBy(a, shared), s.KeyBy(b, shared)))
}

// joinRowRDDs joins on all shared slots of the two sides (the generic
// SPARQL join); with no shared slots it is a cross product. Rows
// missing a shared slot (possible below OPTIONAL) cannot use the keyed
// join — SPARQL compatibility lets an unbound variable join anything —
// so they take the Cartesian-with-compatibility path.
func joinRowRDDs(s *solutions.Schema, a, b *spark.RDD[solutions.Row]) *spark.RDD[solutions.Row] {
	av, bv := boundSlots(a, len(s.Vars)), boundSlots(b, len(s.Vars))
	var shared []int
	for i := range av {
		if av[i] && bv[i] {
			shared = append(shared, i)
		}
	}
	if len(shared) == 0 {
		return solutions.MergeCross(spark.Cartesian(a, b))
	}
	hasAll := func(x solutions.Row) bool {
		for _, i := range shared {
			if !solutions.Bound(x[i]) {
				return false
			}
		}
		return true
	}
	aBound := a.Filter(hasAll)
	bBound := b.Filter(hasAll)
	result := joinOn(s, aBound, bBound, shared)
	aPartial := a.Filter(func(x solutions.Row) bool { return !hasAll(x) })
	if aPartial.Count() > 0 {
		result = result.Union(solutions.MergeCross(spark.Cartesian(aPartial, b)))
	}
	bPartial := b.Filter(func(x solutions.Row) bool { return !hasAll(x) })
	if bPartial.Count() > 0 {
		result = result.Union(solutions.MergeCross(spark.Cartesian(aBound, bPartial)))
	}
	return result
}

// leftOuterJoinRowRDDs implements OPTIONAL: left rows survive even
// without a compatible right row. The right side is broadcast; each
// task left-joins its partition with it through the join kernel, which
// only reads the broadcast rows.
func leftOuterJoinRowRDDs(ctx *spark.Context, a, b *spark.RDD[solutions.Row]) (*spark.RDD[solutions.Row], error) {
	bc := spark.NewBroadcast(ctx, b.Collect())
	var mu sync.Mutex
	var failed error
	out := spark.MapPartitions(a, func(part []solutions.Row) []solutions.Row {
		rows, err := sparql.JoinRows(part, bc.Value(), true)
		if err != nil {
			mu.Lock()
			failed = err
			mu.Unlock()
		}
		return rows
	})
	return out, failed
}

// boundSlots samples the slots bound in a row RDD.
func boundSlots(r *spark.RDD[solutions.Row], width int) []bool {
	out := make([]bool, width)
	for _, row := range r.Take(32) {
		for i, id := range row {
			out[i] = out[i] || solutions.Bound(id)
		}
	}
	return out
}
