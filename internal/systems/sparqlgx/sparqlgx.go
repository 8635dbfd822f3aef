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

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// SO is one row of a vertical-partition file: the subject and object of
// a triple whose predicate names the file.
type SO struct {
	S, O rdf.Term
}

// Engine is the SPARQLGX system.
type Engine struct {
	ctx *spark.Context
	// vertical holds one RDD per predicate — the vertical partitioning.
	vertical map[string]*spark.RDD[SO]
	// preds keeps predicate IRIs sorted for deterministic iteration.
	preds []string
	stats rdf.Stats
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

// Load vertically partitions the dataset: one (s,o) RDD per predicate,
// and computes the statistics used for join reordering.
func (e *Engine) Load(triples []rdf.Triple) error {
	triples = rdf.Dedupe(triples)
	e.vertical = make(map[string]*spark.RDD[SO])
	byPred := make(map[string][]SO)
	for _, t := range triples {
		byPred[t.P.Value] = append(byPred[t.P.Value], SO{S: t.S, O: t.O})
	}
	e.preds = e.preds[:0]
	for p, rows := range byPred {
		e.vertical[p] = spark.Parallelize(e.ctx, rows)
		e.preds = append(e.preds, p)
	}
	sort.Strings(e.preds)
	e.stats = rdf.ComputeStats(triples)
	return nil
}

// Execute implements core.Engine.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	if q.Form == sparql.FormDescribe {
		return nil, fmt.Errorf("sparqlgx: DESCRIBE is not supported (use the reference evaluator)")
	}
	if e.vertical == nil {
		return nil, fmt.Errorf("sparqlgx: no dataset loaded")
	}
	rows, err := e.evalPattern(q.Where)
	if err != nil {
		return nil, err
	}
	return sparql.ApplySolutionModifiers(q, rows.Collect()), nil
}

// evalPattern evaluates the supported algebra; BGPs go through the
// vertical-partition join pipeline, other operators map onto Spark ops.
func (e *Engine) evalPattern(p sparql.GraphPattern) (*spark.RDD[sparql.Binding], error) {
	switch n := p.(type) {
	case sparql.BGP:
		return e.evalBGP(n)
	case sparql.Group:
		cur := spark.Parallelize(e.ctx, []sparql.Binding{{}})
		for _, part := range n.Parts {
			sub, err := e.evalPattern(part)
			if err != nil {
				return nil, err
			}
			cur = joinBindingRDDs(e.ctx, cur, sub)
		}
		return cur, nil
	case sparql.Filter:
		inner, err := e.evalPattern(n.Inner)
		if err != nil {
			return nil, err
		}
		cond := n.Cond
		return inner.Filter(func(b sparql.Binding) bool { return cond.EvalFilter(b) }), nil
	case sparql.Optional:
		left, err := e.evalPattern(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.evalPattern(n.Right)
		if err != nil {
			return nil, err
		}
		return leftOuterJoinBindingRDDs(e.ctx, left, right), nil
	case sparql.Union:
		left, err := e.evalPattern(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.evalPattern(n.Right)
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
func (e *Engine) evalBGP(bgp sparql.BGP) (*spark.RDD[sparql.Binding], error) {
	if len(bgp.Patterns) == 0 {
		return spark.Parallelize(e.ctx, []sparql.Binding{{}}), nil
	}
	ordered := e.reorder(bgp.Patterns)
	cur := e.scanPattern(ordered[0])
	bound := map[sparql.Var]bool{}
	for _, v := range ordered[0].Vars() {
		bound[v] = true
	}
	for _, tp := range ordered[1:] {
		next := e.scanPattern(tp)
		var shared []sparql.Var
		for _, v := range tp.Vars() {
			if bound[v] {
				shared = append(shared, v)
			}
		}
		if len(shared) == 0 {
			cur = crossBindingRDDs(e.ctx, cur, next)
		} else {
			cur = joinOn(e.ctx, cur, next, shared)
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
	est := func(tp sparql.TriplePattern) float64 {
		var card float64
		if !tp.P.IsVar {
			card = float64(e.stats.PredicateCounts[tp.P.Term.Value])
		} else {
			card = float64(e.stats.Triples)
		}
		if !tp.S.IsVar && e.stats.DistinctSubjects > 0 {
			card /= float64(e.stats.DistinctSubjects)
		}
		if !tp.O.IsVar && e.stats.DistinctObjects > 0 {
			card /= float64(e.stats.DistinctObjects)
		}
		return card
	}
	sort.SliceStable(out, func(i, j int) bool { return est(out[i]) < est(out[j]) })
	return out
}

// scanPattern reads the vertical partition(s) for one pattern and emits
// its bindings. A bound predicate touches exactly one file — the core
// SPARQLGX win; a variable predicate unions all files.
func (e *Engine) scanPattern(tp sparql.TriplePattern) *spark.RDD[sparql.Binding] {
	matchSO := func(pred rdf.Term) func(SO) []sparql.Binding {
		return func(row SO) []sparql.Binding {
			b := sparql.Binding{}
			if tp.S.IsVar {
				b[tp.S.Var] = row.S
			} else if tp.S.Term != row.S {
				return nil
			}
			if tp.O.IsVar {
				if cur, ok := b[tp.O.Var]; ok {
					if cur != row.O {
						return nil
					}
				} else {
					b[tp.O.Var] = row.O
				}
			} else if tp.O.Term != row.O {
				return nil
			}
			if tp.P.IsVar {
				if cur, ok := b[tp.P.Var]; ok {
					if cur != pred {
						return nil
					}
				} else {
					b[tp.P.Var] = pred
				}
			}
			// Same-variable subject/object (?x p ?x) consistency.
			if tp.S.IsVar && tp.O.IsVar && tp.S.Var == tp.O.Var && row.S != row.O {
				return nil
			}
			return []sparql.Binding{b}
		}
	}
	if !tp.P.IsVar {
		file, ok := e.vertical[tp.P.Term.Value]
		if !ok {
			return spark.Parallelize(e.ctx, []sparql.Binding{})
		}
		return spark.FlatMap(file, matchSO(tp.P.Term))
	}
	result := spark.Parallelize(e.ctx, []sparql.Binding{})
	for _, p := range e.preds {
		pt := rdf.NewIRI(p)
		result = result.Union(spark.FlatMap(e.vertical[p], matchSO(pt)))
	}
	return result
}

// --- binding RDD combinators (SPARQLGX's keyBy-based joins) ---

// joinOn joins two binding RDDs on the given shared variables using the
// partitioned keyBy join of the RDD API.
func joinOn(ctx *spark.Context, a, b *spark.RDD[sparql.Binding], shared []sparql.Var) *spark.RDD[sparql.Binding] {
	ka := spark.KeyBy(a, func(x sparql.Binding) string { return solutions.Key(x, shared) })
	kb := spark.KeyBy(b, func(x sparql.Binding) string { return solutions.Key(x, shared) })
	joined := spark.Join(ka, kb)
	return spark.FlatMap(joined, func(p spark.Pair[string, spark.Tuple2[sparql.Binding, sparql.Binding]]) []sparql.Binding {
		if !p.Value.A.Compatible(p.Value.B) {
			return nil
		}
		return []sparql.Binding{p.Value.A.Merge(p.Value.B)}
	})
}

// joinBindingRDDs joins on all shared variables of the two sides (the
// generic SPARQL join); with no shared variables it is a cross product.
// Rows missing a shared variable (possible below OPTIONAL) cannot use
// the keyed join — SPARQL compatibility lets an unbound variable join
// anything — so they take the Cartesian-with-compatibility path.
func joinBindingRDDs(ctx *spark.Context, a, b *spark.RDD[sparql.Binding]) *spark.RDD[sparql.Binding] {
	av := varsOf(a)
	bv := varsOf(b)
	var shared []sparql.Var
	for v := range av {
		if bv[v] {
			shared = append(shared, v)
		}
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i] < shared[j] })
	if len(shared) == 0 {
		return crossBindingRDDs(ctx, a, b)
	}
	hasAll := func(x sparql.Binding) bool {
		for _, v := range shared {
			if _, ok := x[v]; !ok {
				return false
			}
		}
		return true
	}
	aBound := a.Filter(hasAll)
	bBound := b.Filter(hasAll)
	result := joinOn(ctx, aBound, bBound, shared)
	aPartial := a.Filter(func(x sparql.Binding) bool { return !hasAll(x) })
	if aPartial.Count() > 0 {
		result = result.Union(crossBindingRDDs(ctx, aPartial, b))
	}
	bPartial := b.Filter(func(x sparql.Binding) bool { return !hasAll(x) })
	if bPartial.Count() > 0 {
		result = result.Union(crossBindingRDDs(ctx, aBound, bPartial))
	}
	return result
}

// crossBindingRDDs computes the Cartesian product of two binding RDDs.
func crossBindingRDDs(ctx *spark.Context, a, b *spark.RDD[sparql.Binding]) *spark.RDD[sparql.Binding] {
	prod := spark.Cartesian(a, b)
	return spark.FlatMap(prod, func(t spark.Tuple2[sparql.Binding, sparql.Binding]) []sparql.Binding {
		if !t.A.Compatible(t.B) {
			return nil
		}
		return []sparql.Binding{t.A.Merge(t.B)}
	})
}

// leftOuterJoinBindingRDDs implements OPTIONAL: left rows survive even
// without a compatible right row. The right side is broadcast and
// indexed once; every left row probes it inside its own task.
func leftOuterJoinBindingRDDs(ctx *spark.Context, a, b *spark.RDD[sparql.Binding]) *spark.RDD[sparql.Binding] {
	bc := spark.NewBroadcast(ctx, b.Collect())
	table := solutions.NewTable(bc.Value(), a.Take(32))
	return spark.FlatMap(a, func(l sparql.Binding) []sparql.Binding {
		return table.Probe(l, true, nil)
	})
}

// varsOf samples the variables present in a binding RDD.
func varsOf(r *spark.RDD[sparql.Binding]) map[sparql.Var]bool {
	out := map[sparql.Var]bool{}
	for _, b := range r.Take(32) {
		for v := range b {
			out[v] = true
		}
	}
	return out
}
