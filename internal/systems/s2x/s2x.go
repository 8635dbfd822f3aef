// Package s2x reproduces S2X (Schätzle et al., Big-O(Q) 2015, survey
// ref [23]): graph-parallel SPARQL on GraphX combined with Spark's
// data-parallel operators. RDF is modeled as a property graph — vertex
// properties hold subject/object values plus the query variables the
// vertex is a match candidate for; the edge property holds the
// predicate.
//
// BGP evaluation follows the paper's two phases:
//
//  1. match: every triple pattern is matched against all edges
//     independently, seeding per-vertex candidate sets;
//  2. validate: vertices iteratively exchange their local match sets
//     with neighbors and discard candidates that lack support in a
//     remote match set, until nothing changes (each round is one
//     superstep with metered messages).
//
// The surviving candidates are composed into bindings with Spark
// data-parallel joins, and the remaining SPARQL operators (FILTER,
// OPTIONAL, ORDER BY, LIMIT, OFFSET, projection) run on the
// data-parallel side, exactly as the paper splits the work.
package s2x

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/spark/graphx"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// Engine is the S2X system. A vertex id is the TermID of the term the
// vertex is; an edge's property is its predicate's id.
type Engine struct {
	solutions.Source
	ctx   *spark.Context
	data  *solutions.Dataset
	graph *graphx.Graph[struct{}, rdf.TermID]
}

// New creates an unloaded engine on ctx.
func New(ctx *spark.Context) *Engine { return &Engine{ctx: ctx} }

// Info implements core.Engine.
func (e *Engine) Info() core.SystemInfo {
	return core.SystemInfo{
		Name:            "S2X",
		Citation:        "[23]",
		Model:           core.GraphModel,
		Abstractions:    []core.Abstraction{core.GraphXAbstraction},
		QueryProcessing: "Graph Iterations",
		Optimized:       false,
		Partitioning:    "Default",
		SPARQL:          core.FragmentBGPPlus,
	}
}

// Context implements core.Engine.
func (e *Engine) Context() *spark.Context { return e.ctx }

// Load builds the property graph: one vertex per distinct term in
// subject or object position, one edge per triple labeled with the
// predicate.
func (e *Engine) Load(triples []rdf.Triple) error {
	d, err := e.Dataset(triples)
	if err != nil {
		return fmt.Errorf("s2x: %w", err)
	}
	e.data, e.graph = d, d.Graph(e.ctx)
	return nil
}

// Execute implements core.Engine.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	// BGPs use the graph-parallel matcher; the other operators use the
	// data-parallel side — FILTER as a plain Spark op.
	s, err := e.data.Schema("s2x", q, false)
	if err != nil {
		return nil, err
	}
	bgp := func(b sparql.BGP) ([]solutions.Row, error) { return e.evalBGP(s, b) }
	return sparql.EvalRows(q, s.Vars, e.data.Dict, bgp, e.filter)
}

func (e *Engine) filter(rows []solutions.Row, keep func(solutions.Row) bool) []solutions.Row {
	return spark.Parallelize(e.ctx, rows).Filter(keep).Collect()
}

// evalBGP runs match + iterative validation + composition.
func (e *Engine) evalBGP(s *solutions.Schema, bgp sparql.BGP) ([]solutions.Row, error) {
	if len(bgp.Patterns) == 0 {
		return []solutions.Row{s.Row()}, nil
	}
	// --- Phase 1: match every pattern against all edges. ---
	pats := make([]*solutions.Pattern, len(bgp.Patterns))
	cands := make([][]rdf.EncodedTriple, len(bgp.Patterns))
	edges := e.graph.Edges().Collect()
	for i, tp := range bgp.Patterns {
		pats[i] = s.Pattern(tp)
		for _, ed := range edges {
			if t := (rdf.EncodedTriple{S: rdf.TermID(ed.Src), P: ed.Attr, O: rdf.TermID(ed.Dst)}); pats[i].Matches(t) {
				cands[i] = append(cands[i], t)
			}
		}
	}

	// --- Phase 2: iterative validation. A vertex supports variable v
	// for pattern i when it appears at v's position in a candidate of
	// i. Candidates whose variable lacks support in every other pattern
	// using the same variable are discarded; repeat to fixpoint. Each
	// round is a superstep; discarded candidates are the messages. ---
	type occurrence struct {
		pattern  int
		position int // 0 = subject, 1 = object (2 = predicate: not vertex-based)
	}
	occs := map[sparql.Var][]occurrence{}
	for i, tp := range bgp.Patterns {
		if tp.S.IsVar {
			occs[tp.S.Var] = append(occs[tp.S.Var], occurrence{i, 0})
		}
		if tp.O.IsVar {
			occs[tp.O.Var] = append(occs[tp.O.Var], occurrence{i, 1})
		}
	}
	changed := true
	for changed {
		changed = false
		e.ctx.AddSupersteps(1)
		// Local match sets: vertex support per (var, pattern).
		support := map[sparql.Var]map[int]map[rdf.TermID]bool{}
		for v, os := range occs {
			support[v] = map[int]map[rdf.TermID]bool{}
			for _, oc := range os {
				set := map[rdf.TermID]bool{}
				for _, c := range cands[oc.pattern] {
					if oc.position == 0 {
						set[c.S] = true
					} else {
						set[c.O] = true
					}
				}
				support[v][oc.pattern] = set
			}
		}
		removed := 0
		for i := range cands {
			var kept []rdf.EncodedTriple
			for _, c := range cands[i] {
				valid := true
				for v, os := range occs {
					for _, oc := range os {
						if oc.pattern == i {
							continue
						}
						// Which vertex does v bind to in candidate c of pattern i?
						var vid rdf.TermID
						found := false
						tp := bgp.Patterns[i]
						if tp.S.IsVar && tp.S.Var == v {
							vid, found = c.S, true
						} else if tp.O.IsVar && tp.O.Var == v {
							vid, found = c.O, true
						}
						if !found {
							continue
						}
						if !support[v][oc.pattern][vid] {
							valid = false
							break
						}
					}
					if !valid {
						break
					}
				}
				if valid {
					kept = append(kept, c)
				} else {
					removed++
				}
			}
			if len(kept) != len(cands[i]) {
				changed = true
			}
			cands[i] = kept
		}
		e.ctx.AddMessages(removed)
	}

	// --- Phase 3: compose the validated candidates into rows with
	// data-parallel joins (spark side). ---
	var cur *spark.RDD[solutions.Row]
	var curVars map[sparql.Var]bool
	for _, i := range solutions.ConnectedOrder(bgp.Patterns) {
		tp := bgp.Patterns[i]
		rows := make([]solutions.Row, len(cands[i]))
		for j, c := range cands[i] {
			rows[j] = pats[i].Bind(c)
		}
		next := spark.Parallelize(e.ctx, rows)
		if cur == nil {
			cur = next
			curVars = solutions.VarSet(tp.Vars())
			continue
		}
		shared := s.Slots(solutions.SharedVars(curVars, tp.Vars()))
		if len(shared) == 0 {
			cur = solutions.MergeCross(spark.Cartesian(cur, next))
		} else {
			cur = solutions.MergeJoined(spark.Join(s.KeyBy(cur, shared), s.KeyBy(next, shared)))
		}
		for _, v := range tp.Vars() {
			curVars[v] = true
		}
	}
	return cur.Collect(), nil
}
