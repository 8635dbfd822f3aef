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

// vertexProp is the property of one graph vertex: its RDF term and the
// candidate variables (filled during matching).
type vertexProp struct {
	term rdf.Term
}

// Engine is the S2X system.
type Engine struct {
	ctx   *spark.Context
	graph *graphx.Graph[vertexProp, string]
	ids   map[rdf.Term]graphx.VertexID
	terms map[graphx.VertexID]rdf.Term
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
// predicate IRI.
func (e *Engine) Load(triples []rdf.Triple) error {
	triples = rdf.Dedupe(triples)
	e.ids = map[rdf.Term]graphx.VertexID{}
	e.terms = map[graphx.VertexID]rdf.Term{}
	var vertices []graphx.Vertex[vertexProp]
	idOf := func(t rdf.Term) graphx.VertexID {
		if id, ok := e.ids[t]; ok {
			return id
		}
		id := graphx.VertexID(len(e.ids) + 1)
		e.ids[t] = id
		e.terms[id] = t
		vertices = append(vertices, graphx.Vertex[vertexProp]{ID: id, Attr: vertexProp{term: t}})
		return id
	}
	var edges []graphx.Edge[string]
	for _, t := range triples {
		edges = append(edges, graphx.Edge[string]{Src: idOf(t.S), Dst: idOf(t.O), Attr: t.P.Value})
	}
	e.graph = graphx.New(e.ctx, vertices, edges)
	return nil
}

// Execute implements core.Engine.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	if q.Form == sparql.FormDescribe {
		return nil, fmt.Errorf("s2x: DESCRIBE is not supported (use the reference evaluator)")
	}
	if e.graph == nil {
		return nil, fmt.Errorf("s2x: no dataset loaded")
	}
	// BGPs use the graph-parallel matcher; the other operators use the
	// data-parallel side — FILTER as a plain Spark op.
	s := solutions.NewSchema(q.Where)
	rows, err := s.EvalPattern(q.Where, "s2x", e.evalBGP, e.filter)
	if err != nil {
		return nil, err
	}
	return s.Results(q, rows), nil
}

func (e *Engine) filter(rows []solutions.Row, keep func(solutions.Row) bool) []solutions.Row {
	return spark.Parallelize(e.ctx, rows).Filter(keep).Collect()
}

// edgeCand is one candidate edge match for a triple pattern.
type edgeCand struct {
	s, o graphx.VertexID
	pred string
}

// evalBGP runs match + iterative validation + composition.
func (e *Engine) evalBGP(s *solutions.Schema, bgp sparql.BGP) ([]solutions.Row, error) {
	if len(bgp.Patterns) == 0 {
		return []solutions.Row{s.Row()}, nil
	}
	// --- Phase 1: match every pattern against all edges. ---
	cands := make([][]edgeCand, len(bgp.Patterns))
	edges := e.graph.Edges().Collect()
	for i, tp := range bgp.Patterns {
		// A constant absent from the data looks up id 0, which no vertex has.
		sid, oid := e.ids[tp.S.Term], e.ids[tp.O.Term]
		for _, ed := range edges {
			if !tp.P.IsVar && tp.P.Term.Value != ed.Attr {
				continue
			}
			if !tp.S.IsVar && sid != ed.Src {
				continue
			}
			if !tp.O.IsVar && oid != ed.Dst {
				continue
			}
			if tp.S.IsVar && tp.O.IsVar && tp.S.Var == tp.O.Var && ed.Src != ed.Dst {
				continue
			}
			cands[i] = append(cands[i], edgeCand{s: ed.Src, o: ed.Dst, pred: ed.Attr})
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
		support := map[sparql.Var]map[int]map[graphx.VertexID]bool{}
		for v, os := range occs {
			support[v] = map[int]map[graphx.VertexID]bool{}
			for _, oc := range os {
				set := map[graphx.VertexID]bool{}
				for _, c := range cands[oc.pattern] {
					if oc.position == 0 {
						set[c.s] = true
					} else {
						set[c.o] = true
					}
				}
				support[v][oc.pattern] = set
			}
		}
		removed := 0
		for i := range cands {
			var kept []edgeCand
			for _, c := range cands[i] {
				valid := true
				for v, os := range occs {
					for _, oc := range os {
						if oc.pattern == i {
							continue
						}
						// Which vertex does v bind to in candidate c of pattern i?
						var vid graphx.VertexID
						found := false
						tp := bgp.Patterns[i]
						if tp.S.IsVar && tp.S.Var == v {
							vid, found = c.s, true
						} else if tp.O.IsVar && tp.O.Var == v {
							vid, found = c.o, true
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
	order := composeOrder(bgp)
	for _, i := range order {
		tp := bgp.Patterns[i]
		pat := s.Pattern(tp)
		rows := make([]solutions.Row, 0, len(cands[i]))
		for _, c := range cands[i] {
			if r, ok := pat.Match(rdf.Triple{S: e.terms[c.s], P: rdf.NewIRI(c.pred), O: e.terms[c.o]}); ok {
				rows = append(rows, r)
			}
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
			cur = solutions.MergeJoined(spark.Join(solutions.KeyBy(cur, shared), solutions.KeyBy(next, shared)))
		}
		for _, v := range tp.Vars() {
			curVars[v] = true
		}
	}
	return cur.Collect(), nil
}

// composeOrder picks a join order that keeps consecutive patterns
// connected where possible (greedy from the smallest candidate list).
func composeOrder(bgp sparql.BGP) []int {
	n := len(bgp.Patterns)
	order := make([]int, 0, n)
	used := make([]bool, n)
	vars := map[sparql.Var]bool{}
	for len(order) < n {
		pick := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			connected := false
			for _, v := range bgp.Patterns[i].Vars() {
				if vars[v] {
					connected = true
					break
				}
			}
			if len(order) == 0 || connected {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i := 0; i < n; i++ {
				if !used[i] {
					pick = i
					break
				}
			}
		}
		used[pick] = true
		order = append(order, pick)
		for _, v := range bgp.Patterns[pick].Vars() {
			vars[v] = true
		}
	}
	return order
}
