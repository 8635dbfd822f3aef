// Package gxsubgraph reproduces the subgraph-matching approach of
// Kassaie ("SPARQL over GraphX", arXiv 2017, survey ref [16]). Each
// vertex carries a label (its term), a Match Track (MT) table of
// partial bindings that currently end at the vertex, and an
// end-of-path flag. The algorithm iterates through the BGP's triple
// patterns; for each one, aggregateMessages matches the pattern
// against the graph's edges (sendMsg as the map side, mergeMsg as the
// reduce side), extending the MT tables at the source or destination
// vertex and relocating the track when the next pattern connects
// through a different variable. After all patterns, the MT tables of
// the end vertices are joined to produce the final answer.
//
// Supported fragment (Table II): BGP, with query optimization (the
// patterns are reordered connected-first so tracks extend along
// edges).
package gxsubgraph

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/spark/graphx"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// mtTable locates partial bindings at vertices: the binding's track
// variable is bound to the vertex term.
type mtTable struct {
	// locVar is the variable whose value places a binding at a vertex;
	// empty when the table is global (not vertex-located).
	locVar sparql.Var
	// at maps vertex id -> bindings tracked there.
	at map[graphx.VertexID][]sparql.Binding
	// global holds bindings with no vertex location.
	global []sparql.Binding
}

// vertices lists the keys of a per-vertex table in vertex-id order.
// Every walk that moves bindings between tables takes this order, not
// the map's: relocate shuffles the sequence all() builds, and the meter
// sizes a shuffle from the records at its two ends, so a walk that
// differs from run to run is a ShuffleBytes that does.
func vertices(at map[graphx.VertexID][]sparql.Binding) []graphx.VertexID {
	return slices.Sorted(maps.Keys(at))
}

func (m *mtTable) all() []sparql.Binding {
	out := append([]sparql.Binding{}, m.global...)
	for _, vid := range vertices(m.at) {
		out = append(out, m.at[vid]...)
	}
	return out
}

// Engine is the GraphX subgraph-matching system.
type Engine struct {
	ctx   *spark.Context
	graph *graphx.Graph[rdf.Term, string]
	ids   map[rdf.Term]graphx.VertexID
	terms map[graphx.VertexID]rdf.Term
}

// New creates an unloaded engine on ctx.
func New(ctx *spark.Context) *Engine { return &Engine{ctx: ctx} }

// Info implements core.Engine.
func (e *Engine) Info() core.SystemInfo {
	return core.SystemInfo{
		Name:            "GX-Subgraph",
		Citation:        "[16]",
		Model:           core.GraphModel,
		Abstractions:    []core.Abstraction{core.GraphXAbstraction},
		QueryProcessing: "Graph Iterations",
		Optimized:       true,
		Partitioning:    "Default",
		SPARQL:          core.FragmentBGP,
	}
}

// Context implements core.Engine.
func (e *Engine) Context() *spark.Context { return e.ctx }

// Load builds the labeled graph: vertex label = term, edge label =
// predicate IRI.
func (e *Engine) Load(triples []rdf.Triple) error {
	triples = rdf.Dedupe(triples)
	e.ids = map[rdf.Term]graphx.VertexID{}
	e.terms = map[graphx.VertexID]rdf.Term{}
	var vertices []graphx.Vertex[rdf.Term]
	idOf := func(t rdf.Term) graphx.VertexID {
		if id, ok := e.ids[t]; ok {
			return id
		}
		id := graphx.VertexID(len(e.ids) + 1)
		e.ids[t] = id
		e.terms[id] = t
		vertices = append(vertices, graphx.Vertex[rdf.Term]{ID: id, Attr: t})
		return id
	}
	var edges []graphx.Edge[string]
	for _, t := range triples {
		edges = append(edges, graphx.Edge[string]{Src: idOf(t.S), Dst: idOf(t.O), Attr: t.P.Value})
	}
	e.graph = graphx.New(e.ctx, vertices, edges)
	return nil
}

// Execute implements core.Engine. Only BGP queries are supported.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	if q.Form == sparql.FormDescribe {
		return nil, fmt.Errorf("gxsubgraph: DESCRIBE is not supported (use the reference evaluator)")
	}
	if e.graph == nil {
		return nil, fmt.Errorf("gxsubgraph: no dataset loaded")
	}
	bgp, ok := q.BGPOf()
	if !ok {
		return nil, fmt.Errorf("gxsubgraph: only BGP queries are supported (fragment per Table II)")
	}
	rows, err := e.evalBGP(bgp)
	if err != nil {
		return nil, err
	}
	return sparql.ApplySolutionModifiers(q, rows), nil
}

func (e *Engine) evalBGP(bgp sparql.BGP) ([]sparql.Binding, error) {
	if len(bgp.Patterns) == 0 {
		return []sparql.Binding{{}}, nil
	}
	ordered := connectedOrder(bgp.Patterns)
	mt := &mtTable{at: map[graphx.VertexID][]sparql.Binding{}}
	first := true
	boundVars := map[sparql.Var]bool{}
	for _, tp := range ordered {
		matches := e.matchPattern(tp) // one aggregateMessages round
		if first {
			mt = matches
			first = false
		} else {
			mt = e.extend(mt, matches, tp, boundVars)
		}
		for _, v := range tp.Vars() {
			boundVars[v] = true
		}
	}
	return mt.all(), nil
}

// matchPattern matches one triple pattern with aggregateMessages: the
// send side emits a candidate binding to the destination vertex for
// every matching edge; the merge side concatenates them into the MT
// table of that vertex.
func (e *Engine) matchPattern(tp sparql.TriplePattern) *mtTable {
	msgs := graphx.AggregateMessages(e.graph,
		func(c *graphx.EdgeContext[rdf.Term, string, []sparql.Binding]) {
			b, ok := e.matchEdge(tp, c.Triplet)
			if !ok {
				return
			}
			c.SendToDst([]sparql.Binding{b})
		},
		func(a, b []sparql.Binding) []sparql.Binding { return append(a, b...) })
	e.ctx.AddSupersteps(1)
	out := &mtTable{at: map[graphx.VertexID][]sparql.Binding{}}
	switch {
	case tp.O.IsVar:
		out.locVar = tp.O.Var
		for vid, bs := range msgs {
			out.at[vid] = bs
		}
	case tp.S.IsVar:
		// Relocate to the subject vertex (the object is constant).
		out.locVar = tp.S.Var
		for _, dst := range vertices(msgs) {
			for _, b := range msgs[dst] {
				vid := e.ids[b[tp.S.Var]]
				out.at[vid] = append(out.at[vid], b)
			}
		}
	default:
		for _, dst := range vertices(msgs) {
			out.global = append(out.global, msgs[dst]...)
		}
	}
	return out
}

// matchEdge matches an edge triplet against a pattern, producing the
// pattern's binding.
func (e *Engine) matchEdge(tp sparql.TriplePattern, t graphx.Triplet[rdf.Term, string]) (sparql.Binding, bool) {
	if !tp.P.IsVar && tp.P.Term.Value != t.Attr {
		return nil, false
	}
	if !tp.S.IsVar && tp.S.Term != t.SrcAttr {
		return nil, false
	}
	if !tp.O.IsVar && tp.O.Term != t.DstAttr {
		return nil, false
	}
	b := sparql.Binding{}
	if tp.S.IsVar {
		b[tp.S.Var] = t.SrcAttr
	}
	if tp.P.IsVar {
		pt := rdf.NewIRI(t.Attr)
		if cur, ok := b[tp.P.Var]; ok && cur != pt {
			return nil, false
		}
		b[tp.P.Var] = pt
	}
	if tp.O.IsVar {
		if cur, ok := b[tp.O.Var]; ok && cur != t.DstAttr {
			return nil, false
		}
		b[tp.O.Var] = t.DstAttr
	}
	return b, true
}

// extend joins the accumulated MT table with a pattern's matches. When
// the pattern connects through the table's location variable the join
// is vertex-local (the GraphX way); otherwise the table is relocated
// first, which costs a shuffle, or joined globally as a last resort.
func (e *Engine) extend(mt *mtTable, matches *mtTable, tp sparql.TriplePattern, bound map[sparql.Var]bool) *mtTable {
	// Find a shared vertex-position variable to connect through.
	var connectVar sparql.Var
	hasConnect := false
	for _, cand := range []sparql.TPElem{tp.S, tp.O} {
		if cand.IsVar && bound[cand.Var] {
			connectVar = cand.Var
			hasConnect = true
			break
		}
	}
	if !hasConnect || matches.locVar == "" {
		// Global driver-side join (disconnected pattern or constant-only).
		out := &mtTable{at: map[graphx.VertexID][]sparql.Binding{}, locVar: matches.locVar}
		for _, m := range solutions.Join(mt.all(), matches.all()) {
			if out.locVar != "" {
				vid := e.ids[m[out.locVar]]
				out.at[vid] = append(out.at[vid], m)
			} else {
				out.global = append(out.global, m)
			}
		}
		return out
	}
	if mt.locVar != connectVar {
		mt = e.relocate(mt, connectVar)
	}
	// Relocate matches to the connecting variable as well.
	if matches.locVar != connectVar {
		matches = e.relocate(matches, connectVar)
	}
	// Vertex-local join: tables meet at the shared vertex (the
	// joinVertices step of the paper).
	out := &mtTable{at: map[graphx.VertexID][]sparql.Binding{}, locVar: matches.locVar}
	// After the join the track naturally continues at the new pattern's
	// object (or stays at the connect vertex).
	nextLoc := connectVar
	if tp.O.IsVar && tp.O.Var != connectVar {
		nextLoc = tp.O.Var
	} else if tp.S.IsVar && tp.S.Var != connectVar {
		nextLoc = tp.S.Var
	}
	out.locVar = nextLoc
	for _, vid := range vertices(mt.at) {
		rs := matches.at[vid]
		if len(rs) == 0 {
			continue
		}
		for _, l := range mt.at[vid] {
			for _, r := range rs {
				if l.Compatible(r) {
					m := l.Merge(r)
					tv := e.ids[m[nextLoc]]
					out.at[tv] = append(out.at[tv], m)
				}
			}
		}
	}
	return out
}

// relocate moves an MT table to be keyed by a different bound
// variable. On a cluster the bindings travel to their new home
// vertices, so the move is metered as a shuffle of the table.
func (e *Engine) relocate(mt *mtTable, to sparql.Var) *mtTable {
	bindings := mt.all()
	keyed := spark.KeyBy(spark.Parallelize(e.ctx, bindings), func(b sparql.Binding) string {
		if t, ok := b[to]; ok {
			return t.String()
		}
		return ""
	})
	_ = spark.PartitionBy(keyed, spark.NewHashPartitioner[string](e.ctx.DefaultParallelism()))
	out := &mtTable{at: map[graphx.VertexID][]sparql.Binding{}, locVar: to}
	for _, b := range bindings {
		t, ok := b[to]
		if !ok {
			out.global = append(out.global, b)
			continue
		}
		out.at[e.ids[t]] = append(out.at[e.ids[t]], b)
	}
	return out
}

// connectedOrder reorders patterns so each one (after the first)
// shares a variable with those before it when possible.
func connectedOrder(tps []sparql.TriplePattern) []sparql.TriplePattern {
	n := len(tps)
	out := make([]sparql.TriplePattern, 0, n)
	used := make([]bool, n)
	vars := map[sparql.Var]bool{}
	for len(out) < n {
		pick := -1
		for i, tp := range tps {
			if used[i] {
				continue
			}
			if len(out) == 0 {
				pick = i
				break
			}
			for _, v := range tp.Vars() {
				if vars[v] {
					pick = i
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			for i := range tps {
				if !used[i] {
					pick = i
					break
				}
			}
		}
		used[pick] = true
		out = append(out, tps[pick])
		for _, v := range tps[pick].Vars() {
			vars[v] = true
		}
	}
	return out
}
