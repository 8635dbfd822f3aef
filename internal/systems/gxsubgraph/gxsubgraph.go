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

// mtTable locates partial solutions at vertices: the row's track slot
// holds the vertex term.
type mtTable struct {
	// loc is the slot whose term places a row at a vertex; -1 when the
	// table is global (not vertex-located).
	loc int
	// at maps vertex id -> rows tracked there.
	at map[graphx.VertexID][]solutions.Row
	// global holds rows with no vertex location.
	global []solutions.Row
}

func newMT(loc int) *mtTable {
	return &mtTable{loc: loc, at: map[graphx.VertexID][]solutions.Row{}}
}

// vertices lists the keys of a per-vertex table in vertex-id order.
// Every walk that moves rows between tables takes this order, not the
// map's: relocate shuffles the sequence all() builds, and the meter
// sizes a shuffle from the records at its two ends, so a walk that
// differs from run to run is a ShuffleBytes that does.
func vertices(at map[graphx.VertexID][]solutions.Row) []graphx.VertexID {
	return slices.Sorted(maps.Keys(at))
}

func (m *mtTable) all() []solutions.Row {
	out := append([]solutions.Row{}, m.global...)
	for _, vid := range vertices(m.at) {
		out = append(out, m.at[vid]...)
	}
	return out
}

// Engine is the GraphX subgraph-matching system. A vertex id is the
// TermID of the term labeling the vertex; an edge's label is its
// predicate's id.
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

// Load builds the labeled graph: one vertex per distinct subject or
// object, one edge per triple labeled with its predicate.
func (e *Engine) Load(triples []rdf.Triple) error {
	d, err := e.Dataset(triples)
	if err != nil {
		return fmt.Errorf("gxsubgraph: %w", err)
	}
	e.data, e.graph = d, d.Graph(e.ctx)
	return nil
}

// Execute implements core.Engine. Only BGP queries are supported.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	s, err := e.data.Schema("gxsubgraph", q, true)
	if err != nil {
		return nil, err
	}
	bgp, _ := q.BGPOf()
	rows, err := e.evalBGP(s, bgp)
	if err != nil {
		return nil, err
	}
	return sparql.Answer(q, s.Vars, e.data.Dict, rows)
}

func (e *Engine) evalBGP(s *solutions.Schema, bgp sparql.BGP) ([]solutions.Row, error) {
	if len(bgp.Patterns) == 0 {
		return []solutions.Row{s.Row()}, nil
	}
	var mt *mtTable
	var err error
	boundVars := map[sparql.Var]bool{}
	for i, j := range solutions.ConnectedOrder(bgp.Patterns) {
		tp := bgp.Patterns[j]
		matches := e.matchPattern(s, tp) // one aggregateMessages round
		if i == 0 {
			mt = matches
		} else if mt, err = e.extend(s, mt, matches, tp, boundVars); err != nil {
			return nil, err
		}
		for _, v := range tp.Vars() {
			boundVars[v] = true
		}
	}
	return mt.all(), nil
}

// matchPattern matches one triple pattern with aggregateMessages: the
// send side emits a candidate row to the destination vertex for every
// matching edge; the merge side concatenates them into the MT table of
// that vertex.
func (e *Engine) matchPattern(s *solutions.Schema, tp sparql.TriplePattern) *mtTable {
	pat := s.Pattern(tp)
	msgs := graphx.AggregateMessages(e.graph,
		func(c *graphx.EdgeContext[struct{}, rdf.TermID, []solutions.Row]) {
			t := c.Triplet
			if r, ok := pat.Match(rdf.EncodedTriple{S: rdf.TermID(t.Src), P: t.Attr, O: rdf.TermID(t.Dst)}); ok {
				c.SendToDst([]solutions.Row{r})
			}
		},
		func(a, b []solutions.Row) []solutions.Row { return append(a, b...) })
	e.ctx.AddSupersteps(1)
	switch {
	case tp.O.IsVar:
		out := newMT(s.Slot(tp.O.Var))
		out.at = msgs
		return out
	case tp.S.IsVar:
		// Relocate to the subject vertex (the object is constant).
		out := newMT(s.Slot(tp.S.Var))
		for _, dst := range vertices(msgs) {
			for _, r := range msgs[dst] {
				vid := graphx.VertexID(r[out.loc])
				out.at[vid] = append(out.at[vid], r)
			}
		}
		return out
	default:
		out := newMT(-1)
		for _, dst := range vertices(msgs) {
			out.global = append(out.global, msgs[dst]...)
		}
		return out
	}
}

// extend joins the accumulated MT table with a pattern's matches. When
// the pattern connects through the table's location variable the join
// is vertex-local (the GraphX way); otherwise the table is relocated
// first, which costs a shuffle, or joined globally as a last resort.
func (e *Engine) extend(s *solutions.Schema, mt, matches *mtTable, tp sparql.TriplePattern, bound map[sparql.Var]bool) (*mtTable, error) {
	// Find a shared vertex-position variable to connect through.
	connect := -1
	for _, cand := range []sparql.TPElem{tp.S, tp.O} {
		if cand.IsVar && bound[cand.Var] {
			connect = s.Slot(cand.Var)
			break
		}
	}
	if connect < 0 || matches.loc < 0 {
		// Global driver-side join (disconnected pattern or constant-only).
		out := newMT(matches.loc)
		joined, err := sparql.JoinRows(mt.all(), matches.all(), false)
		for _, m := range joined {
			if out.loc >= 0 {
				vid := graphx.VertexID(m[out.loc])
				out.at[vid] = append(out.at[vid], m)
			} else {
				out.global = append(out.global, m)
			}
		}
		return out, err
	}
	if mt.loc != connect {
		mt = e.relocate(s, mt, connect)
	}
	// Relocate matches to the connecting variable as well.
	if matches.loc != connect {
		matches = e.relocate(s, matches, connect)
	}
	// Vertex-local join: tables meet at the shared vertex (the
	// joinVertices step of the paper). After the join the track
	// naturally continues at the new pattern's object (or stays at the
	// connect vertex).
	next := connect
	if tp.O.IsVar && s.Slot(tp.O.Var) != connect {
		next = s.Slot(tp.O.Var)
	} else if tp.S.IsVar && s.Slot(tp.S.Var) != connect {
		next = s.Slot(tp.S.Var)
	}
	out := newMT(next)
	for _, vid := range vertices(mt.at) {
		rs := matches.at[vid]
		if len(rs) == 0 {
			continue
		}
		for _, l := range mt.at[vid] {
			for _, r := range rs {
				if m, ok := solutions.Merge(l, r); ok {
					tv := graphx.VertexID(m[next])
					out.at[tv] = append(out.at[tv], m)
				}
			}
		}
	}
	return out, nil
}

// relocate moves an MT table to be keyed by a different bound slot. On
// a cluster the rows travel to their new home vertices, so the move is
// metered as a shuffle of the table.
func (e *Engine) relocate(s *solutions.Schema, mt *mtTable, to int) *mtTable {
	rows := mt.all()
	keyed := s.KeyBy(spark.Parallelize(e.ctx, rows), []int{to})
	_ = spark.PartitionBy(keyed, spark.NewHashPartitioner[string](e.ctx.DefaultParallelism()))
	out := newMT(to)
	for _, r := range rows {
		if !solutions.Bound(r[to]) {
			out.global = append(out.global, r)
			continue
		}
		vid := graphx.VertexID(r[to])
		out.at[vid] = append(out.at[vid], r)
	}
	return out
}
