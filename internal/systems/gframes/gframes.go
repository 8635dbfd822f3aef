// Package gframes reproduces the approach of Bahrami, Gulati and
// Abulaish (WI 2017, survey ref [4]): efficient SPARQL processing over
// the GraphFrames API. The input dataset splits into a nodelist and an
// edgelist (two DataFrames) forming an unweighted labeled graph.
// SPARQL queries translate into query graphs (motifs) with two
// optimizations before matching:
//
//  1. join-order optimization: triple patterns sort by predicate
//     frequency in non-descending order, so rare predicates bind
//     first;
//  2. local search-space pruning: all triples whose predicate does not
//     appear in the BGP are discarded, and matching runs on the much
//     smaller temporary graph.
//
// Subgraph matching itself is GraphFrames motif finding, which
// compiles to DataFrame joins. A pattern's constant subject, object and
// predicate become constraints that graphframes.Find applies to that
// pattern's edge step before any join, where Catalyst would push them
// under GraphFrames' lazy DataFrame; a predicate variable repeated
// across patterns is checked right after the join that meets both.
//
// Supported fragment (Table II): BGP.
package gframes

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/spark/graphframes"
	sparksql "repro/internal/spark/sql"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// Engine is the GraphFrames system. A node's id is its term's
// rendering; an edge's rel is its predicate's IRI.
type Engine struct {
	solutions.Source
	ctx   *spark.Context
	data  *solutions.Dataset
	graph *graphframes.GraphFrame
}

// New creates an unloaded engine on ctx.
func New(ctx *spark.Context) *Engine { return &Engine{ctx: ctx} }

// Info implements core.Engine.
func (e *Engine) Info() core.SystemInfo {
	return core.SystemInfo{
		Name:            "GraphFrames",
		Citation:        "[4]",
		Model:           core.GraphModel,
		Abstractions:    []core.Abstraction{core.GraphFramesAbstraction},
		QueryProcessing: "Subgraph Matching",
		Optimized:       true,
		Partitioning:    "Default",
		SPARQL:          core.FragmentBGP,
	}
}

// Context implements core.Engine.
func (e *Engine) Context() *spark.Context { return e.ctx }

// Load splits the dataset into the nodelist and edgelist DataFrames.
func (e *Engine) Load(triples []rdf.Triple) error {
	d, err := e.Dataset(triples)
	if err != nil {
		return fmt.Errorf("gframes: %w", err)
	}
	e.data = d
	seen := map[rdf.TermID]bool{}
	var nodeRows []sparksql.Row
	edgeRows := make([]sparksql.Row, len(d.Triples))
	for i, t := range d.Triples {
		for _, id := range [2]rdf.TermID{t.S, t.O} {
			if !seen[id] {
				seen[id] = true
				nodeRows = append(nodeRows, sparksql.Row{d.Rendered(id)})
			}
		}
		edgeRows[i] = sparksql.Row{d.Rendered(t.S), d.Rendered(t.O), d.Term(t.P).Value}
	}
	nodes, err := sparksql.NewDataFrame(e.ctx, sparksql.Schema{"id"}, nodeRows)
	if err != nil {
		return err
	}
	edges, err := sparksql.NewDataFrame(e.ctx, sparksql.Schema{"src", "dst", "rel"}, edgeRows)
	if err != nil {
		return err
	}
	e.graph, err = graphframes.New(nodes, edges)
	return err
}

// Execute implements core.Engine. Only BGP queries are supported.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	s, err := e.data.Schema("gframes", q, true)
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
	// Optimization 1: sort patterns by predicate frequency,
	// non-descending (unknown predicates sort first: frequency 0).
	ordered := append([]sparql.TriplePattern{}, bgp.Patterns...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return e.predFreq(ordered[i]) < e.predFreq(ordered[j])
	})

	// Optimization 2: local search-space pruning — drop every edge
	// whose predicate the BGP does not mention (unless a pattern has a
	// variable predicate, which needs them all).
	graph := e.graph
	hasVarPred := false
	var preds []sparksql.Expr
	for _, tp := range ordered {
		if tp.P.IsVar {
			hasVarPred = true
			break
		}
		preds = append(preds, sparksql.Eq("rel", tp.P.Term.Value))
	}
	if !hasVarPred {
		var predFilter sparksql.Expr
		for _, p := range preds {
			if predFilter == nil {
				predFilter = p
			} else {
				predFilter = sparksql.BinOp{Op: "OR", L: predFilter, R: p}
			}
		}
		var err error
		graph, err = graph.FilterEdges(predFilter)
		if err != nil {
			return nil, err
		}
	}

	// Build the motif and its step constraints; Find applies each one
	// at the first step or join that covers it.
	motif, varNames, filters, err := e.buildMotif(ordered)
	if err != nil {
		return nil, err
	}
	df, err := graph.Find(motif, filters...)
	if err != nil {
		return nil, err
	}
	// Decode columns back into rows.
	schema := df.Schema()
	var out []solutions.Row
	for _, row := range df.Collect() {
		r := s.Row()
		ok := true
		for col, v := range varNames {
			i := schema.Index(col)
			if i < 0 {
				ok = false
				break
			}
			val, _ := row[i].(string)
			id, known := e.data.Parse(val)
			if !known {
				// Predicate columns hold raw IRIs.
				id = e.data.ID(rdf.NewIRI(val))
			}
			slot := s.Slot(v)
			if solutions.Bound(r[slot]) && r[slot] != id {
				ok = false
				break
			}
			r[slot] = id
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

func (e *Engine) predFreq(tp sparql.TriplePattern) int {
	if tp.P.IsVar {
		return 1 << 30
	}
	return e.data.Stats.PredicateCounts[e.data.ID(tp.P.Term)]
}

// buildMotif translates ordered patterns into a GraphFrames motif.
// Variables keep one motif name per variable (repeats join naturally);
// constants get fresh names plus a step constraint. Constant
// predicates become edge-attribute step constraints; variable
// predicates surface as "eN.rel" columns mapped back to the SPARQL
// variable, a repeated one constrained equal to its first column.
func (e *Engine) buildMotif(tps []sparql.TriplePattern) (string, map[string]sparql.Var, []sparksql.Expr, error) {
	motif := ""
	varNames := map[string]sparql.Var{} // result column -> SPARQL var
	var filters []sparksql.Expr
	vertexName := map[sparql.Var]string{} // var -> motif vertex name
	predCol := map[sparql.Var]string{}    // var -> "eN.rel" column
	fresh := 0
	nameFor := func(el sparql.TPElem) string {
		if el.IsVar {
			if n, ok := vertexName[el.Var]; ok {
				return n
			}
			n := fmt.Sprintf("v%d", fresh)
			fresh++
			vertexName[el.Var] = n
			varNames[n] = el.Var
			return n
		}
		n := fmt.Sprintf("c%d", fresh)
		fresh++
		filters = append(filters, sparksql.Eq(n, el.Term.String()))
		return n
	}
	for i, tp := range tps {
		if i > 0 {
			motif += "; "
		}
		edgeName := fmt.Sprintf("e%d", i)
		motif += fmt.Sprintf("(%s)-[%s]->(%s)", nameFor(tp.S), edgeName, nameFor(tp.O))
		if tp.P.IsVar {
			col := edgeName + ".rel"
			if prev, ok := predCol[tp.P.Var]; ok {
				// Same predicate variable twice: filter equality.
				filters = append(filters, sparksql.ColEq(col, prev))
			} else {
				predCol[tp.P.Var] = col
				varNames[col] = tp.P.Var
			}
		} else {
			filters = append(filters, sparksql.Eq(edgeName+".rel", tp.P.Term.Value))
		}
	}
	// A variable used both as a vertex and as a predicate must agree
	// across the two column spaces. Vertex ids are rendered IRIs
	// ("<iri>") while rel holds raw IRIs, so equate on content via the
	// decoded binding instead: keep both columns in varNames and rely
	// on the binding merge (which rejects mismatches) during decoding.
	return motif, varNames, filters, nil
}
