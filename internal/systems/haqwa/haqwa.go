// Package haqwa reproduces HAQWA (Curé et al., ISWC 2015 P&D, survey
// ref [7]): a hash-based and query-workload-aware distributed RDF
// store, the first RDF-on-Spark approach. Its two-step fragmentation:
//
//  1. hash partitioning on triple subjects, which guarantees that
//     star-shaped queries evaluate locally with no network traffic;
//  2. workload-aware allocation: given the frequent queries, triples
//     reachable over the subject→object links those queries use are
//     replicated into the partition of the link's source subject, so
//     the registered query forms also run locally.
//
// String values are dictionary-encoded to integers to shrink volume.
// At query time a pattern is decomposed into subject-grouped (star)
// sub-queries; each candidate seed evaluates locally and, when the
// allocation does not cover a link, the missing join runs as a
// distributed RDD join.
package haqwa

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// Engine is the HAQWA system.
type Engine struct {
	solutions.Source
	ctx  *spark.Context
	data *solutions.Dataset
	// parts is the subject-hash-partitioned dataset (metered load).
	parts *spark.RDD[rdf.EncodedTriple]
	// native[i] indexes the triples whose subject hashes to partition i,
	// through the dataset's dictionary.
	native []*rdf.Graph
	// full[i] additionally contains replicated triples allocated to i;
	// Allocate builds it, and it is nil until then.
	full []*rdf.Graph
	// coveredLinks records the link predicates the workload-aware
	// allocation has replicated for (object-subject joins over them are
	// local).
	coveredLinks map[string]bool
	numParts     int
}

// New creates an unloaded engine on ctx.
func New(ctx *spark.Context) *Engine {
	return &Engine{ctx: ctx, coveredLinks: map[string]bool{}}
}

// Info implements core.Engine.
func (e *Engine) Info() core.SystemInfo {
	return core.SystemInfo{
		Name:            "HAQWA",
		Citation:        "[7]",
		Model:           core.TripleModel,
		Abstractions:    []core.Abstraction{core.RDDAbstraction},
		QueryProcessing: "RDD API",
		Optimized:       false,
		Partitioning:    "Hash / Query Aware",
		SPARQL:          core.FragmentBGPPlus,
	}
}

// Context implements core.Engine.
func (e *Engine) Context() *spark.Context { return e.ctx }

// Load hash-partitions the encoded dataset on the subject. Its ids are
// the dataset's, so each partition's graph encodes through the
// dataset's dictionary and its solutions are rows as they come.
func (e *Engine) Load(triples []rdf.Triple) error {
	d, err := e.Dataset(triples)
	if err != nil {
		return fmt.Errorf("haqwa: %w", err)
	}
	e.data = d
	e.numParts = e.ctx.DefaultParallelism()

	keyed := spark.KeyBy(spark.Parallelize(e.ctx, d.Triples), func(t rdf.EncodedTriple) rdf.TermID { return t.S })
	placed := spark.PartitionBy(keyed, spark.NewHashPartitioner[rdf.TermID](e.numParts))
	e.parts = spark.Values(placed)

	e.native = make([]*rdf.Graph, e.numParts)
	for i := range e.native {
		e.native[i] = rdf.NewGraphWithDictionary(nil, d.Dict)
		for _, t := range e.parts.Partition(i) {
			e.native[i].Add(rdf.Triple{S: d.Term(t.S), P: d.Term(t.P), O: d.Term(t.O)})
		}
	}
	e.full, e.coveredLinks = nil, map[string]bool{}
	return nil
}

// subjectPartition returns the partition the subject's hash assigns.
func (e *Engine) subjectPartition(s rdf.TermID) int {
	return spark.NewHashPartitioner[rdf.TermID](e.numParts).Partition(s)
}

// Allocate performs the second fragmentation step for a query
// workload: for every subject→object link (?x p ?y joined with ?y q ?z)
// in a workload query, the triples of the link target are replicated
// into the partition of the link source, and p is recorded as covered.
func (e *Engine) Allocate(workloadQueries []*sparql.Query) {
	if e.parts == nil {
		return
	}
	linkPreds := map[string]bool{}
	for _, q := range workloadQueries {
		bgp, ok := q.BGPOf()
		if !ok {
			continue
		}
		groups := solutions.Stars(bgp.Patterns)
		for _, ga := range groups {
			for _, tp := range ga {
				if !tp.O.IsVar || tp.P.IsVar {
					continue
				}
				// Does some other group have this object var as subject?
				for _, gb := range groups {
					if len(gb) > 0 && gb[0].S.IsVar && gb[0].S.Var == tp.O.Var && !sameGroup(ga, gb) {
						linkPreds[tp.P.Term.Value] = true
					}
				}
			}
		}
	}
	if len(linkPreds) == 0 {
		return
	}
	// Replicate: for each link triple (s p o) with p covered, copy every
	// triple with subject o into s's partition. The copies travel over
	// the network once, which is metered as a shuffle-sized transfer.
	d := e.data
	if e.full == nil {
		e.full = make([]*rdf.Graph, e.numParts)
		for i, g := range e.native {
			e.full[i] = rdf.NewGraphWithDictionary(g.Triples(), d.Dict)
		}
	}
	replicas := 0
	for i := 0; i < e.numParts; i++ {
		for _, lt := range e.parts.Partition(i) {
			if !linkPreds[d.Term(lt.P).Value] {
				continue
			}
			targetPart := e.subjectPartition(lt.O)
			for _, rt := range e.native[targetPart].Encoded().WithSubject(lt.O) {
				if e.full[i].Add(rdf.Triple{S: d.Term(rt.S), P: d.Term(rt.P), O: d.Term(rt.O)}) && targetPart != i {
					replicas++
				}
			}
		}
	}
	e.ctx.AddRead(replicas)
	for p := range linkPreds {
		e.coveredLinks[p] = true
	}
}

// Execute implements core.Engine.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	s, err := e.data.Schema("haqwa", q, false)
	if err != nil {
		return nil, err
	}
	bgp := func(b sparql.BGP) ([]solutions.Row, error) { return e.evalBGP(s, b) }
	return sparql.EvalRows(q, s.Vars, e.data.Dict, bgp, nil)
}

// evalBGP decomposes the BGP into subject star groups. A pure star (one
// group) evaluates locally on every partition — zero shuffle, HAQWA's
// headline property. A linked query whose links are covered by the
// allocation also evaluates locally against the replicated fragments,
// anchored at the seed subject to avoid duplicates. Anything else
// evaluates each star locally and joins the stars with distributed
// (shuffling) RDD joins.
func (e *Engine) evalBGP(s *solutions.Schema, bgp sparql.BGP) ([]solutions.Row, error) {
	if len(bgp.Patterns) == 0 {
		return []solutions.Row{s.Row()}, nil
	}
	groups := solutions.Stars(bgp.Patterns)
	if len(groups) == 1 {
		return e.evalLocal(s, sparql.BGP{Patterns: bgp.Patterns}, true, groups[0][0].S), nil
	}
	if seed, ok := e.coveredSeed(groups); ok {
		return e.evalLocal(s, bgp, false, seed), nil
	}
	// Distributed fallback: per-star local evaluation + shuffled joins.
	var cur *spark.RDD[solutions.Row]
	var curVars map[sparql.Var]bool
	for _, g := range groups {
		next := spark.Parallelize(e.ctx, e.evalLocal(s, sparql.BGP{Patterns: g}, true, g[0].S))
		gv := solutions.PatternVars(g)
		if cur == nil {
			cur, curVars = next, gv
			continue
		}
		shared := solutions.SharedVars(curVars, slices.Collect(maps.Keys(gv)))
		if len(shared) == 0 {
			cur = solutions.MergeCross(spark.Cartesian(cur, next))
		} else {
			slots := s.Slots(shared)
			cur = solutions.MergeJoined(spark.Join(s.KeyBy(cur, slots), s.KeyBy(next, slots)))
		}
		for v := range gv {
			curVars[v] = true
		}
	}
	return cur.Collect(), nil
}

// evalLocal evaluates a BGP independently on every partition (one task
// per partition, no shuffle). With nativeOnly the native fragment is
// used (stars are complete there); otherwise the replicated fragment is
// used and results are anchored: a solution counts only on the
// partition that natively owns its seed subject. Each partition's
// solutions fill rows straight from the evaluator's id-space answer,
// whose ids are the dataset's.
func (e *Engine) evalLocal(s *solutions.Schema, bgp sparql.BGP, nativeOnly bool, seed sparql.TPElem) []solutions.Row {
	idx := make([]int, e.numParts)
	for i := range idx {
		idx[i] = i
	}
	idxRDD := spark.ParallelizeN(e.ctx, idx, e.numParts)
	prep := sparql.PrepareQuery(&sparql.Query{Form: sparql.FormSelect, Where: bgp, Limit: -1})
	res := spark.MapPartitions(idxRDD, func(part []int) []solutions.Row {
		if len(part) == 0 {
			return nil
		}
		i := part[0]
		g := e.native[i]
		if !nativeOnly {
			g = e.full[i]
		}
		sols, err := prep.RunSolutions(context.TODO(), g)
		if err != nil {
			return nil
		}
		slots := s.Slots(sols.Vars())
		anchor := slices.Index(sols.Vars(), seed.Var)
		subj := e.data.ID(seed.Term)
		var out []solutions.Row
		for row := 0; row < sols.Len(); row++ {
			if !nativeOnly {
				// Anchor at the seed subject's home partition.
				if seed.IsVar {
					subj, _ = sols.TermID(row, anchor)
				}
				if e.subjectPartition(subj) != i {
					continue
				}
			}
			r := s.Row()
			for col, slot := range slots {
				if id, ok := sols.TermID(row, col); ok {
					r[slot] = id
				}
			}
			out = append(out, r)
		}
		return out
	})
	return res.Collect()
}

// coveredSeed reports whether the star groups form a 1-hop tree from a
// seed group over links the allocation covers, returning the seed
// subject.
func (e *Engine) coveredSeed(groups [][]sparql.TriplePattern) (sparql.TPElem, bool) {
	for _, seedGroup := range groups {
		allLinked := true
		for _, other := range groups {
			if sameGroup(seedGroup, other) {
				continue
			}
			linked := false
			for _, tp := range seedGroup {
				if tp.P.IsVar || !tp.O.IsVar {
					continue
				}
				if other[0].S.IsVar && other[0].S.Var == tp.O.Var && e.coveredLinks[tp.P.Term.Value] {
					linked = true
					break
				}
			}
			if !linked {
				allLinked = false
				break
			}
		}
		if allLinked {
			return seedGroup[0].S, true
		}
	}
	return sparql.TPElem{}, false
}

func sameGroup(a, b []sparql.TriplePattern) bool {
	return len(a) > 0 && len(b) > 0 && a[0] == b[0] && len(a) == len(b)
}
