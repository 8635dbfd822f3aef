// Package partition implements the data-partitioning
// strategies the survey's discussion (Sec. V) identifies as the key
// open lever for RDF-on-Spark systems: simple hash and vertical
// schemes, the semantic (class-based) partitioning of Troullinou et
// al. [27], workload-aware placement in the spirit of HAQWA, and a
// GraphX-based balanced label-propagation partitioner — the survey
// notes "GraphX has not been exploited yet towards this direction".
//
// Every strategy maps each triple to a partition, in id space;
// internal/shard serves a placement and verifies its subject
// co-location, the property the router's pushdown relies on.
package partition

import (
	"sort"

	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/spark/graphx"
	"repro/internal/sparql"
)

// Strategy assigns triples to partitions. It places in id space: the
// triples are encoded through dict, and a strategy that hashes a term
// hashes it once per TermID, not once per triple.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Place returns a partition index in [0, n) for every triple.
	Place(dict *rdf.Dictionary, triples []rdf.EncodedTriple, n int) []int
}

// termHash places a term by the hash of its bytes — its N-Triples
// rendering (Term.String's bytes), or with value set its bare Value,
// the key of the predicate and class placements — hashing each TermID
// at most once, so id-space placement is the term-space one.
type termHash struct {
	terms []rdf.Term
	n     int
	value bool
	memo  []int32 // partition+1 per TermID; 0 = not hashed yet
	buf   []byte
}

func newTermHash(dict *rdf.Dictionary, n int, value bool) *termHash {
	terms := dict.Terms()
	return &termHash{terms: terms, n: max(n, 1), value: value, memo: make([]int32, len(terms))}
}

// partition returns the partition of term id.
func (h *termHash) partition(id rdf.TermID) int {
	if p := h.memo[id]; p > 0 {
		return int(p - 1)
	}
	if h.value {
		h.buf = append(h.buf[:0], h.terms[id].Value...)
	} else {
		h.buf = h.terms[id].AppendTo(h.buf[:0])
	}
	p := spark.HashBytes(h.buf) % h.n
	h.memo[id] = int32(p + 1)
	return p
}

// --- strategies ---

// HashSubject is the Spark default applied to RDF: place by the hash
// of the subject.
type HashSubject struct{}

// Name implements Strategy.
func (HashSubject) Name() string { return "hash-subject" }

// Place implements Strategy.
func (HashSubject) Place(dict *rdf.Dictionary, triples []rdf.EncodedTriple, n int) []int {
	h := newTermHash(dict, n, false)
	out := make([]int, len(triples))
	for i, t := range triples {
		out[i] = h.partition(t.S)
	}
	return out
}

// Vertical places by the hash of the predicate (the SPARQLGX layout
// viewed as a partitioning).
type Vertical struct{}

// Name implements Strategy.
func (Vertical) Name() string { return "vertical" }

// Place implements Strategy.
func (Vertical) Place(dict *rdf.Dictionary, triples []rdf.EncodedTriple, n int) []int {
	h := newTermHash(dict, n, true)
	out := make([]int, len(triples))
	for i, t := range triples {
		out[i] = h.partition(t.P)
	}
	return out
}

// Semantic places by the rdf:type class of the subject (its first
// type in dataset order; untyped subjects fall back to subject hash) —
// the class-driven scheme of Troullinou et al. [27].
type Semantic struct{}

// Name implements Strategy.
func (Semantic) Name() string { return "semantic-class" }

// Place implements Strategy.
func (Semantic) Place(dict *rdf.Dictionary, triples []rdf.EncodedTriple, n int) []int {
	classOf := make([]rdf.TermID, dict.Len()) // class id+1 per subject; 0 = untyped
	if typ, ok := dict.Lookup(rdf.NewIRI(rdf.RDFType)); ok {
		for _, t := range triples {
			if t.P == typ && classOf[t.S] == 0 {
				classOf[t.S] = t.O + 1
			}
		}
	}
	class, subject := newTermHash(dict, n, true), newTermHash(dict, n, false)
	out := make([]int, len(triples))
	for i, t := range triples {
		if c := classOf[t.S]; c > 0 {
			out[i] = class.partition(c - 1)
		} else {
			out[i] = subject.partition(t.S)
		}
	}
	return out
}

// WorkloadAware co-locates subjects with the objects their triples
// point to over the link predicates a query workload joins on —
// HAQWA's allocation idea expressed as a partitioner.
type WorkloadAware struct {
	Queries []*sparql.Query
}

// Name implements Strategy.
func (WorkloadAware) Name() string { return "workload-aware" }

// Place implements Strategy.
func (w WorkloadAware) Place(dict *rdf.Dictionary, triples []rdf.EncodedTriple, n int) []int {
	linkPreds := map[rdf.TermID]bool{}
	for _, q := range w.Queries {
		bgp, ok := q.BGPOf()
		if !ok {
			continue
		}
		subjects := map[sparql.Var]bool{}
		for _, tp := range bgp.Patterns {
			if tp.S.IsVar {
				subjects[tp.S.Var] = true
			}
		}
		for _, tp := range bgp.Patterns {
			if !tp.P.IsVar && tp.O.IsVar && subjects[tp.O.Var] {
				if id, ok := dict.Lookup(rdf.NewIRI(tp.P.Term.Value)); ok {
					linkPreds[id] = true
				}
			}
		}
	}
	// Union-find over link edges: subjects joined to their link targets.
	terms := dict.Terms()
	parent := make([]rdf.TermID, len(terms))
	for i := range parent {
		parent[i] = rdf.TermID(i)
	}
	var find func(rdf.TermID) rdf.TermID
	find = func(x rdf.TermID) rdf.TermID {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, t := range triples {
		if linkPreds[t.P] && !terms[t.O].IsLiteral() {
			parent[find(t.S)] = find(t.O)
		}
	}
	h := newTermHash(dict, n, false)
	out := make([]int, len(triples))
	for i, t := range triples {
		out[i] = h.partition(find(t.S))
	}
	return out
}

// LabelPropagation is a graph partitioner built on the GraphX
// substrate: vertices iteratively adopt the most common partition
// label among their neighbors (with a capacity bias toward smaller
// partitions), minimizing the edge-cut the way the survey suggests
// graph partitioning should.
type LabelPropagation struct {
	// Rounds bounds the propagation iterations (default 5).
	Rounds int
}

// Name implements Strategy.
func (LabelPropagation) Name() string { return "graphx-label-propagation" }

// Place implements Strategy.
func (l LabelPropagation) Place(dict *rdf.Dictionary, triples []rdf.EncodedTriple, n int) []int {
	ctx := spark.NewContext(spark.DefaultConfig())
	rounds := l.Rounds
	if rounds <= 0 {
		rounds = 5
	}
	// Build the entity graph: vertices are subjects/objects, edges are
	// triples between entities. Vertex ids number terms in order of
	// first appearance on an edge — the order labels update in below.
	terms := dict.Terms()
	h := newTermHash(dict, n, false)
	ids := make([]graphx.VertexID, len(terms)) // 0 = not a vertex
	var vertices []graphx.Vertex[int]
	idOf := func(t rdf.TermID) graphx.VertexID {
		if ids[t] == 0 {
			ids[t] = graphx.VertexID(len(vertices) + 1)
			// Initial label: subject hash, so the result refines the default.
			vertices = append(vertices, graphx.Vertex[int]{ID: ids[t], Attr: h.partition(t)})
		}
		return ids[t]
	}
	var edges []graphx.Edge[struct{}]
	for _, t := range triples {
		if terms[t.O].IsLiteral() {
			continue
		}
		edges = append(edges, graphx.Edge[struct{}]{Src: idOf(t.S), Dst: idOf(t.O)})
	}
	g := graphx.New(ctx, vertices, edges)

	labels := map[graphx.VertexID]int{}
	for _, v := range g.Vertices().Collect() {
		labels[v.ID] = v.Attr
	}
	sizes := make([]int, n)
	for _, lbl := range labels {
		sizes[lbl]++
	}
	for round := 0; round < rounds; round++ {
		// One aggregateMessages round: each vertex hears its neighbors'
		// labels.
		current := labels
		votes := graphx.AggregateMessages(g,
			func(c *graphx.EdgeContext[int, struct{}, []int]) {
				c.SendToDst([]int{current[c.Triplet.Src]})
				c.SendToSrc([]int{current[c.Triplet.Dst]})
			},
			func(a, b []int) []int { return append(a, b...) })
		ctx.AddSupersteps(1)
		changed := 0
		// Deterministic order.
		vids := make([]graphx.VertexID, 0, len(labels))
		for vid := range labels {
			vids = append(vids, vid)
		}
		sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
		for _, vid := range vids {
			vs := votes[vid]
			if len(vs) == 0 {
				continue
			}
			counts := map[int]int{}
			for _, lbl := range vs {
				counts[lbl]++
			}
			best, bestScore := labels[vid], -1.0
			for lbl, c := range counts {
				// Capacity bias: discount labels of oversized partitions.
				score := float64(c) / (1 + float64(sizes[lbl])/float64(len(labels)))
				if score > bestScore || (score == bestScore && lbl < best) {
					best, bestScore = lbl, score
				}
			}
			if best != labels[vid] {
				sizes[labels[vid]]--
				sizes[best]++
				labels[vid] = best
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}
	out := make([]int, len(triples))
	for i, t := range triples {
		if id := ids[t.S]; id != 0 {
			out[i] = labels[id]
		} else {
			out[i] = h.partition(t.S)
		}
	}
	return out
}
