package rdf

import (
	"sort"
	"sync"
)

// Graph is an in-memory RDF graph — a set of triples — held in id
// space: a dictionary, the distinct triples as 12-byte EncodedTriples
// in insertion order, and a set of them for deduplication. That is the
// only copy Add builds. Everything else is derived from it on first
// use and cached: the flat positional indexes the evaluator runs on
// (Encoded), the statistics (Stats), and the term-space face (Triples,
// WithSubject, WithPredicate, WithObject) that the RDFS closure, the
// engines' harness, and tests read. A graph that only serves queries
// never materializes a single term-space triple.
//
// Engines do not use Graph — they manage their own distributed
// layouts — but tests verify every engine against it.
//
// The term-space accessors return views without copying, in insertion
// order (within a key, for the positional lookups). Callers must treat
// the returned slices as read-only.
//
// Concurrency contract: a Graph is single-writer, many-reader. Add is
// not safe concurrently with anything; once loading is done, every
// read path — Encoded, Stats, the term-space accessors, and the views
// they return — is safe for unlimited concurrent readers. All derived
// state is filled under encMu, so N goroutines racing into a cold
// Encoded, Stats, Triples, or WithSubject is safe; this is the
// contract the query service (internal/server) and concurrent
// (*sparql.Prepared).Run depend on, and TestGraphConcurrentLazyInit
// pins it under the race detector. After an Add the next Encoded or
// Stats rebuilds from the encoded list (O(n)), while the term-space
// face only decodes the triples added since it was last read — so a
// caller that adds while it iterates a view (Materialize) or reads
// Triples in a loop between Adds (HAQWA's Allocate) pays O(1) per read
// once warm.
type Graph struct {
	dict *Dictionary
	enc  []EncodedTriple
	set  map[EncodedTriple]struct{}

	encMu sync.Mutex
	view  *EncodedView // flat indexes over enc; nil after mutation
	stats *Stats       // cached ComputeEncodedStats; nil after mutation
	terms termSpace
}

// termSpace is the decoded face of a Graph: enc[:len(triples)] as
// Triples, and — once a positional lookup has asked for them — the
// same triples grouped by subject, predicate, and object id. It trails
// enc and is caught up, under encMu, by whichever accessor runs next.
type termSpace struct {
	triples       []Triple
	byS, byP, byO map[TermID][]Triple // nil until first positional lookup
	indexed       int                 // triples[:indexed] are in the maps
}

// NewGraph builds a graph, deduplicating triples (RDF graphs are sets).
func NewGraph(triples []Triple) *Graph {
	return NewGraphWithDictionary(triples, NewDictionary())
}

// NewGraphWithDictionary builds a graph that encodes through dict
// instead of a private dictionary, so its TermIDs are consistent with
// every other user of dict. The usual concurrency contract applies,
// and additionally the shared dictionary must not be mutated by other
// writers while this graph is being added to.
func NewGraphWithDictionary(triples []Triple, dict *Dictionary) *Graph {
	g := &Graph{dict: dict, set: make(map[EncodedTriple]struct{}, len(triples))}
	for _, t := range triples {
		g.Add(t)
	}
	return g
}

// Add inserts a triple if not already present; it reports whether the
// triple was new. It panics with a *CapacityError when the store is
// full; loaders of outside data use TryAdd.
func (g *Graph) Add(t Triple) bool {
	added, err := g.TryAdd(t)
	if err != nil {
		panic(err)
	}
	return added
}

// TryAdd is Add returning a *CapacityError instead of panicking when
// the graph or its dictionary is full.
func (g *Graph) TryAdd(t Triple) (bool, error) {
	e, err := g.dict.TryEncodeTriple(t)
	if err != nil {
		return false, err
	}
	if _, dup := g.set[e]; dup {
		return false, nil
	}
	if len(g.enc) >= maxTriples {
		return false, &CapacityError{What: "triples", Limit: int64(maxTriples)}
	}
	g.set[e] = struct{}{}
	g.enc = append(g.enc, e)
	g.view, g.stats = nil, nil
	return true, nil
}

// Has reports membership.
func (g *Graph) Has(t Triple) bool {
	s, ok := g.dict.Lookup(t.S)
	if !ok {
		return false
	}
	p, ok := g.dict.Lookup(t.P)
	if !ok {
		return false
	}
	o, ok := g.dict.Lookup(t.O)
	if !ok {
		return false
	}
	_, ok = g.set[EncodedTriple{S: s, P: p, O: o}]
	return ok
}

// Len returns the number of distinct triples.
func (g *Graph) Len() int { return len(g.enc) }

// decoded catches the term-space list up with enc and returns it.
// Callers hold encMu.
func (g *Graph) decoded() []Triple {
	ts := &g.terms
	if len(ts.triples) == len(g.enc) {
		return ts.triples
	}
	if ts.triples == nil {
		ts.triples = make([]Triple, 0, len(g.enc))
	}
	terms := g.dict.Terms()
	for _, e := range g.enc[len(ts.triples):] {
		ts.triples = append(ts.triples, Triple{S: terms[e.S], P: terms[e.P], O: terms[e.O]})
	}
	return ts.triples
}

// indexed catches the term-space positional indexes up with enc.
// Callers hold encMu.
func (g *Graph) indexed() *termSpace {
	ts := &g.terms
	if ts.indexed == len(g.enc) {
		return ts
	}
	if ts.byS == nil {
		ts.byS = make(map[TermID][]Triple)
		ts.byP = make(map[TermID][]Triple)
		ts.byO = make(map[TermID][]Triple)
	}
	triples := g.decoded()
	for i := ts.indexed; i < len(triples); i++ {
		e, t := g.enc[i], triples[i]
		ts.byS[e.S] = append(ts.byS[e.S], t)
		ts.byP[e.P] = append(ts.byP[e.P], t)
		ts.byO[e.O] = append(ts.byO[e.O], t)
	}
	ts.indexed = len(triples)
	return ts
}

// Triples returns all triples in insertion order, decoding on first
// use (callers must not modify the slice).
func (g *Graph) Triples() []Triple {
	g.encMu.Lock()
	defer g.encMu.Unlock()
	return g.decoded()
}

// WithPredicate returns the triples with the given predicate IRI. The
// returned slice is a view into the index: no copy is made and callers
// must not modify it.
func (g *Graph) WithPredicate(p string) []Triple {
	id, ok := g.dict.Lookup(NewIRI(p))
	if !ok {
		return nil
	}
	g.encMu.Lock()
	defer g.encMu.Unlock()
	return g.indexed().byP[id]
}

// WithSubject returns the triples with the given subject, as a
// read-only view (no copy).
func (g *Graph) WithSubject(s Term) []Triple {
	id, ok := g.dict.Lookup(s)
	if !ok {
		return nil
	}
	g.encMu.Lock()
	defer g.encMu.Unlock()
	return g.indexed().byS[id]
}

// WithObject returns the triples with the given object, as a
// read-only view (no copy).
func (g *Graph) WithObject(o Term) []Triple {
	id, ok := g.dict.Lookup(o)
	if !ok {
		return nil
	}
	g.encMu.Lock()
	defer g.encMu.Unlock()
	return g.indexed().byO[id]
}

// Predicates returns the distinct predicate IRIs, sorted.
func (g *Graph) Predicates() []string {
	counts := g.Stats().PredicateCounts
	out := make([]string, 0, len(counts))
	for p := range counts {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Subjects returns the distinct subject terms (unsorted).
func (g *Graph) Subjects() []Term {
	terms := g.dict.Terms()
	seen := make([]bool, len(terms))
	var out []Term
	for _, e := range g.enc {
		if !seen[e.S] {
			seen[e.S] = true
			out = append(out, terms[e.S])
		}
	}
	return out
}

// Encoded returns the flat dictionary-encoded view of the graph,
// building it on first use and again (O(n)) on the first call after an
// Add, so the view returned always reflects every Add so far. Safe for
// concurrent readers as long as no Add runs concurrently (the same
// contract as every other read path).
func (g *Graph) Encoded() *EncodedView {
	g.encMu.Lock()
	defer g.encMu.Unlock()
	if g.view == nil {
		g.view = newEncodedView(g.dict, g.enc[:len(g.enc):len(g.enc)], nil)
	}
	return g.view
}

// Stats returns the SPARQLGX-style dataset statistics for the graph,
// computed in id space and cached until the next Add. Like Encoded,
// the lazy fill is locked so concurrent readers (parallel Evaluate
// calls on a shared graph) are safe. The PredicateCounts map is the
// cache itself, shared across calls like every other view this type
// returns: callers must treat it as read-only (use ComputeStats for an
// independent copy).
func (g *Graph) Stats() Stats {
	g.encMu.Lock()
	defer g.encMu.Unlock()
	if g.stats == nil {
		s := ComputeEncodedStats(g.dict, g.enc)
		g.stats = &s
	}
	return *g.stats
}

// Stats summarizes a dataset: the statistics SPARQLGX [13] collects to
// reorder joins (counts of distinct subjects, predicates, objects, and
// per-predicate triple counts).
type Stats struct {
	Triples            int
	DistinctSubjects   int
	DistinctPredicates int
	DistinctObjects    int
	PredicateCounts    map[string]int
}

// ComputeStats scans the dataset once and builds Stats.
func ComputeStats(triples []Triple) Stats {
	subj := make(map[Term]bool)
	pred := make(map[string]int)
	obj := make(map[Term]bool)
	for _, t := range triples {
		subj[t.S] = true
		pred[t.P.Value]++
		obj[t.O] = true
	}
	return Stats{
		Triples:            len(triples),
		DistinctSubjects:   len(subj),
		DistinctPredicates: len(pred),
		DistinctObjects:    len(obj),
		PredicateCounts:    pred,
	}
}

// ComputeEncodedStats is ComputeStats for a dataset of distinct triples
// already encoded through dict: the same Stats, field for field, as
// ComputeStats over the decoded triples, without decoding any.
func ComputeEncodedStats(dict *Dictionary, triples []EncodedTriple) Stats {
	terms := dict.Terms()
	subj := make([]bool, len(terms))
	obj := make([]bool, len(terms))
	predCount := make([]int, len(terms))
	st := Stats{Triples: len(triples), PredicateCounts: make(map[string]int)}
	for _, e := range triples {
		if !subj[e.S] {
			subj[e.S] = true
			st.DistinctSubjects++
		}
		if !obj[e.O] {
			obj[e.O] = true
			st.DistinctObjects++
		}
		predCount[e.P]++
	}
	for id, n := range predCount {
		if n > 0 {
			st.PredicateCounts[terms[id].Value] += n
		}
	}
	st.DistinctPredicates = len(st.PredicateCounts)
	return st
}

// Dedupe returns the distinct triples of ts in first-occurrence order.
// RDF graphs are sets; engines call this when loading raw streams that
// may repeat statements.
func Dedupe(ts []Triple) []Triple {
	seen := make(map[Triple]bool, len(ts))
	out := make([]Triple, 0, len(ts))
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
