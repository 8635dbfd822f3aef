package rdf

import "sync"

// Graph is an in-memory RDF graph — a set of triples — held as one
// id-space store: a dictionary, the distinct triples as 12-byte
// EncodedTriples in insertion order, and a pointer-free set of their
// positions for deduplication (tripleSet). That is the only copy Add
// builds. Two things are derived from it on first use and cached until
// the next Add: the flat positional indexes every query and the RDFS
// closure run on (Encoded), and the statistics (Stats). Triples decodes
// the whole list on each call and keeps nothing.
//
// Engines do not use Graph — they manage their own distributed
// layouts — but tests verify every engine against it.
//
// Concurrency contract: a Graph is single-writer, many-reader. Add is
// not safe concurrently with anything; once loading is done, every
// read path — Encoded, Stats, Triples, and the views they return — is
// safe for unlimited concurrent readers. The derived state is filled
// under encMu, so N goroutines racing into a cold Encoded or Stats is
// safe; this is the contract the query service (internal/server) and
// concurrent (*sparql.Prepared).Run depend on, and
// TestGraphConcurrentLazyInit pins it under the race detector. After
// an Add the next Encoded or Stats rebuilds from the encoded list
// (O(n)).
type Graph struct {
	dict *Dictionary
	enc  []EncodedTriple
	set  tripleSet

	encMu sync.Mutex
	view  *EncodedView // flat indexes over enc; nil after mutation
	stats *Stats       // cached ComputeEncodedStats; nil after mutation
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
	g := &Graph{dict: dict, set: make(tripleSet, 16)}
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
	return g.addEncoded(e)
}

// addEncoded inserts e, already encoded through g's dictionary, if not
// already present; it reports whether e was new.
func (g *Graph) addEncoded(e EncodedTriple) (bool, error) {
	i, dup := g.set.find(g.enc, e)
	if dup {
		return false, nil
	}
	if len(g.enc) >= maxTriples {
		return false, &CapacityError{What: "triples", Limit: int64(maxTriples)}
	}
	g.enc = append(g.enc, e)
	if g.set[i] = uint32(len(g.enc)); 2*len(g.enc) > len(g.set) {
		g.set = rehash(2*len(g.set), len(g.enc), func(p int) uint64 { return hashTriple(g.enc[p]) })
	}
	g.view, g.stats = nil, nil
	return true, nil
}

// tripleSet is a graph's dedupe index, and holds no pointer: a rehash
// table of positions+1 into the graph's encoded list, hashed over
// (S, P, O).
type tripleSet []uint32

// hashTriple mixes the three ids of e.
func hashTriple(e EncodedTriple) uint64 {
	h := (uint64(e.S)<<32 | uint64(e.O)) ^ uint64(e.P)*0x9e3779b97f4a7c15
	h = (h ^ h>>32) * 0xd6e8feb86659fd93
	return h ^ h>>32
}

// find returns the slot holding e's position in enc, or the empty slot
// where e goes.
func (s tripleSet) find(enc []EncodedTriple, e EncodedTriple) (int, bool) {
	mask := len(s) - 1
	for i := int(hashTriple(e)) & mask; ; i = (i + 1) & mask {
		if p := s[i]; p == 0 || enc[p-1] == e {
			return i, p != 0
		}
	}
}

// list is the encoded list, read under encMu: Encoded replaces it.
func (g *Graph) list() []EncodedTriple {
	g.encMu.Lock()
	defer g.encMu.Unlock()
	return g.enc
}

// Len returns the number of distinct triples.
func (g *Graph) Len() int { return len(g.list()) }

// Triples decodes all triples in insertion order into a new slice.
func (g *Graph) Triples() []Triple {
	terms, enc := g.dict.Terms(), g.list()
	out := make([]Triple, len(enc))
	for i, e := range enc {
		out[i] = Triple{S: terms[e.S], P: terms[e.P], O: terms[e.O]}
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
		g.enc = append(make([]EncodedTriple, 0, len(g.enc)), g.enc...) // the view keeps it: no slack
		g.view = newEncodedView(g.dict, g.enc, nil)
	}
	return g.view
}

// Stats returns the SPARQLGX-style dataset statistics for the graph,
// computed in id space and cached until the next Add. Like Encoded,
// the lazy fill is locked so concurrent readers (parallel Evaluate
// calls on a shared graph) are safe. The PredicateCounts map is the
// cache itself, shared across calls like every other view this type
// returns: callers must treat it as read-only.
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
	PredicateCounts    map[TermID]int // triples per predicate id
}

// ComputeEncodedStats scans a dataset of distinct triples encoded
// through dict once and builds its Stats.
func ComputeEncodedStats(dict *Dictionary, triples []EncodedTriple) Stats {
	n := dict.Len()
	subj, obj := make([]bool, n), make([]bool, n)
	predCount := make([]int, n)
	st := Stats{Triples: len(triples), PredicateCounts: make(map[TermID]int)}
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
	for id, c := range predCount {
		if c > 0 {
			st.PredicateCounts[TermID(id)] = c
		}
	}
	st.DistinctPredicates = len(st.PredicateCounts)
	return st
}
