// Package evolve implements the survey's closing research direction
// (Sec. V): RDF data "are constantly evolving, typically without any
// warning", so next-generation parallel RDF query answering systems
// "should be able to handle evolving data in an uninterrupted manner",
// keeping track of versions so both the latest and previous states
// stay queryable (the archiving-policy line of [25] and the SPBV
// versioning benchmark [22]).
//
// Store is a delta-chained version store over RDF triples: version 0
// is the base snapshot and every commit appends an (added, removed)
// delta. Any version can be reconstructed, queried, or diffed against
// another. Live wraps any surveyed engine and serves queries without
// interruption while new versions load in the background: readers
// always hit a fully-loaded engine (double buffering), never a
// half-built one.
package evolve

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Version identifies a dataset state; the base snapshot is Version 0.
type Version int

// Delta is one commit: the statements added and removed relative to
// the previous version.
type Delta struct {
	Added   []rdf.Triple
	Removed []rdf.Triple
}

// Store is an append-only chain of deltas over a base snapshot. It is
// safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	base   []rdf.Triple
	deltas []Delta
}

// NewStore creates a store whose version 0 holds base (deduplicated).
func NewStore(base []rdf.Triple) *Store {
	return &Store{base: rdf.NewGraph(base).Triples()}
}

// Head returns the newest version.
func (s *Store) Head() Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Version(len(s.deltas))
}

// Commit appends a delta and returns the new version. Added triples
// already present and removed triples absent at the head are ignored,
// so deltas stay minimal and reconstruction stays exact.
func (s *Store) Commit(added, removed []rdf.Triple) (Version, error) {
	for _, t := range added {
		if err := t.Validate(); err != nil {
			return 0, fmt.Errorf("evolve: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	current := map[rdf.Triple]bool{}
	for _, t := range s.snapshotLocked(Version(len(s.deltas))) {
		current[t] = true
	}
	var d Delta
	seenAdd := map[rdf.Triple]bool{}
	for _, t := range added {
		if !current[t] && !seenAdd[t] {
			seenAdd[t] = true
			d.Added = append(d.Added, t)
		}
	}
	seenRem := map[rdf.Triple]bool{}
	for _, t := range removed {
		if current[t] && !seenAdd[t] && !seenRem[t] {
			seenRem[t] = true
			d.Removed = append(d.Removed, t)
		}
	}
	s.deltas = append(s.deltas, d)
	return Version(len(s.deltas)), nil
}

// DeltaOf returns the delta that produced version v (v >= 1).
func (s *Store) DeltaOf(v Version) (Delta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v < 1 || int(v) > len(s.deltas) {
		return Delta{}, fmt.Errorf("evolve: no delta for version %d", v)
	}
	return s.deltas[v-1], nil
}

// Snapshot reconstructs the full triple set of version v.
func (s *Store) Snapshot(v Version) ([]rdf.Triple, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v < 0 || int(v) > len(s.deltas) {
		return nil, fmt.Errorf("evolve: unknown version %d (head is %d)", v, len(s.deltas))
	}
	return s.snapshotLocked(v), nil
}

func (s *Store) snapshotLocked(v Version) []rdf.Triple {
	set := make(map[rdf.Triple]bool, len(s.base))
	var order []rdf.Triple
	for _, t := range s.base {
		set[t] = true
		order = append(order, t)
	}
	for _, d := range s.deltas[:v] {
		for _, t := range d.Added {
			if !set[t] {
				set[t] = true
				order = append(order, t)
			}
		}
		for _, t := range d.Removed {
			delete(set, t)
		}
	}
	out := make([]rdf.Triple, 0, len(set))
	for _, t := range order {
		if set[t] {
			out = append(out, t)
		}
	}
	return out
}

// QueryAt answers q over version v with the reference evaluator.
func (s *Store) QueryAt(v Version, q *sparql.Query) (*sparql.Results, error) {
	snap, err := s.Snapshot(v)
	if err != nil {
		return nil, err
	}
	return sparql.Evaluate(q, rdf.NewGraph(snap))
}

// DiffResults evaluates q at two versions and returns the solutions
// that appeared and disappeared between them (canonical row strings) —
// the cross-version delta queries of SPBV-style archive benchmarks.
func (s *Store) DiffResults(from, to Version, q *sparql.Query) (appeared, disappeared []string, err error) {
	a, err := s.QueryAt(from, q)
	if err != nil {
		return nil, nil, err
	}
	b, err := s.QueryAt(to, q)
	if err != nil {
		return nil, nil, err
	}
	inA := multiset(a.Canonical())
	inB := multiset(b.Canonical())
	for row, n := range inB {
		for i := inA[row]; i < n; i++ {
			appeared = append(appeared, row)
		}
	}
	for row, n := range inA {
		for i := inB[row]; i < n; i++ {
			disappeared = append(disappeared, row)
		}
	}
	return appeared, disappeared, nil
}

func multiset(rows []string) map[string]int {
	m := map[string]int{}
	for _, r := range rows {
		m[r]++
	}
	return m
}

// Live serves SPARQL over the head of a store through a surveyed
// engine, uninterrupted across commits: Refresh loads the new head
// into a fresh engine off to the side and swaps it in atomically, so
// concurrent Execute calls always see a complete version.
type Live struct {
	store   *Store
	factory func() core.Engine

	mu      sync.RWMutex
	engine  core.Engine
	version Version
}

// NewLive builds a Live server over store using factory to create
// engines (one per loaded version) and loads the current head.
func NewLive(store *Store, factory func() core.Engine) (*Live, error) {
	l := &Live{store: store, factory: factory, version: -1}
	if err := l.Refresh(); err != nil {
		return nil, err
	}
	return l, nil
}

// Version returns the version currently being served.
func (l *Live) Version() Version {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.version
}

// Refresh loads the store's head into a fresh engine and swaps it in.
// Queries keep running against the previous engine until the swap.
func (l *Live) Refresh() error {
	head := l.store.Head()
	l.mu.RLock()
	current := l.version
	l.mu.RUnlock()
	if head == current {
		return nil
	}
	snap, err := l.store.Snapshot(head)
	if err != nil {
		return err
	}
	next := l.factory()
	if err := next.Load(snap); err != nil {
		return err
	}
	l.mu.Lock()
	l.engine = next
	l.version = head
	l.mu.Unlock()
	return nil
}

// Execute answers q against the most recently loaded version.
func (l *Live) Execute(q *sparql.Query) (*sparql.Results, Version, error) {
	l.mu.RLock()
	engine := l.engine
	version := l.version
	l.mu.RUnlock()
	res, err := engine.Execute(q)
	return res, version, err
}
