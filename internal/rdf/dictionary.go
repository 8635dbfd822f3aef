package rdf

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// TermID is a dense integer identifier for a term. HAQWA [7] encodes
// string values to integers to shrink data volume and speed processing;
// the dictionary is shared by every engine that wants encoded triples.
type TermID uint32

// EncodedTriple is a triple in id space.
type EncodedTriple struct {
	S, P, O TermID
}

// CapacityError reports that a store build ran into one of the fixed
// widths of the id-space layout: TermIDs are uint32 with the top value
// reserved (the evaluator's unbound-slot sentinel), and triple
// positions and index offsets are 32-bit. Builds fail with this error
// instead of wrapping. So does a sharded run whose bind-join batch
// outgrows the 32-bit row index packed beside a position in its merge
// key (sparql's bindKey), and a hash join whose build side or output
// outgrows its 32-bit table links and cursors.
type CapacityError struct {
	What  string // "terms", "triples", "bind-join rows" or "join rows"
	Limit int64  // the most the store can hold
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("rdf: store is full: cannot hold more than %d %s", e.Limit, e.What)
}

// Dictionary maps terms to dense ids and back. It is safe for
// concurrent encoding (engines load partitions in parallel).
//
// The dictionary owns its strings: a term's Value, Datatype, and Lang
// are cloned when the term is first assigned an id, so an entry never
// pins the buffer it was parsed from (N-Triples terms are substrings of
// their input line).
type Dictionary struct {
	mu    sync.RWMutex
	ids   map[Term]TermID
	terms []Term
	limit int64 // ids are < limit; lowered only by tests
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[Term]TermID), limit: math.MaxUint32}
}

// Encode returns the id for t, assigning the next dense id on first
// sight. It panics with a *CapacityError once every id is taken;
// loaders of outside data use TryEncode.
func (d *Dictionary) Encode(t Term) TermID {
	id, err := d.TryEncode(t)
	if err != nil {
		panic(err)
	}
	return id
}

// TryEncode is Encode returning a *CapacityError instead of panicking
// when the dictionary is full.
func (d *Dictionary) TryEncode(t Term) (TermID, error) {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[t]; ok {
		return id, nil
	}
	if int64(len(d.terms)) >= d.limit {
		return 0, &CapacityError{What: "terms", Limit: d.limit}
	}
	t.Value = strings.Clone(t.Value)
	t.Datatype = strings.Clone(t.Datatype)
	t.Lang = strings.Clone(t.Lang)
	id = TermID(len(d.terms))
	d.ids[t] = id
	d.terms = append(d.terms, t)
	return id, nil
}

// Lookup returns the id of t without assigning one.
func (d *Dictionary) Lookup(t Term) (TermID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[t]
	return id, ok
}

// Terms returns a read-only snapshot of the id→term table: index i
// holds the term for TermID(i). Hot decode loops index this slice
// directly instead of taking the lock per lookup; ids assigned
// after the snapshot are not visible in it.
func (d *Dictionary) Terms() []Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[:len(d.terms):len(d.terms)]
}

// Len returns the number of distinct terms seen.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// TryEncodeTriple encodes all three positions, failing with a
// *CapacityError when the dictionary is full.
func (d *Dictionary) TryEncodeTriple(t Triple) (EncodedTriple, error) {
	s, err := d.TryEncode(t.S)
	if err != nil {
		return EncodedTriple{}, err
	}
	p, err := d.TryEncode(t.P)
	if err != nil {
		return EncodedTriple{}, err
	}
	o, err := d.TryEncode(t.O)
	if err != nil {
		return EncodedTriple{}, err
	}
	return EncodedTriple{S: s, P: p, O: o}, nil
}

// EncodeDistinct encodes the triples read hands over through a fresh
// dictionary and drops repeats in the same pass: enc holds the distinct
// triples in first-occurrence order, so a triple's position in the
// dataset is its index in enc, and ids are numbered in the order terms
// first appear (subject, predicate, object). The dedupe set is local to
// the pass. More than limit distinct triples fail with a
// *CapacityError, and so does a full dictionary; an error from read or
// add stops the pass and is returned.
func EncodeDistinct(read func(add func(Triple) error) error, limit int) (dict *Dictionary, enc []EncodedTriple, err error) {
	dict = NewDictionary()
	seen := make(map[EncodedTriple]struct{})
	err = read(func(t Triple) error {
		e, err := dict.TryEncodeTriple(t)
		if err != nil {
			return err
		}
		if _, dup := seen[e]; dup {
			return nil
		}
		if len(enc) >= limit {
			return &CapacityError{What: "triples", Limit: int64(limit)}
		}
		seen[e] = struct{}{}
		enc = append(enc, e)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return dict, enc, nil
}
