package rdf

import (
	"cmp"
	"fmt"
	"hash/maphash"
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
// their input line). Its term→id index holds no pointer, so the
// collector never scans it: a rehash table of id+1, hashed over the
// whole term under a per-dictionary seed, probed under the read lock
// and grown under the write lock. Beside the terms it keeps their
// numeric column (Numbers), filled as each id is assigned.
type Dictionary struct {
	mu    sync.RWMutex
	seed  maphash.Seed
	index []uint32
	terms []Term
	nums  Numbers
	limit int64 // ids are < limit; lowered only by tests
}

// Numbers is the dictionary's numeric column: entry i is TermID(i)'s
// value when its term is a numeric literal (NumericValue), valued once
// as the id is assigned, so a comparison reads a float instead of
// parsing the lexical form. It holds no pointer, 8 B a term; a term
// that is not numeric holds notNumeric, a NaN whose payload no parse
// returns (strconv's NaN is math.NaN's).
type Numbers []float64

const notNumeric = 0x7ff8_0000_0000_0bad

// At returns id's value and whether its term is numeric.
func (n Numbers) At(id TermID) (float64, bool) {
	f := n[id]
	return f, math.Float64bits(f) != notNumeric
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{seed: maphash.MakeSeed(), index: make([]uint32, 64), limit: math.MaxUint32}
}

// hash mixes all of t under d's seed, in one string hash for most terms.
func (d *Dictionary) hash(t Term) uint64 {
	h := maphash.String(d.seed, t.Value) + uint64(t.Kind)
	if t.Datatype != "" || t.Lang != "" {
		h ^= maphash.String(d.seed, t.Datatype)*0x9e3779b97f4a7c15 ^ maphash.String(d.seed, t.Lang)*0xd6e8feb86659fd93
	}
	return h
}

// find returns t's id, or the empty index slot where t goes. The
// caller holds d.mu.
func (d *Dictionary) find(t Term) (id TermID, slot int, ok bool) {
	mask := len(d.index) - 1
	for i := int(d.hash(t)) & mask; ; i = (i + 1) & mask {
		if v := d.index[i]; v == 0 || d.terms[v-1] == t {
			return TermID(v - 1), i, v != 0
		}
	}
}

// insert returns t's id, assigning the next one on first sight. The
// caller holds d.mu for writing.
func (d *Dictionary) insert(t Term) (TermID, error) {
	id, i, ok := d.find(t)
	if ok {
		return id, nil
	}
	if int64(len(d.terms)) >= d.limit {
		return 0, &CapacityError{What: "terms", Limit: d.limit}
	}
	d.terms = append(d.terms, Term{t.Kind, strings.Clone(t.Value), strings.Clone(t.Datatype), strings.Clone(t.Lang)})
	f, ok := NumericValue(t)
	if !ok {
		f = math.Float64frombits(notNumeric)
	}
	d.nums = append(d.nums, f)
	d.index[i] = uint32(len(d.terms))
	if 2*len(d.terms) > len(d.index) {
		d.index = rehash(2*len(d.index), len(d.terms), func(id int) uint64 { return d.hash(d.terms[id]) })
	}
	return TermID(len(d.terms) - 1), nil
}

// rehash returns a table of size slots (a power of two) holding 1..n,
// entry i+1 in the first free slot from hash(i) on, 0 in the rest: the
// layout of both of the store's indexes, each kept at most half full.
func rehash(size, n int, hash func(i int) uint64) []uint32 {
	t := make([]uint32, size)
	mask := size - 1
	for i := 0; i < n; i++ {
		j := int(hash(i)) & mask
		for t[j] != 0 {
			j = (j + 1) & mask
		}
		t[j] = uint32(i + 1)
	}
	return t
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
	id, _, ok := d.find(t)
	d.mu.RUnlock()
	if ok {
		return id, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.insert(t)
}

// Lookup returns the id of t without assigning one.
func (d *Dictionary) Lookup(t Term) (TermID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, _, ok := d.find(t)
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

// Numbers returns a read-only snapshot of the numeric column, as Terms
// does of the terms. Taken after Terms, it covers every id of that
// snapshot.
func (d *Dictionary) Numbers() Numbers {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nums[:len(d.nums):len(d.nums)]
}

// Len returns the number of distinct terms seen.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// TryEncodeTriple encodes all three positions, failing with a
// *CapacityError when the dictionary is full. It probes the three
// under one read lock and takes the write lock only when one is new.
func (d *Dictionary) TryEncodeTriple(t Triple) (EncodedTriple, error) {
	d.mu.RLock()
	s, _, okS := d.find(t.S)
	p, _, okP := d.find(t.P)
	o, _, okO := d.find(t.O)
	d.mu.RUnlock()
	if okS && okP && okO {
		return EncodedTriple{S: s, P: p, O: o}, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, errS := d.insert(t.S) // once one fails the dictionary is full,
	p, errP := d.insert(t.P) // so the next insert assigns nothing
	o, errO := d.insert(t.O)
	if err := cmp.Or(errS, errP, errO); err != nil {
		return EncodedTriple{}, err
	}
	return EncodedTriple{S: s, P: p, O: o}, nil
}

// EncodeDistinct adds the triples read hands over to a fresh graph and
// returns its dictionary and encoded list: the distinct triples in
// first-occurrence order (a triple's position is its index in enc), ids
// numbered in the order terms first appear (subject, predicate,
// object). More than limit distinct triples fail with a *CapacityError,
// as does a full store; an error from read or add stops the pass.
func EncodeDistinct(read func(add func(Triple) error) error, limit int) (dict *Dictionary, enc []EncodedTriple, err error) {
	g := NewGraph(nil)
	err = read(func(t Triple) error {
		added, err := g.TryAdd(t)
		if added && g.Len() > limit {
			return &CapacityError{What: "triples", Limit: int64(limit)}
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return g.dict, g.enc, nil
}
