package rdf

import (
	"fmt"
	"math"
)

// maxTriples is the most triples one store holds: a position column
// entry (the sharded gather key, see NewPositionedView) is an int32 and
// permutation offsets are uint32. A variable only so a test can lower
// it to reach the boundary.
var maxTriples = math.MaxInt32

// EncodedView is a set of triples in TermID space with positional
// indexes keyed by id — the store every query runs on. The
// slot-compiled reference evaluator works entirely on this view —
// candidate scans, join-variable comparisons, and selectivity
// estimates all happen on 12-byte EncodedTriples instead of
// string-bearing Terms — and decodes ids back to Terms only when
// materializing final solutions.
//
// Layout: the triples once in insertion order, plus one permutation per
// position (subject, predicate, object) — a contiguous copy of the
// triples grouped by that position's id by a stable counting sort, so
// triples within a key keep insertion order, with a dense offset table
// indexed by TermID. A lookup is two array reads and a reslice; there
// is no Go map and no pointer anywhere in the view, so the collector
// never scans it. The offset tables cost 4 bytes per id up to the
// largest id the view uses in that position; an id beyond it (one the
// view has never seen, or one a shared dictionary assigned later)
// reads as empty.
//
// A shard of a larger dataset (NewPositionedView) also carries, beside
// the insertion-order list and beside each permutation, an int32 column
// aligned with it: entry i is the position triple i holds in the whole
// dataset. The same counting sort lays both out, so every lookup hands
// back the triples and their positions as two reslices of one range,
// and a scan reads a match's global position from the array it is
// already walking. A single-graph view has no columns (they read nil).
//
// A view is immutable. Obtain one with Graph.Encoded(), or build one
// directly from encoded triples with NewPositionedView. All returned
// slices are views into the index and must be treated as read-only.
type EncodedView struct {
	dict    *Dictionary
	triples []EncodedTriple
	pos     []int32 // aligned with triples; nil on a single-graph view
	byS     permutation
	byP     permutation
	byO     permutation
}

// permutation holds the triples grouped by one position's id: the
// triples with id k in that position are data[off[k]:off[k+1]], and
// their dataset positions (when the view carries them) pos[off[k]:off[k+1]].
type permutation struct {
	data []EncodedTriple
	pos  []int32
	off  []uint32
}

// Positions of an EncodedTriple, for keyAt.
const (
	posS = iota
	posP
	posO
)

func (e EncodedTriple) keyAt(pos int) TermID {
	switch pos {
	case posS:
		return e.S
	case posP:
		return e.P
	}
	return e.O
}

// newPermutation groups ts by the id at pos with a stable counting
// sort, permuting positions (nil, or aligned with ts) the same way.
// len(ts) must not exceed maxTriples (offsets are uint32).
func newPermutation(ts []EncodedTriple, positions []int32, pos int) permutation {
	if len(ts) == 0 {
		return permutation{}
	}
	maxKey := TermID(0)
	for _, e := range ts {
		if k := e.keyAt(pos); k > maxKey {
			maxKey = k
		}
	}
	off := make([]uint32, int(maxKey)+2)
	for _, e := range ts {
		off[int(e.keyAt(pos))+1]++
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	next := make([]uint32, maxKey+1)
	copy(next, off)
	p := permutation{data: make([]EncodedTriple, len(ts)), off: off}
	if positions != nil {
		p.pos = make([]int32, len(ts))
	}
	for i, e := range ts {
		k := e.keyAt(pos)
		p.data[next[k]] = e
		if p.pos != nil {
			p.pos[next[k]] = positions[i]
		}
		next[k]++
	}
	return p
}

func (p *permutation) get(id TermID) ([]EncodedTriple, []int32) {
	k := int(id)
	if k+1 >= len(p.off) || p.off[k] == p.off[k+1] {
		return nil, nil
	}
	lo, hi := p.off[k], p.off[k+1]
	if p.pos == nil {
		return p.data[lo:hi], nil
	}
	return p.data[lo:hi], p.pos[lo:hi]
}

// newEncodedView indexes ts and positions (nil, or aligned with ts),
// which the view keeps (no copy) and which must never change
// afterwards.
func newEncodedView(dict *Dictionary, ts []EncodedTriple, positions []int32) *EncodedView {
	return &EncodedView{
		dict:    dict,
		triples: ts,
		pos:     positions,
		byS:     newPermutation(ts, positions, posS),
		byP:     newPermutation(ts, positions, posP),
		byO:     newPermutation(ts, positions, posO),
	}
}

// NewPositionedView builds a view over a copy of triples, which must
// be distinct and already encoded through dict; it fails with a
// *CapacityError beyond the store's triple limit. It serves one shard
// of a larger dataset: positions[i] is the place triples[i] holds in
// the whole dataset's insertion order, ascending, and the view keeps
// a copy of it aligned with every order it stores the triples in (the
// Scan* accessors). Shards are built this way straight from their
// encoded buckets around one shared dictionary: a TermID means the
// same term on every shard, so cross-shard merging, joining, and
// deduplication stay in id space, and no term-space graph is ever
// materialized. Nil positions build a plain view without columns.
func NewPositionedView(dict *Dictionary, triples []EncodedTriple, positions []int32) (*EncodedView, error) {
	if len(triples) > maxTriples {
		return nil, &CapacityError{What: "triples", Limit: int64(maxTriples)}
	}
	if positions != nil {
		if len(positions) != len(triples) {
			return nil, fmt.Errorf("rdf: %d positions for %d triples", len(positions), len(triples))
		}
		positions = append([]int32(nil), positions...)
	}
	return newEncodedView(dict, append([]EncodedTriple(nil), triples...), positions), nil
}

// Dict returns the dictionary that maps ids to terms and back.
func (v *EncodedView) Dict() *Dictionary { return v.dict }

// Len returns the number of encoded triples.
func (v *EncodedView) Len() int { return len(v.triples) }

// WithSubject returns the encoded triples whose subject is id, in
// insertion order (read-only, no copy).
func (v *EncodedView) WithSubject(id TermID) []EncodedTriple { ts, _ := v.byS.get(id); return ts }

// WithPredicate returns the encoded triples whose predicate is id, in
// insertion order (read-only, no copy).
func (v *EncodedView) WithPredicate(id TermID) []EncodedTriple { ts, _ := v.byP.get(id); return ts }

// WithObject returns the encoded triples whose object is id, in
// insertion order (read-only, no copy).
func (v *EncodedView) WithObject(id TermID) []EncodedTriple { ts, _ := v.byO.get(id); return ts }

// ScanAll, ScanSubject, ScanPredicate and ScanObject are Triples and
// the With* lookups handing back the position column beside the
// triples: positions[i] is triples[i]'s place in the whole dataset,
// ascending. The column is nil on a view built without positions.
func (v *EncodedView) ScanAll() ([]EncodedTriple, []int32) { return v.triples, v.pos }

func (v *EncodedView) ScanSubject(id TermID) ([]EncodedTriple, []int32) { return v.byS.get(id) }

func (v *EncodedView) ScanPredicate(id TermID) ([]EncodedTriple, []int32) { return v.byP.get(id) }

func (v *EncodedView) ScanObject(id TermID) ([]EncodedTriple, []int32) { return v.byO.get(id) }
