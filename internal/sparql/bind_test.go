package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// The scan kernel against brute force. bindShard — the one loop every
// route extends rows with — resolves a pattern's constants once per
// shard op and, per input row, only the positions that row binds, then
// scans the smallest index range those select and writes each output
// row once, a copy of its input row with the unbound positions stored
// straight from the candidate. refBindShard walks every triple of the
// view for every input row and keeps the ones that agree with the row
// and the pattern, binding through a clone of the row. The two must
// emit the same rows, in the same order, under the same merge keys — on
// a graph's view and on each view of a four-shard set, over random
// batches (and each of their rows alone) whose rows bind, or leave
// unbound, each variable, random patterns of constants (now and then
// one the dictionary lacks) and variables (now and then one repeated),
// and max ∈ {0, 1, k} — and never write to an input row. Mutants killed
// (each applied to a copy of eval.go or dist.go):
//   - narrow emptying the scan on a one-triple range: a row skipped on a
//     non-empty range;
//   - bindShard emitting every candidate without patternScan.matches:
//     the range of one bound position scanned as if it applied them
//     all;
//   - scanOn not resolving the constants (no resolve(nil)): the scan
//     keeps every value there, and extend writes into the slot the
//     constant does not have;
//   - extend writing into row instead of a fresh copy: an input row
//     changes under the scan;
//   - bindShard checking max only after a run of candidates: a max = 1
//     step returns every match of its first row.

// refBindShard is the reference: every (input row, triple) pair in
// order, the triple kept when each position equals the pattern's
// constant or the row's binding and a repeated variable takes one value.
func refBindShard(view *rdf.EncodedView, cp *cPattern, in []slotRow, max int) ([]slotRow, []uint64) {
	for _, e := range [3]cElem{cp.s, cp.p, cp.o} {
		if !e.isVar && !e.ok {
			return nil, nil
		}
	}
	all, positions := view.ScanAll()
	var rows []slotRow
	var keys []uint64
	for i, row := range in {
		for k, t := range all {
			out := slices.Clone(row)
			ok := true
			for _, b := range [3]struct {
				e  cElem
				id rdf.TermID
			}{{cp.s, t.S}, {cp.p, t.P}, {cp.o, t.O}} {
				switch {
				case !b.e.isVar:
					ok = ok && b.e.id == b.id
				case out[b.e.slot] == unboundID:
					out[b.e.slot] = b.id
				default:
					ok = ok && out[b.e.slot] == b.id
				}
			}
			if !ok {
				continue
			}
			rows = append(rows, out)
			if positions != nil {
				keys = append(keys, bindKey(i, positions[k]))
			}
			if max > 0 && len(rows) >= max {
				return rows, keys
			}
		}
	}
	return rows, keys
}

// fourShards splits an encoded dataset over four positioned views by a
// random placement, each keeping its triples' relative order and global
// positions.
func fourShards(t *testing.T, r *rand.Rand, dict *rdf.Dictionary, enc []rdf.EncodedTriple) []*rdf.EncodedView {
	parts := make([][]rdf.EncodedTriple, 4)
	pos := make([][]int32, 4)
	for i, e := range enc {
		s := r.Intn(4)
		parts[s] = append(parts[s], e)
		pos[s] = append(pos[s], int32(i))
	}
	views := make([]*rdf.EncodedView, 4)
	for s := range views {
		v, err := rdf.NewPositionedView(dict, parts[s], pos[s])
		if err != nil {
			t.Fatal(err)
		}
		views[s] = v
	}
	return views
}

// scanVocab is small and shared by all three positions, so random
// triples repeat a term across positions ((a a b), (a b a), (a a a)) and
// a pattern that repeats a variable has something to match and something
// to reject.
func scanVocab() []rdf.Term {
	var v []rdf.Term
	for i := 0; i < 5; i++ {
		v = append(v, rdf.NewIRI(fmt.Sprintf("http://ex/t%d", i)))
	}
	return v
}

// sameRun reports whether bindShard's output for in equals the
// reference's, rows, order and keys, logging the first difference.
func sameRun(t *testing.T, what string, w *evalEnv, cp *cPattern, in []slotRow, max int, keyed bool) bool {
	before := make([]slotRow, len(in))
	for i, row := range in {
		before[i] = slices.Clone(row)
	}
	got, gotKeys := bindShard(w, cp, in, max, keyed)
	want, wantKeys := refBindShard(w.view, cp, in, max)
	if !keyed {
		wantKeys = nil
	}
	for i := range in {
		if !slices.Equal(in[i], before[i]) {
			t.Logf("%s: pattern %+v wrote to input row %d: %v, was %v", what, *cp, i, in[i], before[i])
			return false
		}
	}
	if len(got) != len(want) || !slices.Equal(gotKeys, wantKeys) {
		t.Logf("%s: pattern %+v, %d input rows, max %d: %d rows, keys %v; reference %d rows, keys %v",
			what, *cp, len(in), max, len(got), gotKeys, len(want), wantKeys)
		return false
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Logf("%s: pattern %+v: row %d is %v, reference %v", what, *cp, i, got[i], want[i])
			return false
		}
	}
	return true
}

func TestBindShardMatchesBruteForceProperty(t *testing.T) {
	const nvars = 3
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vocab := scanVocab()
		var ts []rdf.Triple
		for n := 1 + r.Intn(80); n > 0; n-- {
			ts = append(ts, rdf.Triple{S: vocab[r.Intn(len(vocab))], P: vocab[r.Intn(len(vocab))], O: vocab[r.Intn(len(vocab))]})
		}
		g := rdf.NewGraph(ts)
		dict := g.Encoded().Dict()
		enc, _ := g.Encoded().ScanAll()
		// One more term the data never uses: a constant or binding every
		// view lacks.
		absent := dict.Encode(rdf.NewIRI("http://ex/absent"))
		views := append([]*rdf.EncodedView{g.Encoded()}, fourShards(t, r, dict, enc)...)
		for trial := 0; trial < 30; trial++ {
			elem := func() cElem {
				switch r.Intn(3) {
				case 0:
					if r.Intn(10) == 0 {
						return cElem{} // a constant the dictionary lacks
					}
					return cElem{id: rdf.TermID(r.Intn(int(absent) + 1)), ok: true}
				}
				return cElem{isVar: true, slot: r.Intn(nvars)}
			}
			cp := cPattern{s: elem(), p: elem(), o: elem()}
			collectPatternSlots(&cp)
			in := make([]slotRow, 1+r.Intn(12))
			for i := range in {
				in[i] = slotRow{unboundID, unboundID, unboundID}
				for s := range in[i] {
					if r.Intn(2) == 0 {
						in[i][s] = rdf.TermID(r.Intn(int(absent) + 1))
					}
				}
			}
			max := []int{0, 1, 2 + r.Intn(5)}[r.Intn(3)]
			for vi, view := range views {
				w := &evalEnv{vars: make([]Var, nvars), view: view}
				keyed := vi > 0
				what := fmt.Sprintf("seed %d view %d", seed, vi)
				if !sameRun(t, what, w, &cp, in, max, keyed) {
					return false
				}
				for i := range in {
					if !sameRun(t, fmt.Sprintf("%s row %d alone", what, i), w, &cp, in[i:i+1], max, keyed) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
