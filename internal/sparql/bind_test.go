package sparql

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// The bind join's scan resolution against brute force. bindShard
// resolves a pattern's constants once per shard op and, per input row,
// only the positions that row binds, then scans the smallest index
// range those select; refBindShard walks every triple of the view for
// every input row and keeps the ones that agree with the row and the
// pattern. The two must emit the same rows, in the same order, under
// the same merge keys — on a graph's view and on each view of a
// four-shard set, over random batches whose rows bind, or leave
// unbound, each variable, and random patterns of constants (now and
// then one the dictionary lacks) and variables (now and then one
// repeated). Mutants killed (each applied to a copy of eval.go or
// dist.go):
//   - narrow emptying the scan on a one-triple range: a row skipped on a
//     non-empty range;
//   - bindShard emitting every candidate without patternScan.matches:
//     the range of one bound position scanned as if it applied them
//     all;
//   - scanOn not resolving the constants (no resolve(nil)): the scan
//     keeps every value there, and extend writes into the slot the
//     constant does not have.

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
			max := []int{0, 0, 1 + r.Intn(6)}[r.Intn(3)]
			for vi, view := range views {
				w := &evalEnv{vars: make([]Var, nvars), view: view}
				keyed := vi > 0
				got, gotKeys := bindShard(w, &cp, in, max, keyed)
				want, wantKeys := refBindShard(view, &cp, in, max)
				if !keyed {
					wantKeys = nil
				}
				if len(got) != len(want) || !slices.Equal(gotKeys, wantKeys) {
					t.Logf("seed %d view %d: pattern %+v, %d input rows, max %d: %d rows, keys %v; reference %d rows, keys %v",
						seed, vi, cp, len(in), max, len(got), gotKeys, len(want), wantKeys)
					return false
				}
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Logf("seed %d view %d: pattern %+v: row %d is %v, reference %v", seed, vi, cp, i, got[i], want[i])
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
