package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// The scan kernel against the loop it replaced. scanPattern writes each
// output row once — a copy of the input row with the positions that row
// leaves unbound stored straight from the candidate — and leaves
// everything there is to check to patternScan.matches. refScanPattern is
// the replaced loop, kept as the reference: it filters on the bound
// positions only, binds every variable position through a scratch copy
// of the row, and compares wherever the scratch already holds a value —
// which is how it notices a variable the pattern repeats.

func refScanPattern(ps *patternScan, row slotRow, cands []rdf.EncodedTriple, max int) []slotRow {
	cp := ps.cp
	scratch := make(slotRow, len(row))
	var out []slotRow
	for _, t := range cands {
		if ps.sBound && t.S != ps.sID || ps.pBound && t.P != ps.pID || ps.oBound && t.O != ps.oID {
			continue
		}
		copy(scratch, row)
		ok := true
		for _, bind := range [3]struct {
			e  cElem
			id rdf.TermID
		}{{cp.s, t.S}, {cp.p, t.P}, {cp.o, t.O}} {
			if !bind.e.isVar {
				continue
			}
			if cur := scratch[bind.e.slot]; cur == unboundID {
				scratch[bind.e.slot] = bind.id
			} else if cur != bind.id {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, slices.Clone(scratch))
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
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

// Random small graphs × patterns whose every position is a constant
// (now and then one the graph lacks), a fresh variable, a variable the
// input row binds, or a variable another position repeats (bound or not)
// × max ∈ {0, 1, k}: scanPattern and the reference agree row for row.
func TestScanPatternMatchesReference(t *testing.T) {
	vocab := scanVocab()
	q := MustParse(`SELECT * WHERE { ?a ?b ?c . ?c ?a ?b }`)
	vars := []Var{"a", "b", "c"}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var ts []rdf.Triple
		for n := 1 + r.Intn(60); n > 0; n-- {
			ts = append(ts, rdf.Triple{S: vocab[r.Intn(len(vocab))], P: vocab[r.Intn(len(vocab))], O: vocab[r.Intn(len(vocab))]})
		}
		g := rdf.NewGraph(ts)
		env := newEvalEnv(q, g)
		nterms := g.Encoded().Dict().Len()
		for trial := 0; trial < 40; trial++ {
			// Two variables for three positions half the time: repeats.
			nv := 2 + r.Intn(2)
			elem := func() TPElem {
				switch r.Intn(4) {
				case 0:
					if r.Intn(8) == 0 {
						return TPElem{Term: rdf.NewIRI("http://ex/absent")}
					}
					return TPElem{Term: vocab[r.Intn(len(vocab))]}
				}
				return VarElem(vars[r.Intn(nv)])
			}
			tp := TriplePattern{S: elem(), P: elem(), O: elem()}
			row := env.emptyRow()
			for _, v := range vars {
				if r.Intn(2) == 0 {
					row[env.slots[v]] = rdf.TermID(r.Intn(nterms))
				}
			}
			cp := env.compilePattern(tp)
			ps := env.preparePatternScan(&cp, row)
			if ps.miss {
				continue
			}
			cands := ps.candidates
			max := []int{0, 1, 2 + r.Intn(4)}[r.Intn(3)]
			before := slices.Clone(row)
			got := env.scanPattern(&ps, row, max, nil)
			want := refScanPattern(&ps, row, cands, max)
			if !slices.Equal(row, before) {
				t.Logf("seed %d: pattern %v wrote to its input row", seed, tp)
				return false
			}
			if len(got) != len(want) {
				t.Logf("seed %d: pattern %v under row %v, max %d, %d candidates: %d rows, reference %d",
					seed, tp, row, max, len(cands), len(got), len(want))
				return false
			}
			for i := range got {
				if !slices.Equal(got[i], want[i]) {
					t.Logf("seed %d: pattern %v under row %v, max %d: row %d is %v, reference %v",
						seed, tp, row, max, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// pollCountingContext counts how often the evaluator looks at Done.
type pollCountingContext struct {
	context.Context
	polls int
}

func (c *pollCountingContext) Done() <-chan struct{} {
	c.polls++
	return c.Context.Done()
}

// A scan polls the context per run of candidates, not per candidate, and
// the runs still add up to one poll per cancelCheckEvery candidates:
// a long scan under a context that is already cancelled stops within
// its first run, and many short scans — the eight-candidate per-row
// scans of a match pass — reach the poll between them.
func TestScanPatternPollsPerBlock(t *testing.T) {
	var ts []rdf.Triple
	for i := 0; i < 625; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		for p := 0; p < 8; p++ {
			ts = append(ts, rdf.Triple{S: s, P: rdf.NewIRI(fmt.Sprintf("http://ex/p%d", p)), O: rdf.NewLiteral(fmt.Sprint(i))})
		}
	}
	g := rdf.NewGraph(ts)
	q := MustParse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	bgp, _ := q.BGPOf()

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		env := newEvalEnv(q, g)
		env.ctx = ctx
		cp := env.compilePattern(bgp.Patterns[0])
		// Every candidate of ?s ?p ?o yields a row: rows out = candidates visited.
		out := env.matchPattern(&cp, env.emptyRow(), nil)
		if len(out) > cancelCheckEvery {
			t.Fatalf("a cancelled scan of %d candidates visited %d, want at most %d", len(ts), len(out), cancelCheckEvery)
		}
		if env.err != context.Canceled {
			t.Fatalf("latched error %v, want context.Canceled", env.err)
		}
		if env.interrupted() == false || len(env.matchPattern(&cp, env.emptyRow(), nil)) != 0 {
			t.Fatal("the latch does not hold: a later scan still produced rows")
		}
	})

	t.Run("short scans", func(t *testing.T) {
		live, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := &pollCountingContext{Context: live}
		env := newEvalEnv(q, g)
		env.ctx = ctx
		cp := env.compilePattern(bgp.Patterns[0])
		sSlot := env.slots["s"]
		var out []slotRow
		for i := 0; i < 400; i++ {
			row := env.emptyRow()
			row[sSlot], _ = g.Encoded().Dict().Lookup(rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)))
			out = env.matchPattern(&cp, row, out[:0])
			if len(out) != 8 {
				t.Fatalf("subject %d: %d rows, want 8", i, len(out))
			}
		}
		if want := 400 * 8 / cancelCheckEvery; ctx.polls < 2 || ctx.polls != want {
			t.Fatalf("400 scans of 8 candidates polled the context %d times, want %d", ctx.polls, want)
		}
		if env.err != nil {
			t.Fatalf("a live context latched %v", env.err)
		}
	})
}
