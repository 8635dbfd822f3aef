package sparql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// The hash-join kernel (hashJoin) against the nested loops it falls
// back to, which stay in the tree as its reference: every shape the
// kernel has — either build side, inner or outer — must give the nested
// loop's rows in the nested loop's order, and nothing at all once
// interrupted.

// joinShapes are the two build sides over joinSides' 8,192-row branches:
// equal sides hash the right one, a shorter left side is hashed itself.
var joinShapes = []struct {
	name string
	left int // rows of the left side kept
}{
	{"build-right", 8192},
	{"build-left", 3000},
}

// freshJoinEnv returns an environment over base's slot table with its
// own arena and error latch, so one pair of sides serves many joins.
func freshJoinEnv(base *evalEnv, ctx context.Context) *evalEnv {
	return &evalEnv{slots: base.slots, vars: base.vars, ctx: ctx}
}

func runJoin(env *evalEnv, left, right []slotRow, outer bool) []slotRow {
	if outer {
		return env.optionalRows(left, right)
	}
	return env.joinRows(left, right)
}

// tripContext reports itself cancelled from the (after+1)-th look at
// Done on, counting the looks: cancellation that lands wherever in the
// join the count puts it.
type tripContext struct {
	context.Context
	after int64
	polls atomic.Int64
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *tripContext) Done() <-chan struct{} {
	if c.polls.Add(1) > c.after {
		return closedChan
	}
	return nil
}

func (c *tripContext) Err() error {
	if c.polls.Load() > c.after {
		return context.Canceled
	}
	return nil
}

// Interrupted, every shape of the kernel returns nil rows with the
// context's error latched — wherever the cancellation lands: the first
// poll (the counting pass) or the ninth (a serial probe of 8,192 rows
// has then counted and is emitting; the serial build-right joins used
// to hand back the rows emitted so far). Left alone, it polls at least
// once per 1,024 probe rows.
func TestJoinInterruptedReturnsNil(t *testing.T) {
	base, names, ages := joinSides(t, joinTestGraph(8192))
	for _, shape := range joinShapes {
		left, right := names[:shape.left], ages
		for _, outer := range []bool{false, true} {
			name := fmt.Sprintf("%s outer=%v", shape.name, outer)
			for _, after := range []int64{0, 8} {
				ctx := &tripContext{Context: context.Background(), after: after}
				env := freshJoinEnv(base, ctx)
				if out := runJoin(env, left, right, outer); out != nil {
					t.Fatalf("%s: cancelled at poll %d, the join still returned %d rows", name, after+1, len(out))
				}
				if env.err != context.Canceled {
					t.Fatalf("%s: cancelled at poll %d, latched error %v, want context.Canceled", name, after+1, env.err)
				}
			}
			live := &tripContext{Context: context.Background(), after: 1 << 40}
			env := freshJoinEnv(base, live)
			out := runJoin(env, left, right, outer)
			if env.err != nil || len(out) != len(left) {
				t.Fatalf("%s: live context: %d rows, error %v, want %d rows", name, len(out), env.err, len(left))
			}
			// Either probe side is all 8,192 rows of its branch.
			if polls, want := live.polls.Load(), int64(len(right)/cancelCheckEvery); polls < want {
				t.Fatalf("%s: %d probe rows polled the context %d times, want at least %d", name, len(right), polls, want)
			}
		}
	}
}

// The kernel's int32 table links and output cursors fail typed instead
// of wrapping. With maxJoinRows lowered: a build side at the limit
// joins as before and one row past it latches a *rdf.CapacityError and
// returns nil, on either build side; so does a build side within the
// limit whose join would emit more rows than it — join and OPTIONAL
// alike.
func TestJoinCapacityError(t *testing.T) {
	base, names, ages := joinSides(t, joinTestGraph(64))
	defer func(old int) { maxJoinRows = old }(maxJoinRows)
	full := func(env *evalEnv) bool {
		var ce *rdf.CapacityError
		return errors.As(env.err, &ce) && ce.What == "join rows" && ce.Limit == int64(maxJoinRows)
	}
	dup := append(slices.Clone(names[:32]), names[:32]...) // subjects 0-31, twice each
	for _, outer := range []bool{false, true} {
		for _, c := range []struct {
			name        string
			left, right []slotRow
		}{
			{"build-right", names[:40], ages[:40]}, // equal sides hash the right one
			{"build-left", names[:40], ages},
		} {
			name := fmt.Sprintf("%s outer=%v", c.name, outer)
			maxJoinRows = 40
			env := freshJoinEnv(base, nil)
			if out := runJoin(env, c.left, c.right, outer); env.err != nil || len(out) != 40 {
				t.Fatalf("%s: a 40-row build side at a limit of 40: %d rows, error %v", name, len(out), env.err)
			}
			maxJoinRows = 39
			env = freshJoinEnv(base, nil)
			if out := runJoin(env, c.left, c.right, outer); out != nil || !full(env) {
				t.Fatalf("%s: a 40-row build side at a limit of 39: %d rows, error %v, want a join rows CapacityError", name, len(out), env.err)
			}
		}
		// Ten build rows, each matched twice: 20 rows out (64 when the
		// 44 unmatched probe rows of an OPTIONAL by dup pass through).
		maxJoinRows = 15
		for _, c := range []struct {
			name        string
			left, right []slotRow
		}{
			{"build-left", ages[:10], dup},
			{"build-right", dup, ages[:10]},
		} {
			env := freshJoinEnv(base, nil)
			if out := runJoin(env, c.left, c.right, outer); out != nil || !full(env) {
				t.Fatalf("%s outer=%v: output past a limit of 15: %d rows, error %v, want a join rows CapacityError", c.name, outer, len(out), env.err)
			}
		}
	}
}

// randomJoinSide draws n rows over w slots. Slot 0 is the would-be key:
// bound in every row to one of keys values (so keys repeat, and a value
// fans out on both sides), except that with loose set a few rows leave
// it unbound, which takes the hash key away and sends the join to the
// nested loop. modes says how each other slot is filled: 0 never (the
// other side's variable), 1 in some rows from a domain of three (bound
// on both sides, off the key: rows that agree on the key still disagree
// here, and compatibleRows has real hash hits to reject), 2 always.
func randomJoinSide(r *rand.Rand, n, w, keys int, modes []int, loose bool) []slotRow {
	rows := make([]slotRow, n)
	for i := range rows {
		row := make(slotRow, w)
		row[0] = rdf.TermID(r.Intn(keys))
		if loose && r.Intn(8) == 0 {
			row[0] = unboundID
		}
		for s := 1; s < w; s++ {
			row[s] = unboundID
			if modes[s] == 2 || modes[s] == 1 && r.Intn(2) == 0 {
				row[s] = rdf.TermID(r.Intn(3))
			}
		}
		rows[i] = row
	}
	return rows
}

func sameRows(a, b []slotRow) bool {
	return slices.EqualFunc(a, b, func(x, y slotRow) bool { return slices.Equal(x, y) })
}

func cloneRows(rows []slotRow) []slotRow {
	out := make([]slotRow, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// Random sides over 3–5 slots — sizes either side of the build-side
// flip, short and long probe sides, duplicate keys, fan-out on both
// sides, slots bound off the key, now and then rows unbound on it — ×
// inner/outer: joinRows and optionalRows give what nestedJoinRows and
// nestedOptionalRows give, row for row and in order, and leave their
// inputs as they found them.
func TestHashJoinMatchesNestedLoopProperty(t *testing.T) {
	sizes := []int{1, 2, 7, 40, 41}
	bigSizes := []int{700, 2047, 2048, 2049, 3548}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 3 + r.Intn(3)
		nl, nr := sizes[r.Intn(len(sizes))], sizes[r.Intn(len(sizes))]
		switch r.Intn(10) {
		case 0: // a long probe side against a short table, either way round
			nl, nr = sizes[r.Intn(len(sizes))]+30, bigSizes[r.Intn(len(bigSizes))]
			if r.Intn(2) == 0 {
				nl, nr = nr, nl
			}
		case 1: // both sides long, around the flip
			nl = bigSizes[r.Intn(len(bigSizes))]
			nr = nl + r.Intn(3) - 1
		}
		lmodes, rmodes := make([]int, w), make([]int, w)
		for s := 1; s < w; s++ {
			lmodes[s], rmodes[s] = r.Intn(3), r.Intn(3)
		}
		keys := 1 + max(nl, nr)/2
		loose := r.Intn(8) == 0 && nl*nr < 1<<16 // the nested loop is the only path then
		left := randomJoinSide(r, nl, w, keys, lmodes, loose && r.Intn(2) == 0)
		right := randomJoinSide(r, nr, w, keys, rmodes, loose)
		leftBefore, rightBefore := cloneRows(left), cloneRows(right)
		ref := &evalEnv{vars: make([]Var, w)}
		for _, outer := range []bool{false, true} {
			want := ref.nestedJoinRows(left, right)
			if outer {
				want = ref.nestedOptionalRows(left, right)
			}
			env := freshJoinEnv(ref, nil)
			got := runJoin(env, left, right, outer)
			if env.err != nil {
				t.Logf("seed %d: %d × %d rows, outer %v: error %v", seed, nl, nr, outer, env.err)
				return false
			}
			if !sameRows(left, leftBefore) || !sameRows(right, rightBefore) {
				t.Logf("seed %d: %d × %d rows, outer %v: the join wrote to its inputs", seed, nl, nr, outer)
				return false
			}
			if len(got) != len(want) {
				t.Logf("seed %d: %d × %d rows over %d slots, outer %v: %d rows, nested loop %d",
					seed, nl, nr, w, outer, len(got), len(want))
				return false
			}
			for i := range got {
				if !slices.Equal(got[i], want[i]) {
					t.Logf("seed %d: %d × %d rows over %d slots, outer %v: row %d is %v, nested loop %v",
						seed, nl, nr, w, outer, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// DISTINCT's key set is the join kernel's table (distinctRows); the map
// of row keys it replaced is the reference. Random batches of up to 60
// rows over the ids 0, 1, 128 and 129 (ids 128 apart share a bucket of
// a table this small) and the unbound one, under random column maps — slots repeated,
// left out, or -1 for a variable the query never binds — must keep the
// same rows, each key's first, in input order. Mutants killed (each
// applied to a copy of eval.go): the chain walk stopping at its first
// row (a key whose bucket another key heads is kept twice); sameKey
// ignoring the last key slot; the walk continuing past row i (a row
// dropped for a later copy of itself).
func TestDistinctRowsMatchesMapProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const width = 3
		rows := make([]slotRow, r.Intn(60))
		for i := range rows {
			rows[i] = make(slotRow, width)
			for s := range rows[i] {
				rows[i][s] = rdf.TermID(r.Intn(2) + 128*r.Intn(2))
				if r.Intn(5) == 0 {
					rows[i][s] = unboundID
				}
			}
		}
		cols := make([]int, r.Intn(4))
		for i := range cols {
			cols[i] = r.Intn(width+1) - 1
		}
		seen := map[string]bool{}
		var want []slotRow
		for _, row := range rows {
			k := ""
			for _, s := range cols {
				if s >= 0 {
					k += fmt.Sprint(row[s], ",")
				}
			}
			if !seen[k] {
				seen[k] = true
				want = append(want, row)
			}
		}
		env := &evalEnv{vars: make([]Var, width)}
		got := env.distinctRows(rows, cols)
		if len(got) != len(want) {
			t.Logf("seed %d: %d rows, cols %v: kept %d, reference %d", seed, len(rows), cols, len(got), len(want))
			return false
		}
		for i := range got {
			if &got[i][0] != &want[i][0] {
				t.Logf("seed %d: cols %v: kept row %d is %v, reference %v", seed, cols, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
