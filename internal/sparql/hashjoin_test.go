package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rdf"
)

// The hash-join kernel (hashJoin, hashTable.probe, interleave) against
// the nested loops it falls back to, which stay in the tree as its
// reference: every shape the kernel has — either build side, inner or
// outer, one morsel in place or several on the pool — must give the
// nested loop's rows in the nested loop's order, and nothing at all once
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
// own arena, error latch and (at width > 1) pool, so one pair of sides
// serves many joins. Close it.
func freshJoinEnv(base *evalEnv, ctx context.Context, width int) *evalEnv {
	env := &evalEnv{slots: base.slots, vars: base.vars, ctx: ctx}
	if width > 1 {
		env.par = &parRun{n: width}
	}
	return env
}

func runJoin(env *evalEnv, left, right []slotRow, outer bool) []slotRow {
	if outer {
		return env.optionalRows(left, right)
	}
	return env.joinRows(left, right)
}

// tripContext reports itself cancelled from the (after+1)-th look at
// Done on, counting the looks: cancellation that lands wherever in the
// join the count puts it. Workers poll it concurrently.
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
// once per 1,024 probe rows. No pool goroutine survives.
func TestJoinInterruptedReturnsNil(t *testing.T) {
	base, names, ages := joinSides(t, joinTestGraph(8192))
	before := runtime.NumGoroutine()
	for _, shape := range joinShapes {
		left, right := names[:shape.left], ages
		for _, outer := range []bool{false, true} {
			for _, width := range []int{1, 4} {
				name := fmt.Sprintf("%s outer=%v width=%d", shape.name, outer, width)
				for _, after := range []int64{0, 8} {
					ctx := &tripContext{Context: context.Background(), after: after}
					env := freshJoinEnv(base, ctx, width)
					out := runJoin(env, left, right, outer)
					env.close()
					if out != nil {
						t.Fatalf("%s: cancelled at poll %d, the join still returned %d rows", name, after+1, len(out))
					}
					if env.err != context.Canceled {
						t.Fatalf("%s: cancelled at poll %d, latched error %v, want context.Canceled", name, after+1, env.err)
					}
				}
				live := &tripContext{Context: context.Background(), after: 1 << 40}
				env := freshJoinEnv(base, live, width)
				out := runJoin(env, left, right, outer)
				env.close()
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
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// before within three seconds: pool workers, watchdogs and speculative
// copies exit on their own once their run is over.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d three seconds after the runs", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
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
// flip and of parMinWork, duplicate keys, fan-out on both sides, slots
// bound off the key, now and then rows unbound on it — × inner/outer ×
// in place / on a pool of 4: joinRows and optionalRows give what
// nestedJoinRows and nestedOptionalRows give, row for row and in order,
// and leave their inputs as they found them.
func TestHashJoinMatchesNestedLoopProperty(t *testing.T) {
	sizes := []int{1, 2, 7, 40, 41}
	bigSizes := []int{700, parMinWork - 1, parMinWork, parMinWork + 1, parMinWork + 1500}
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
			for _, width := range []int{1, 4} {
				env := freshJoinEnv(ref, nil, width)
				got := runJoin(env, left, right, outer)
				env.close()
				if env.err != nil {
					t.Logf("seed %d: %d × %d rows, outer %v, width %d: error %v", seed, nl, nr, outer, width, env.err)
					return false
				}
				if !sameRows(left, leftBefore) || !sameRows(right, rightBefore) {
					t.Logf("seed %d: %d × %d rows, outer %v, width %d: the join wrote to its inputs", seed, nl, nr, outer, width)
					return false
				}
				if len(got) != len(want) {
					t.Logf("seed %d: %d × %d rows over %d slots, outer %v, width %d: %d rows, nested loop %d",
						seed, nl, nr, w, outer, width, len(got), len(want))
					return false
				}
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Logf("seed %d: %d × %d rows over %d slots, outer %v, width %d: row %d is %v, nested loop %v",
							seed, nl, nr, w, outer, width, i, got[i], want[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
