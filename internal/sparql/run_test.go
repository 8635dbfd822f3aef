package sparql

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// parTestGraph builds n subjects with a unique name, an 8-way tied
// age, and (for every third subject) a knows edge — big seed scans,
// both hash-join build sides, and sparse predicates to exercise
// OPTIONAL pass-through.
func parTestGraph(n int) *rdf.Graph {
	ts := make([]rdf.Triple, 0, 3*n)
	name := rdf.NewIRI("http://ex/name")
	age := rdf.NewIRI("http://ex/age")
	knows := rdf.NewIRI("http://ex/knows")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		ts = append(ts,
			rdf.Triple{S: s, P: name, O: rdf.NewLiteral(fmt.Sprintf("n%05d", i))},
			rdf.Triple{S: s, P: age, O: rdf.NewTypedLiteral(fmt.Sprint(20+i%8), rdf.XSDInteger)},
		)
		if i%3 == 0 {
			ts = append(ts, rdf.Triple{S: s, P: knows, O: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", (i+1)%n))})
		}
	}
	return rdf.NewGraph(ts)
}

// TestParallelRunDeterminism pins that WithParallelism means nothing to
// a run on one graph: for every operator shape (seed scans, build-right
// and build-left hash joins and OPTIONALs, UNION, top-K, LIMIT
// pushdown), a Run at parallelism 1, 4, and 16 returns the same rows in
// the same order.
func TestParallelRunDeterminism(t *testing.T) {
	g := parTestGraph(8192)
	queries := []string{
		// Seed scan + serial extension.
		`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a }`,
		// Group join, equal sides: build-right probe.
		`SELECT * WHERE { { ?s <http://ex/name> ?n } { ?s <http://ex/age> ?a } }`,
		// Group join, small left: build-left cursor probe.
		`SELECT * WHERE { { ?s <http://ex/knows> ?k } { ?s <http://ex/age> ?a } }`,
		// OPTIONAL, big left: build-right probe with pass-through rows.
		`SELECT * WHERE { { ?s <http://ex/name> ?n } OPTIONAL { ?s <http://ex/knows> ?k } }`,
		// OPTIONAL, big right: build-left scatter with pass-through.
		`SELECT * WHERE { { ?s <http://ex/knows> ?k } OPTIONAL { ?s <http://ex/age> ?a } }`,
		// UNION (shared batches) + FILTER compaction above it.
		`SELECT ?s ?v WHERE { { { ?s <http://ex/name> ?v } UNION { ?s <http://ex/age> ?v } } FILTER(?v != "n00003") }`,
		// ORDER BY + LIMIT: bounded top-K over tied keys.
		`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a DESC(?s) LIMIT 17 OFFSET 5`,
		// LIMIT pushdown without ORDER BY: the scan stops early.
		`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } LIMIT 3000 OFFSET 100`,
		`ASK { ?s <http://ex/knows> ?k }`,
	}
	for qi, text := range queries {
		prep, err := Prepare(text)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		var base *Results
		for _, par := range []int{1, 4, 16} {
			res, err := prep.Run(context.Background(), g, WithParallelism(par))
			if err != nil {
				t.Fatalf("query %d par %d: %v", qi, par, err)
			}
			if base == nil {
				base = res
				continue
			}
			if res.IsAsk != base.IsAsk || res.Ask != base.Ask {
				t.Fatalf("query %d par %d: ASK answer diverged", qi, par)
			}
			a, b := base.OrderedCanonical(), res.OrderedCanonical()
			if len(a) != len(b) {
				t.Fatalf("query %d par %d: %d rows, want %d", qi, par, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("query %d par %d: row %d = %q, want %q", qi, par, i, b[i], a[i])
				}
			}
		}
	}
}

// TestParallelRunReportsStats pins WithParallelism's one meaning, the
// sharded fan-out width: a run on one graph reports parallelism 1
// whatever it asked for, and a sharded run reports the width it got.
func TestParallelRunReportsStats(t *testing.T) {
	g := parTestGraph(512)
	prep := MustPrepare(t, `SELECT * WHERE { { ?s <http://ex/name> ?n } { ?s <http://ex/age> ?a } }`)
	var rs RunStats
	if _, err := prep.Run(context.Background(), g, WithParallelism(4), WithRunStats(&rs)); err != nil {
		t.Fatal(err)
	}
	if rs.Parallelism != 1 {
		t.Fatalf("single-graph run stats = %+v, want parallelism 1", rs)
	}
	ss := oneShardSet(t, g.Triples())
	for _, par := range []int{1, 4} {
		if _, err := prep.RunSharded(context.Background(), ss, WithParallelism(par), WithRunStats(&rs)); err != nil {
			t.Fatal(err)
		}
		if rs.Parallelism != par {
			t.Fatalf("sharded run at width %d: stats = %+v", par, rs)
		}
	}
}

// TestLimitPushdownShortCircuit checks that LIMIT without ORDER BY
// stops the seed scan early: a 32,768-candidate scan under LIMIT 2000
// emits 2000 rows, and they are exactly the leading rows of the
// unlimited answer.
func TestLimitPushdownShortCircuit(t *testing.T) {
	g := parTestGraph(1 << 15)
	limited := MustPrepare(t, `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } LIMIT 2000`)
	tr := obs.New("query")
	res, err := limited.Run(context.Background(), g, WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if res.Len() != 2000 {
		t.Fatalf("limited run returned %d rows, want 2000", res.Len())
	}
	seed := tr.Root().Find("seed_scan")
	if rows, _ := seed.Int("rows"); rows != 2000 {
		t.Fatalf("the limited seed scan emitted %d rows, want 2000 (short-circuit)", rows)
	}
	full, err := MustPrepare(t, `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	a, b := full.OrderedCanonical(), res.OrderedCanonical()
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("short-circuited row %d diverged from the unlimited answer", i)
		}
	}
}

// TestParallelRunCancelMidMorsel cancels a high-fanout hash join
// mid-probe: Run must return the context error promptly, and the
// Prepared stays reusable.
func TestParallelRunCancelMidMorsel(t *testing.T) {
	// 4096 subjects x 16 tags: the self-join produces 4096*256 ≈ 1M
	// merged rows, far more work than the 1ms budget.
	n, fan := 4096, 16
	ts := make([]rdf.Triple, 0, n*fan)
	tag := rdf.NewIRI("http://ex/tag")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		for j := 0; j < fan; j++ {
			ts = append(ts, rdf.Triple{S: s, P: tag, O: rdf.NewLiteral(fmt.Sprintf("t%d", j))})
		}
	}
	g := rdf.NewGraph(ts)
	g.Encoded()
	g.Stats()
	prep := MustPrepare(t, `SELECT * WHERE { { ?s <http://ex/tag> ?x } { ?s <http://ex/tag> ?y } }`)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := prep.Run(ctx, g)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = (%v, %v), want deadline exceeded", res, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The Prepared stays reusable. (RunSolutions keeps the 1M rows in id
	// space — no decode.)
	sol, err := prep.RunSolutions(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if want := n * fan * fan; sol.Len() != want {
		t.Fatalf("post-cancel run returned %d rows, want %d", sol.Len(), want)
	}
}

// TestCancelDuringTopKReturnsError pins the error path of the bounded
// heap: when cancellation is first observed inside topKRows' candidate
// scan (the amortized poll crosses its 1024-tick boundary there), the
// evaluation must surface ctx.Err() instead of returning a silently
// partial top-K. The graph is sized so the seed scan spends 900 ticks
// (no poll fires) and the heap scan crosses tick 1024.
func TestCancelDuringTopKReturnsError(t *testing.T) {
	g := parTestGraph(900)
	q := MustParse(`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a LIMIT 10`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := newEvalEnv(q, g)
	env.ctx = ctx // bypass Run's up-front ctx.Err() check
	res, err := evaluate(env, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("evaluate = (%v, %v), want context.Canceled", res, err)
	}
}

// MustPrepare is a test helper.
func MustPrepare(t testing.TB, text string) *Prepared {
	t.Helper()
	p, err := Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSortRowsTopK pins the bounded-heap ORDER BY+LIMIT path against
// the stable full sort it replaces: ties resolve by original row
// order, DESC keys invert, OFFSET folds into K, and out-of-range
// offsets behave exactly as before.
func TestSortRowsTopK(t *testing.T) {
	g := parTestGraph(256) // ages are 8-way ties: stability is load-bearing
	cases := []struct {
		name    string
		limited string
		full    string
		lo, hi  int // the slice of the full ordering the limit keeps
	}{
		{"asc-ties", `SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a LIMIT 10`,
			`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a`, 0, 10},
		{"desc", `SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY DESC(?a) LIMIT 7 OFFSET 4`,
			`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY DESC(?a)`, 4, 11},
		{"multi-key", `SELECT ?s ?a ?n WHERE { ?s <http://ex/age> ?a . ?s <http://ex/name> ?n } ORDER BY ?a DESC(?n) LIMIT 9`,
			`SELECT ?s ?a ?n WHERE { ?s <http://ex/age> ?a . ?s <http://ex/name> ?n } ORDER BY ?a DESC(?n)`, 0, 9},
		{"k-beyond-rows", `SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a LIMIT 5000`,
			`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a`, 0, 256},
		{"offset-beyond-rows", `SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a LIMIT 5 OFFSET 5000`,
			`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a`, 256, 256},
		{"limit-zero", `SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a LIMIT 0`,
			`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a`, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lim, err := Evaluate(MustParse(c.limited), g)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Evaluate(MustParse(c.full), g)
			if err != nil {
				t.Fatal(err)
			}
			want := full.OrderedCanonical()[c.lo:c.hi]
			got := lim.OrderedCanonical()
			if len(got) != len(want) {
				t.Fatalf("top-K kept %d rows, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d = %q, want %q (full-sort truncation)", i, got[i], want[i])
				}
			}
		})
	}
}

// TestUnionSharedBatchAllocs pins the UNION satellite: combining the
// two branches must share their slot-row batches — one output slice,
// no per-row arena copies — and the combined sequence must reference
// the right branch's rows, not clones of them.
func TestUnionSharedBatchAllocs(t *testing.T) {
	g := joinTestGraph(2048)
	env, names, ages := joinSides(t, g)
	out := env.unionRows(names, ages)
	if len(out) != len(names)+len(ages) {
		t.Fatalf("union length %d, want %d", len(out), len(names)+len(ages))
	}
	if &out[len(names)][0] != &ages[0][0] {
		t.Fatal("right-branch rows were copied, want shared storage")
	}
	n := testing.AllocsPerRun(10, func() {
		out = env.unionRows(names, ages)
	})
	// One exact-size output slice; copying 2048 rows through the arena
	// would cost ~8 chunk allocations on top.
	if n > 2 {
		t.Fatalf("unionRows allocates %.1f/run, want <= 2 (shared batches)", n)
	}
}
