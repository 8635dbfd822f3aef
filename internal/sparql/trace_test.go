package sparql

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestTracedRunDeterminism pins the observe-don't-steer contract: for
// every operator shape, a traced run at parallelism 1 and 4 must return
// byte-identical rows and order to the untraced run.
func TestTracedRunDeterminism(t *testing.T) {
	g := parTestGraph(8192)
	queries := []string{
		`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a }`,
		`SELECT * WHERE { { ?s <http://ex/name> ?n } { ?s <http://ex/age> ?a } }`,
		`SELECT * WHERE { { ?s <http://ex/name> ?n } OPTIONAL { ?s <http://ex/knows> ?k } }`,
		`SELECT ?s ?v WHERE { { { ?s <http://ex/name> ?v } UNION { ?s <http://ex/age> ?v } } FILTER(?v != "n00003") }`,
		`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a DESC(?s) LIMIT 17 OFFSET 5`,
		`ASK { ?s <http://ex/knows> ?k }`,
	}
	for qi, text := range queries {
		prep := MustPrepare(t, text)
		base, err := prep.Run(context.Background(), g, WithParallelism(1))
		if err != nil {
			t.Fatalf("query %d untraced: %v", qi, err)
		}
		want := base.OrderedCanonical()
		for _, par := range []int{1, 4} {
			tr := obs.New("query")
			res, err := prep.Run(context.Background(), g, WithParallelism(par), WithTrace(tr))
			tr.Finish()
			if err != nil {
				t.Fatalf("query %d par %d traced: %v", qi, par, err)
			}
			if res.IsAsk != base.IsAsk || res.Ask != base.Ask {
				t.Fatalf("query %d par %d: ASK answer diverged under tracing", qi, par)
			}
			got := res.OrderedCanonical()
			if len(got) != len(want) {
				t.Fatalf("query %d par %d: traced run returned %d rows, want %d", qi, par, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("query %d par %d: traced row %d = %q, want %q", qi, par, i, got[i], want[i])
				}
			}
			if tr.Root().Find("bgp") == nil {
				t.Fatalf("query %d par %d: trace recorded no bgp span", qi, par)
			}
		}
	}
}

// TestTraceSpanCardinalities pins the span attributes against actual
// row counts on a fixed workload: the seed scan's rows, the match
// pass's output, the join's inputs/output, and the modifier pipeline's
// final count must all equal what the query really produced.
func TestTraceSpanCardinalities(t *testing.T) {
	n := 512
	g := parTestGraph(n) // n names, n ages, n/3+1 knows edges
	knows := (n + 2) / 3

	// Two-pattern BGP: seed scan picks knows (sparse), match extends by
	// age. Every knows subject has an age, so the final count == knows.
	prep := MustPrepare(t, `SELECT * WHERE { ?s <http://ex/knows> ?k . ?s <http://ex/age> ?a }`)
	tr := obs.New("query")
	res, err := prep.Run(context.Background(), g, WithParallelism(1), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if res.Len() != knows {
		t.Fatalf("query returned %d rows, want %d", res.Len(), knows)
	}
	root := tr.Root()
	bgp := root.Find("bgp")
	if bgp == nil {
		t.Fatal("no bgp span")
	}
	if v, _ := bgp.Int("patterns"); v != 2 {
		t.Fatalf("bgp patterns = %d, want 2", v)
	}
	if order, ok := bgp.Str("join_order"); !ok || order != "0,1" {
		t.Fatalf("join_order = %q, want 0,1 (knows is sparser)", order)
	}
	seed := root.Find("seed_scan")
	if seed == nil {
		t.Fatal("no seed_scan span")
	}
	if v, _ := seed.Int("rows"); v != int64(knows) {
		t.Fatalf("seed_scan rows = %d, want %d", v, knows)
	}
	if v, _ := seed.Int("est"); v != int64(knows) {
		t.Fatalf("seed_scan est = %d, want %d (predicate count)", v, knows)
	}
	match := root.Find("match")
	if match == nil {
		t.Fatal("no match span")
	}
	if in, _ := match.Int("rows_in"); in != int64(knows) {
		t.Fatalf("match rows_in = %d, want %d", in, knows)
	}
	if v, _ := match.Int("rows"); v != int64(knows) {
		t.Fatalf("match rows = %d, want %d", v, knows)
	}
	mod := root.Find("modifiers")
	if mod == nil {
		t.Fatal("no modifiers span")
	}
	if v, _ := mod.Int("rows"); v != int64(res.Len()) {
		t.Fatalf("modifiers rows = %d, want %d", v, res.Len())
	}

	// Group join: two single-pattern BGPs folded by joinRows.
	prep = MustPrepare(t, `SELECT * WHERE { { ?s <http://ex/knows> ?k } { ?s <http://ex/age> ?a } }`)
	tr = obs.New("query")
	res, err = prep.Run(context.Background(), g, WithParallelism(1), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	join := tr.Root().Find("join")
	if join == nil {
		t.Fatal("no join span")
	}
	l, _ := join.Int("left")
	r, _ := join.Int("right")
	out, _ := join.Int("rows")
	if l != int64(knows) || r != int64(n) || out != int64(res.Len()) {
		t.Fatalf("join left/right/rows = %d/%d/%d, want %d/%d/%d",
			l, r, out, knows, n, res.Len())
	}
	if m, ok := join.Str("method"); !ok || m != "hash_build_left" {
		t.Fatalf("join method = %q, want hash_build_left (left side smaller)", m)
	}
}

// TestTraceParallelRootAttrs checks what a traced run stamps on its
// root about parallelism: the resolved fan-out width — 1 on one graph
// whatever the run asked for, the width on a sharded run — and nothing
// per worker or per morsel, on the root or any span below it.
func TestTraceParallelRootAttrs(t *testing.T) {
	g := parTestGraph(512)
	prep := MustPrepare(t, `SELECT * WHERE { { ?s <http://ex/name> ?n } { ?s <http://ex/age> ?a } }`)
	ss := oneShardSet(t, g.Triples())
	for _, c := range []struct {
		name string
		run  func(*obs.Trace) error
		want int64
	}{
		{"single graph", func(tr *obs.Trace) error {
			_, err := prep.Run(context.Background(), g, WithParallelism(4), WithTrace(tr))
			return err
		}, 1},
		{"sharded", func(tr *obs.Trace) error {
			_, err := prep.RunSharded(context.Background(), ss, WithParallelism(4), WithTrace(tr))
			return err
		}, 4},
	} {
		tr := obs.New("query")
		if err := c.run(tr); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		root := tr.Root()
		if v, _ := root.Int("parallelism"); v != c.want {
			t.Fatalf("%s: root parallelism = %d, want %d", c.name, v, c.want)
		}
		root.Walk(func(sp *obs.Span, _ int) {
			for _, key := range []string{"morsels", "parallel_ops", "width", "worker_0_busy_us"} {
				if _, ok := sp.Int(key); ok {
					t.Fatalf("%s: span %s carries %s", c.name, sp.Name, key)
				}
			}
		})
	}
}

// TestTraceDisarmedSharesPath pins that runs without WithTrace keep
// env.trace nil (the one-nil-check contract) and that a traced serial
// run allocates its spans outside the evaluator's pinned paths — the
// existing alloc tests cover the disarmed numbers; here we just assert
// the flag stays off by default.
func TestTraceDisarmedSharesPath(t *testing.T) {
	g := parTestGraph(64)
	q := MustParse(`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`)
	env := newEvalEnv(q, g)
	if env.trace != nil {
		t.Fatal("fresh environment has tracing armed")
	}
	if _, err := evaluate(env, q); err != nil {
		t.Fatal(err)
	}
}
