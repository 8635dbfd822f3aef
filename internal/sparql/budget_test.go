package sparql

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
)

// budgetSweepQueries cover every charge site: seed scans (arena),
// build-right and build-left joins and OPTIONALs (join tables, cursor
// matrices, output batches), UNION, and the top-K modifier path.
var budgetSweepQueries = []string{
	`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a }`,
	`SELECT * WHERE { { ?s <http://ex/name> ?n } { ?s <http://ex/age> ?a } }`,
	`SELECT * WHERE { { ?s <http://ex/knows> ?k } { ?s <http://ex/age> ?a } }`,
	`SELECT * WHERE { { ?s <http://ex/name> ?n } OPTIONAL { ?s <http://ex/knows> ?k } }`,
	`SELECT * WHERE { { ?s <http://ex/knows> ?k } OPTIONAL { ?s <http://ex/age> ?a } }`,
	`SELECT ?s ?v WHERE { { ?s <http://ex/name> ?v } UNION { ?s <http://ex/age> ?v } }`,
	`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a DESC(?s) LIMIT 17`,
}

// TestBudgetOverloadDeterminism pins the budget contract: a run armed
// with WithMemoryBudget either returns output byte-identical to an
// unbudgeted run or fails with a typed *BudgetError — never partial
// rows, never an untyped error. The sweep crosses budgets small enough
// to abort mid-scan, mid-join budgets, and one big enough to never
// fire, so both outcomes are exercised (and asserted to occur).
func TestBudgetOverloadDeterminism(t *testing.T) {
	g := parTestGraph(8192)
	ctx := context.Background()
	aborted, completed := 0, 0
	for qi, text := range budgetSweepQueries {
		prep := MustPrepare(t, text)
		want, err := prep.Run(ctx, g)
		if err != nil {
			t.Fatalf("query %d clean run: %v", qi, err)
		}
		for _, budget := range []int64{16 << 10, 256 << 10, 1 << 30} {
			got, err := prep.Run(ctx, g, WithMemoryBudget(budget))
			if err != nil {
				var be *BudgetError
				if !errors.As(err, &be) {
					t.Fatalf("query %d budget %d: error = %v, want *BudgetError", qi, budget, err)
				}
				aborted++
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("query %d budget %d: output diverged from the unbudgeted run", qi, budget)
			}
			completed++
		}
	}
	if aborted == 0 {
		t.Fatal("no query aborted: the small budgets never fired")
	}
	if completed == 0 {
		t.Fatal("no query completed: even the 1 GiB budget aborted")
	}
}

// TestBudgetErrorFields checks the typed error carries the abort's
// context: the configured limit, a used count that actually exceeds
// it, and the charge-site stage label.
func TestBudgetErrorFields(t *testing.T) {
	g := parTestGraph(8192)
	prep := MustPrepare(t, `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`)
	const limit = int64(4 << 10)
	_, err := prep.Run(context.Background(), g, WithParallelism(1), WithMemoryBudget(limit))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error = %v, want *BudgetError", err)
	}
	if be.Limit != limit {
		t.Fatalf("Limit = %d, want %d", be.Limit, limit)
	}
	if be.Used <= be.Limit {
		t.Fatalf("Used = %d, want > limit %d", be.Used, be.Limit)
	}
	switch be.Stage {
	case stageArena, stageJoin, stageGather:
	default:
		t.Fatalf("Stage = %q, want one of arena/join/gather", be.Stage)
	}
}

// TestBudgetFaultPointMem pins the chaos hook: an injected failure at
// fault.PointMem forces the next charge of a budgeted run over budget,
// so chaos suites exercise the abort path without crafting a genuinely
// huge query. The budget is effectively infinite — only the injection
// can abort.
func TestBudgetFaultPointMem(t *testing.T) {
	g := parTestGraph(8192)
	prep := MustPrepare(t, `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`)
	plan := fault.NewPlan(3).FailNext(fault.PointMem, 1)
	_, err := prep.Run(fault.With(context.Background(), plan), g,
		WithParallelism(4), WithMemoryBudget(1<<40))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error = %v, want *BudgetError from the injected mem fault", err)
	}

	// Without a budget the mem point is never consulted: the same plan
	// must not fire and the query must answer.
	plan = fault.NewPlan(3).FailNext(fault.PointMem, 1)
	if _, err := prep.Run(fault.With(context.Background(), plan), g, WithParallelism(4)); err != nil {
		t.Fatalf("unbudgeted run hit the mem fault point: %v", err)
	}
	if c := plan.Counters(); c.Failures != 0 {
		t.Fatalf("unbudgeted run consulted PointMem %d times, want 0", c.Failures)
	}
}

// TestBudgetTrackOnly checks the observability mode: a negative budget
// fills RunStats.BytesCharged without ever aborting, and an unarmed
// run reports zero.
func TestBudgetTrackOnly(t *testing.T) {
	g := parTestGraph(8192)
	prep := MustPrepare(t, `SELECT * WHERE { { ?s <http://ex/name> ?n } { ?s <http://ex/age> ?a } }`)
	want, err := prep.Run(context.Background(), g, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var rs RunStats
	got, err := prep.Run(context.Background(), g,
		WithParallelism(4), WithMemoryBudget(-1), WithRunStats(&rs))
	if err != nil {
		t.Fatalf("track-only run aborted: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("track-only run diverged from serial baseline")
	}
	if rs.BytesCharged <= 0 {
		t.Fatalf("BytesCharged = %d, want > 0 under tracking", rs.BytesCharged)
	}
	if _, err := prep.Run(context.Background(), g, WithParallelism(4), WithRunStats(&rs)); err != nil {
		t.Fatal(err)
	}
	if rs.BytesCharged != 0 {
		t.Fatalf("BytesCharged = %d without a budget, want 0", rs.BytesCharged)
	}
}

// TestEstimateCost sanity-checks the admission controller's ranking
// signal: a cartesian product (patterns sharing no variables) must
// score far above a connected join over the same data, and the
// estimate must be stable across calls (it is memoized per snapshot).
func TestEstimateCost(t *testing.T) {
	g := parTestGraph(4096)
	connected := MustPrepare(t, `SELECT * WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a }`)
	cartesian := MustPrepare(t, `SELECT * WHERE { ?s <http://ex/name> ?n . ?t <http://ex/age> ?a }`)
	cc := connected.EstimateCost(GraphSet(g))
	xc := cartesian.EstimateCost(GraphSet(g))
	if cc <= 0 || xc <= 0 {
		t.Fatalf("estimates = %d, %d, want positive", cc, xc)
	}
	if xc < 100*cc {
		t.Fatalf("cartesian estimate %d not far above connected %d", xc, cc)
	}
	if again := cartesian.EstimateCost(GraphSet(g)); again != xc {
		t.Fatalf("memoized estimate changed: %d then %d", xc, again)
	}
}
