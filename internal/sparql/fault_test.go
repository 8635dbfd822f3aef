package sparql

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestMorselPanicRetryDeterminism pins the lineage-retry contract for
// morsel tasks: a single injected panic inside a morsel worker is
// recovered, the task re-runs, and the query's output stays
// byte-identical to a clean serial run — the engine-side equivalent of
// Spark re-running a lost task from lineage.
func TestMorselPanicRetryDeterminism(t *testing.T) {
	g := parTestGraph(8192)
	queries := []string{
		// Seed scan: the simplest morsel source.
		`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`,
		// Build-right probe: panics can hit the probe tasks.
		`SELECT * WHERE { { ?s <http://ex/name> ?n } { ?s <http://ex/age> ?a } }`,
		// Build-left scatter probe: the cursor-matrix must be re-runnable.
		`SELECT * WHERE { { ?s <http://ex/knows> ?k } { ?s <http://ex/age> ?a } }`,
		// Build-left OPTIONAL: emit-pass retries must not double-advance.
		`SELECT * WHERE { { ?s <http://ex/knows> ?k } OPTIONAL { ?s <http://ex/age> ?a } }`,
	}
	for qi, text := range queries {
		prep := MustPrepare(t, text)
		want, err := prep.Run(context.Background(), g, WithParallelism(1))
		if err != nil {
			t.Fatalf("query %d clean run: %v", qi, err)
		}
		plan := fault.NewPlan(int64(qi+1)).PanicNext(fault.PointMorsel, 1)
		var fs FaultStats
		got, err := prep.Run(fault.With(context.Background(), plan), g,
			WithParallelism(4), WithFaultStats(&fs))
		if err != nil {
			t.Fatalf("query %d faulted run: %v", qi, err)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: output diverged under an injected morsel panic", qi)
		}
		if c := plan.Counters(); c.Panics != 1 {
			t.Fatalf("query %d: plan injected %d panics, want 1", qi, c.Panics)
		}
		if fs.RecoveredPanics < 1 {
			t.Fatalf("query %d: fault stats recovered %d panics, want >= 1", qi, fs.RecoveredPanics)
		}
		if fs.Retries < 1 {
			t.Fatalf("query %d: fault stats report %d retries, want >= 1", qi, fs.Retries)
		}
	}
}

// TestMorselPanicExhaustedFailsQuery pins that a morsel task panicking
// on every attempt fails the query — with a typed PanicError, not a
// crashed process or a silent partial result.
func TestMorselPanicExhaustedFailsQuery(t *testing.T) {
	g := parTestGraph(8192)
	prep := MustPrepare(t, `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`)
	plan := fault.NewPlan(1).PanicNext(fault.PointMorsel, -1) // every hit panics
	var fs FaultStats
	_, err := prep.Run(fault.With(context.Background(), plan), g,
		WithParallelism(4), WithFaultStats(&fs))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want a *PanicError after exhausted retries", err)
	}
	if fs.RecoveredPanics < int64(maxTaskAttempts) {
		t.Fatalf("recovered %d panics, want >= %d (every attempt of the doomed task)",
			fs.RecoveredPanics, maxTaskAttempts)
	}
}

// TestMorselFaultInjectedError pins that an injected (non-panic) task
// failure is also retried to a clean result, and that exhausting the
// budget surfaces the injected error itself.
func TestMorselFaultInjectedError(t *testing.T) {
	g := parTestGraph(8192)
	prep := MustPrepare(t, `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`)
	want, err := prep.Run(context.Background(), g, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}

	// Two one-shot failures: both tasks re-run and the output is clean.
	plan := fault.NewPlan(7).FailNext(fault.PointMorsel, 2)
	got, err := prep.Run(fault.With(context.Background(), plan), g, WithParallelism(4))
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("output diverged under injected morsel failures")
	}

	// Unbounded failure: the retry budget runs out and the injected
	// error reaches the caller.
	always := fault.NewPlan(7).FailAlways(fault.PointMorsel)
	if _, err := prep.Run(fault.With(context.Background(), always), g, WithParallelism(4)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error = %v, want fault.ErrInjected", err)
	}
}

// TestMorselSpeculationEveryJoinShape races every morsel source: the
// four queries of TestMorselPanicRetryDeterminism (a seed scan, a probe
// by the left side, and the two probes against a table over the left
// side, which wrote shared cursors in place and could be neither raced
// nor simply re-run before they computed into private memory) under
// injected morsel stragglers, one injected panic and an armed watchdog.
// Output stays byte-identical to the clean serial run, in order; copies
// are launched on every query; nothing outlives the runs. Fault plans
// derive from CHAOS_SEED, so the chaos job sweeps the interleavings.
func TestMorselSpeculationEveryJoinShape(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	g := parTestGraph(8192)
	queries := []string{
		`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`,
		`SELECT * WHERE { { ?s <http://ex/name> ?n } { ?s <http://ex/age> ?a } }`,
		`SELECT * WHERE { { ?s <http://ex/knows> ?k } { ?s <http://ex/age> ?a } }`,
		`SELECT * WHERE { { ?s <http://ex/knows> ?k } OPTIONAL { ?s <http://ex/age> ?a } }`,
	}
	before := runtime.NumGoroutine()
	for qi, text := range queries {
		prep := MustPrepare(t, text)
		want, err := prep.Run(context.Background(), g, WithParallelism(1))
		if err != nil {
			t.Fatalf("query %d clean run: %v", qi, err)
		}
		// Whether a straggler outlives the watchdog's threshold is a
		// matter of timing; a few runs make it a matter of course.
		var specs int64
		for run := 0; run < 8 && (run < 2 || specs == 0); run++ {
			plan := fault.NewPlan(seed+int64(100*qi+run)).
				DelayRate(fault.PointMorsel, 0.4, 2*time.Millisecond).
				PanicNext(fault.PointMorsel, 1)
			var fs FaultStats
			got, err := prep.Run(fault.With(context.Background(), plan), g,
				WithParallelism(4), WithSpeculation(2), WithFaultStats(&fs))
			if err != nil {
				t.Fatalf("query %d run %d: %v", qi, run, err)
			}
			a, b := want.OrderedCanonical(), got.OrderedCanonical()
			if len(a) != len(b) {
				t.Fatalf("query %d run %d: %d rows, want %d", qi, run, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("query %d run %d: row %d = %q, want %q", qi, run, i, b[i], a[i])
				}
			}
			// The panic lands on whichever copy hits the fault point next:
			// an original's is retried, a speculative copy's just drops it.
			if c := plan.Counters(); c.Panics != 1 {
				t.Fatalf("query %d run %d: plan injected %d panics, want 1", qi, run, c.Panics)
			}
			specs += fs.Speculations
		}
		if specs == 0 {
			t.Fatalf("query %d: no speculative copy launched in 8 straggling runs", qi)
		}
	}
	waitGoroutines(t, before)
}
