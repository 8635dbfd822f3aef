package sparql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
)

// prepareTestQueries covers every query form the evaluator supports,
// so Run is checked against Evaluate across the whole algebra.
var prepareTestQueries = []string{
	`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`,
	`SELECT DISTINCT ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a LIMIT 3`,
	`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a }`,
	`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n OPTIONAL { ?s <http://ex/age> ?a } }`,
	`SELECT ?s WHERE { { ?s <http://ex/name> "n1" } UNION { ?s <http://ex/name> "n2" } }`,
	`SELECT ?s ?a WHERE { ?s <http://ex/age> ?a FILTER(?a > 23) }`,
	`ASK WHERE { ?s <http://ex/name> "n5" }`,
	`SELECT (COUNT(?s) AS ?c) WHERE { ?s <http://ex/age> ?a } GROUP BY ?a`,
	`CONSTRUCT { ?s <http://ex/label> ?n } WHERE { ?s <http://ex/name> ?n }`,
}

// A Prepared plan must answer exactly like the one-shot evaluator on
// every query form, on first and on plan-cache-hit runs.
func TestPreparedRunMatchesEvaluate(t *testing.T) {
	g := allocTestGraph()
	for _, text := range prepareTestQueries {
		p, err := Prepare(text)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", text, err)
		}
		want, err := Evaluate(p.Query(), g)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ { // run 0 compiles, 1..2 hit the plan cache
			got, err := p.Run(context.Background(), g)
			if err != nil {
				t.Fatalf("Run(%q) #%d: %v", text, run, err)
			}
			if !got.Equal(want) {
				t.Fatalf("Run(%q) #%d diverges from Evaluate", text, run)
			}
		}
	}
}

// One Prepared plan and one Graph shared by many goroutines must be
// safe under the race detector: the graph's encoded view and stats are
// lazily built on first use, the plan cache is filled concurrently, and
// runs share cached plans read-only. (Run with -race; this test is the
// load-bearing exercise for the Stats/Encoded locking.)
func TestPreparedConcurrentRuns(t *testing.T) {
	g := allocTestGraph() // fresh graph: encoded view and stats not yet built
	p, err := Prepare(`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a } ORDER BY ?n LIMIT 16`)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	results := make([]*Results, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for run := 0; run < 4; run++ {
				r, err := p.Run(context.Background(), g)
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = r
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < goroutines; i++ {
		if !results[i].Equal(results[0]) {
			t.Fatalf("goroutine %d produced different results", i)
		}
	}
}

// Adding triples after a run must invalidate the cached plan: the next
// run re-compiles against the grown snapshot and sees the new data.
func TestPreparedPlanInvalidation(t *testing.T) {
	g := allocTestGraph()
	p, err := Prepare(`SELECT ?s WHERE { ?s <http://ex/name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	g.Add(rdf.Triple{
		S: rdf.NewIRI("http://ex/new"),
		P: rdf.NewIRI("http://ex/name"),
		O: rdf.NewLiteral("fresh"),
	})
	after, err := p.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != before.Len()+1 {
		t.Fatalf("post-Add run returned %d rows, want %d", after.Len(), before.Len()+1)
	}
}

// cancelTestGraph builds two disjoint star branches of n subjects each,
// so joining them is a true n×n cartesian product — the worst case a
// cancelled context must abort.
func cancelTestGraph(n int) *rdf.Graph {
	ts := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		ts = append(ts,
			rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/a%d", i)), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral(fmt.Sprintf("x%d", i))},
			rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/b%d", i)), P: rdf.NewIRI("http://ex/q"), O: rdf.NewLiteral(fmt.Sprintf("y%d", i))},
		)
	}
	return rdf.NewGraph(ts)
}

// Cancelling mid-join must abort an 8192×8192 cartesian well before
// its ~67M-row completion and surface ctx.Err(). Both cartesian paths
// are exercised: the BGP-internal row extension (bindShard) and the
// Group join fallback (nestedJoinRows).
func TestRunCancelMidJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an 8192-wide cartesian")
	}
	g := cancelTestGraph(8192)
	g.Encoded() // warm outside the timed section
	g.Stats()
	for name, text := range map[string]string{
		"bgp-cartesian":   `SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/q> ?y }`,
		"group-cartesian": `SELECT * WHERE { { ?a <http://ex/p> ?x . } { ?b <http://ex/q> ?y . } }`,
	} {
		t.Run(name, func(t *testing.T) {
			p, err := Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err = p.Run(ctx, g)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", err)
			}
			// The full cartesian materializes tens of millions of rows
			// (multiple seconds and gigabytes); a prompt abort is orders
			// of magnitude under this bound.
			if elapsed > 3*time.Second {
				t.Fatalf("cancelled run took %v, want prompt abort", elapsed)
			}
		})
	}
}

// An already-expired context must fail before any evaluation work.
func TestRunPreCancelled(t *testing.T) {
	g := allocTestGraph()
	p, err := Prepare(`SELECT ?s WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done()
	if _, err := p.RunSolutions(dctx, g); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunSolutions = %v, want context.DeadlineExceeded", err)
	}
}

// RunSolutions must expose exactly the rows Run materializes, decoding
// terms on access, and handle the ASK / aggregate / CONSTRUCT
// fallbacks behind the same accessors.
func TestRunSolutionsMatchesRun(t *testing.T) {
	g := allocTestGraph()
	for _, text := range prepareTestQueries {
		p, err := Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := p.RunSolutions(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got := sol.Results(); !got.Equal(want) {
			t.Fatalf("RunSolutions(%q) diverges from Run", text)
		}
		if sol.IsAsk() || sol.IsGraph() {
			continue
		}
		if sol.Len() != want.Len() {
			t.Fatalf("Solutions.Len(%q) = %d, want %d", text, sol.Len(), want.Len())
		}
		for i := 0; i < sol.Len(); i++ {
			for j := range sol.Vars() {
				term, bound := sol.Term(i, j)
				wt, wok := want.Term(i, j)
				if bound != wok || (bound && term != wt) {
					t.Fatalf("Term(%d,%d) of %q = (%v,%v), want (%v,%v)", i, j, text, term, bound, wt, wok)
				}
			}
		}
	}
}

// LIMIT/OFFSET arguments must be validated integers: the old
// fmt.Sscanf parsing silently truncated "3.5" to 3 and ignored
// overflow entirely.
func TestParseLimitOffsetValidation(t *testing.T) {
	for _, text := range []string{
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT 3.5`,
		`SELECT ?s WHERE { ?s ?p ?o } OFFSET 1.2`,
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT -4`,
		`SELECT ?s WHERE { ?s ?p ?o } OFFSET -1`,
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT 99999999999999999999999999`,
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT ?x`,
	} {
		if _, err := Parse(text); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", text)
		} else if !strings.Contains(err.Error(), "LIMIT") && !strings.Contains(err.Error(), "OFFSET") {
			t.Fatalf("Parse(%q) error %q does not name the clause", text, err)
		}
	}
	q, err := Parse(`SELECT ?s WHERE { ?s ?p ?o } LIMIT 10 OFFSET 2`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 10 || q.Offset != 2 {
		t.Fatalf("LIMIT/OFFSET = %d/%d, want 10/2", q.Limit, q.Offset)
	}
}

// A cancellation that lands inside a build-left hash scatter must not
// leak the pre-sized output slice: its unfilled nil holes would crash
// any consumer that indexes rows before noticing the latched error
// (regression: Filter over a cancelled OPTIONAL panicked).
func TestCancelMidScatterLeaksNoHoles(t *testing.T) {
	g := joinTestGraph(2048)
	env, names, ages := joinSides(t, g)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// Probe side (right) larger than build side (left) → build-left
	// paths. The counting loop polls the context after cancelCheckEvery
	// probes and must return nothing rather than a holed slice.
	for name, join := range map[string]func([]slotRow, []slotRow) []slotRow{
		"join":     env.joinRows,
		"optional": env.optionalRows,
	} {
		env.ctx, env.err, env.tick = cancelled, nil, 0
		out := join(names[:16], ages)
		if env.err == nil {
			t.Fatalf("%s: cancellation not latched", name)
		}
		for i, r := range out {
			if r == nil {
				t.Fatalf("%s: nil row hole at %d in %d-row output", name, i, len(out))
			}
		}
	}

	// End to end: the latched error must surface as ctx.Err() from the
	// pattern walk, not as partial rows handed to FILTER.
	env2 := PrepareQuery(MustParse(
		`SELECT * WHERE { ?s <http://ex/name> ?n OPTIONAL { ?s <http://ex/age> ?a } FILTER(BOUND(?a)) }`)).
		newEnv(cancelled, GraphSet(g), &runOpts{})
	if _, err := evaluate(env2, env2.prep.q); !errors.Is(err, context.Canceled) {
		t.Fatalf("evaluate under cancelled ctx = %v, want context.Canceled", err)
	}
}
