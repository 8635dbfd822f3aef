package sparql

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rdf"
)

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
// a long scan under a context that is already cancelled stops at its
// first poll, and many short scans — the eight-candidate per-row scans
// of a bind-join step — reach the poll between them.
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
		polls := &pollCountingContext{Context: ctx}
		env := newEvalEnv(q, g)
		env.ctx = polls
		cp := env.compilePattern(bgp.Patterns[0])
		// One input row, every candidate of ?s ?p ?o a match: the scan's
		// first run of candidates reaches the poll, which stops it.
		out, _ := bindShard(env, &cp, []slotRow{env.emptyRow()}, 0, false)
		if out != nil || polls.polls != 1 {
			t.Fatalf("a cancelled scan of %d candidates returned %d rows after %d polls, want none after 1", len(ts), len(out), polls.polls)
		}
		if env.err != context.Canceled {
			t.Fatalf("latched error %v, want context.Canceled", env.err)
		}
		if out, _ := bindShard(env, &cp, []slotRow{env.emptyRow()}, 0, false); env.interrupted() == false || out != nil {
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
		in := make([]slotRow, 400)
		for i := range in {
			in[i] = env.emptyRow()
			in[i][sSlot], _ = g.Encoded().Dict().Lookup(rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)))
		}
		out, _ := bindShard(env, &cp, in, 0, false)
		if len(out) != 400*8 {
			t.Fatalf("400 subjects of 8 triples each extended to %d rows, want %d", len(out), 400*8)
		}
		if want := 400 * 8 / cancelCheckEvery; ctx.polls < 2 || ctx.polls != want {
			t.Fatalf("400 scans of 8 candidates polled the context %d times, want %d", ctx.polls, want)
		}
		if env.err != nil {
			t.Fatalf("a live context latched %v", env.err)
		}
	})
}
