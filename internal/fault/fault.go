// Package fault provides deterministic, seeded fault injection for the
// native execution engine — the engine-side generalization of the
// simulation substrate's spark.FaultPlan. A Plan arms named fault
// points (fail-next-N, fail-always, seeded fail-rate, panic injection,
// latency injection) and rides a context into an evaluation
// (With/From); the engine hits its points (Hit) at the boundaries where
// a real distributed deployment fails — per-shard replica calls, memory
// charges, the HTTP handler — and the fault-tolerance machinery
// (replica failover, budget aborts, recovery middleware) is exercised
// exactly as a lost executor or a crashed task would exercise it,
// repeatably.
//
// A nil *Plan is a valid no-fault plan: Hit on nil returns nil, so
// un-instrumented runs pay one pointer check per point.
package fault

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// Point names one fault-injection site in the engine.
type Point string

// The engine's fault points.
const (
	// PointScatter fires once per per-shard op attempt on both the
	// scatter-gather and pushdown routes (sparql/dist.go), before the
	// replica-specific point. Delay here injects scatter latency.
	PointScatter Point = "scatter"
	// PointServer fires at the top of the HTTP query handler
	// (internal/server), inside the recovery middleware.
	PointServer Point = "server"
	// PointMem fires at every memory-budget charge of a budgeted run
	// (sparql/budget.go). An injected failure here forces the charge
	// over budget, so chaos suites exercise the BudgetError abort path
	// deterministically without crafting an actually-huge query.
	PointMem Point = "mem"
)

// ReplicaPoint names the fault point of one shard replica: failing it
// simulates that replica's node being down.
func ReplicaPoint(shard, replica int) Point {
	return Point("replica/" + strconv.Itoa(shard) + "/" + strconv.Itoa(replica))
}

// ErrInjected is the error an armed fault point returns from Hit.
var ErrInjected = errors.New("fault: injected failure")

// InjectedPanic is the value an injected panic carries, so recovery
// layers (and tests) can tell an injected crash from a real bug.
type InjectedPanic struct{ Point Point }

func (p InjectedPanic) String() string {
	return "fault: injected panic at " + string(p.Point)
}

// site is the armed state of one fault point. Counts > 0 consume one
// injection per hit; < 0 inject on every hit.
type site struct {
	failN    int
	panicN   int
	failRate float64
	delay    time.Duration
}

// Counters reports what a plan injected so far.
type Counters struct {
	Hits     int64 // Hit calls against armed points
	Failures int64 // ErrInjected returns
	Panics   int64 // injected panics
	Delays   int64 // injected latencies
}

// Plan is one deterministic fault schedule. Arm points with the
// chainable FailNext/FailAlways/FailRate/PanicNext/Delay, install it on
// a context with With, and the engine consults it through Hit. All
// methods are safe for concurrent use; the only randomness (FailRate)
// draws from the seeded source, so a plan's behavior is a function of
// its seed and the sequence of hits.
type Plan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites map[Point]*site
	c     Counters
}

// NewPlan returns an empty plan whose rate-based injections draw from
// the given seed.
func NewPlan(seed int64) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed)), sites: make(map[Point]*site)}
}

func (p *Plan) at(pt Point) *site {
	s := p.sites[pt]
	if s == nil {
		s = &site{}
		p.sites[pt] = s
	}
	return s
}

// FailNext arms pt to return ErrInjected from its next n hits.
func (p *Plan) FailNext(pt Point, n int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.at(pt).failN = n
	return p
}

// FailAlways arms pt to return ErrInjected from every hit.
func (p *Plan) FailAlways(pt Point) *Plan {
	return p.FailNext(pt, -1)
}

// FailRate arms pt to return ErrInjected from each hit independently
// with probability rate, drawn from the plan's seeded source.
func (p *Plan) FailRate(pt Point, rate float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.at(pt).failRate = rate
	return p
}

// PanicNext arms pt to panic (with an InjectedPanic value) on its next
// n hits; n < 0 panics on every hit.
func (p *Plan) PanicNext(pt Point, n int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.at(pt).panicN = n
	return p
}

// Delay arms pt to sleep d on every hit before deciding anything else.
func (p *Plan) Delay(pt Point, d time.Duration) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.at(pt).delay = d
	return p
}

// SlowReplica arms the replica's fault point to sleep d on every hit —
// the straggler injection: the replica stays up and answers correctly,
// just slowly. This is the fault replica health steering answers, as
// opposed to FailAlways(ReplicaPoint(...)), which models the replica
// being down.
func (p *Plan) SlowReplica(shard, replica int, d time.Duration) *Plan {
	return p.Delay(ReplicaPoint(shard, replica), d)
}

// Hit consults the plan at pt: it sleeps the point's injected latency,
// then panics or returns ErrInjected when an injection is armed, in
// that priority order (delay, panic, fail). A nil plan and an un-armed
// point both return nil. Safe for concurrent use.
func (p *Plan) Hit(pt Point) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	s := p.sites[pt]
	if s == nil {
		p.mu.Unlock()
		return nil
	}
	p.c.Hits++
	delay := s.delay
	panicNow, failNow := false, false
	switch {
	case s.panicN != 0:
		panicNow = true
		if s.panicN > 0 {
			s.panicN--
		}
	case s.failN != 0:
		failNow = true
		if s.failN > 0 {
			s.failN--
		}
	case s.failRate > 0 && p.rng.Float64() < s.failRate:
		failNow = true
	}
	if delay > 0 {
		p.c.Delays++
	}
	if panicNow {
		p.c.Panics++
	}
	if failNow {
		p.c.Failures++
	}
	p.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if panicNow {
		panic(InjectedPanic{Point: pt})
	}
	if failNow {
		return ErrInjected
	}
	return nil
}

// Counters returns a snapshot of what the plan injected so far.
func (p *Plan) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.c
}

type ctxKey struct{}

// With returns a context carrying the plan; the engine's entry points
// pick it up with From. A nil plan returns ctx unchanged.
func With(ctx context.Context, p *Plan) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, p)
}

// From returns the plan installed on ctx, or nil.
func From(ctx context.Context) *Plan {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(ctxKey{}).(*Plan)
	return p
}
