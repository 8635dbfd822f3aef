package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilPlanIsNoFault(t *testing.T) {
	var p *Plan
	if err := p.Hit(PointServer); err != nil {
		t.Fatalf("nil plan injected: %v", err)
	}
	if c := p.Counters(); c != (Counters{}) {
		t.Fatalf("nil plan counted: %+v", c)
	}
	if got := From(context.Background()); got != nil {
		t.Fatalf("From(bare ctx) = %v, want nil", got)
	}
}

func TestFailNextConsumes(t *testing.T) {
	p := NewPlan(1).FailNext(PointScatter, 2)
	for i := 0; i < 2; i++ {
		if err := p.Hit(PointScatter); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := p.Hit(PointScatter); err != nil {
		t.Fatalf("third hit: err = %v, want nil (injections consumed)", err)
	}
	if err := p.Hit(PointServer); err != nil {
		t.Fatalf("unarmed point injected: %v", err)
	}
	if c := p.Counters(); c.Failures != 2 || c.Hits != 3 {
		t.Fatalf("counters = %+v, want 2 failures over 3 hits", c)
	}
}

func TestFailAlways(t *testing.T) {
	p := NewPlan(1).FailAlways(ReplicaPoint(2, 1))
	for i := 0; i < 5; i++ {
		if err := p.Hit(ReplicaPoint(2, 1)); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d survived", i)
		}
	}
	if err := p.Hit(ReplicaPoint(2, 0)); err != nil {
		t.Fatalf("sibling replica injected: %v", err)
	}
}

func TestPanicNextCarriesPoint(t *testing.T) {
	p := NewPlan(1).PanicNext(PointServer, 1)
	func() {
		defer func() {
			r := recover()
			ip, ok := r.(InjectedPanic)
			if !ok || ip.Point != PointServer {
				t.Fatalf("recovered %v, want InjectedPanic{server}", r)
			}
		}()
		p.Hit(PointServer)
		t.Fatal("armed panic did not fire")
	}()
	if err := p.Hit(PointServer); err != nil {
		t.Fatalf("second hit after consumed panic: %v", err)
	}
	if c := p.Counters(); c.Panics != 1 {
		t.Fatalf("panics = %d, want 1", c.Panics)
	}
}

func TestFailRateIsSeedDeterministic(t *testing.T) {
	draw := func(seed int64) []bool {
		p := NewPlan(seed).FailRate(PointScatter, 0.5)
		out := make([]bool, 64)
		for i := range out {
			out[i] = p.Hit(PointScatter) != nil
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	saw := false
	for i, c := range draw(7) {
		if c != a[i] {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("different seeds produced identical 64-hit schedules")
	}
}

func TestDelayInjectsLatency(t *testing.T) {
	p := NewPlan(1).Delay(PointServer, 30*time.Millisecond)
	start := time.Now()
	if err := p.Hit(PointServer); err != nil {
		t.Fatalf("delay-only point failed: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("hit returned after %v, want >= ~30ms", d)
	}
	if c := p.Counters(); c.Delays != 1 {
		t.Fatalf("delays = %d, want 1", c.Delays)
	}
}

func TestSlowReplicaDelaysOnlyTarget(t *testing.T) {
	p := NewPlan(1).SlowReplica(2, 1, 30*time.Millisecond)
	start := time.Now()
	if err := p.Hit(ReplicaPoint(2, 1)); err != nil {
		t.Fatalf("slow replica failed instead of stalling: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("slow replica answered after %v, want >= ~30ms", d)
	}
	start = time.Now()
	if err := p.Hit(ReplicaPoint(2, 0)); err != nil {
		t.Fatalf("sibling replica: %v", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("sibling replica stalled %v, want fast", d)
	}
	if c := p.Counters(); c.Delays != 1 {
		t.Fatalf("delays = %d, want 1", c.Delays)
	}
}

func TestContextRoundTrip(t *testing.T) {
	p := NewPlan(1)
	ctx := With(context.Background(), p)
	if got := From(ctx); got != p {
		t.Fatalf("From(With(ctx, p)) = %v, want %v", got, p)
	}
	if got := With(context.Background(), nil); got != context.Background() {
		t.Fatal("With(ctx, nil) must return ctx unchanged")
	}
}
