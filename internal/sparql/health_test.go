package sparql

import (
	"testing"
	"time"
)

// TestBreakerTripAndCooldownInjectedClock pins the breaker lifecycle
// against an injected clock: trip after the threshold, steer picks
// away while open, admit the half-open probe once the cooldown
// elapses, and close again on success — no sleeping.
func TestBreakerTripAndCooldownInjectedClock(t *testing.T) {
	h := NewReplicaHealth(1, 2)
	now := time.Unix(1000, 0)
	h.SetClock(func() time.Time { return now })
	h.SetCooldown(100 * time.Millisecond)

	for i := 0; i < breakerTripThreshold; i++ {
		h.fail(0, 0)
	}
	if got := h.Trips(); got != 1 {
		t.Fatalf("Trips = %d after %d failures, want 1", got, breakerTripThreshold)
	}

	tried := make([]bool, 2)
	if r := h.pick(0, tried); r != 1 {
		t.Fatalf("pick with replica 0 open = %d, want 1", r)
	}

	// With the only closed replica tried and the cooldown not yet
	// elapsed, the open replica is still returned — a forced probe, so
	// an op never gives up without attempting every replica.
	tried[1] = true
	if r := h.pick(0, tried); r != 0 {
		t.Fatalf("forced probe = %d, want 0", r)
	}

	now = now.Add(150 * time.Millisecond)
	for _, bi := range h.Snapshot() {
		if bi.Shard == 0 && bi.Replica == 0 && bi.State != "half-open" {
			t.Fatalf("replica 0 state after cooldown = %q, want half-open", bi.State)
		}
	}
	if r := h.pick(0, tried); r != 0 {
		t.Fatalf("half-open probe = %d, want 0", r)
	}

	h.ok(0, 0, time.Millisecond)
	for _, bi := range h.Snapshot() {
		if bi.Shard == 0 && bi.Replica == 0 && bi.State != "closed" {
			t.Fatalf("replica 0 state after success = %q, want closed", bi.State)
		}
	}
}

// TestPickWarmsUnsampledReplicas pins the warmup rule: replicas that
// have never answered are picked (in round-robin order) before latency
// steering takes over, so every replica's score gets a first sample.
func TestPickWarmsUnsampledReplicas(t *testing.T) {
	h := NewReplicaHealth(1, 3)
	tried := make([]bool, 3)
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		r := h.pick(0, tried)
		if seen[r] {
			t.Fatalf("warmup revisited replica %d before sampling all", r)
		}
		seen[r] = true
		h.ok(0, r, time.Millisecond)
	}
}

// TestPickSteersByLatencyScore pins latency steering: among sampled
// closed replicas, pick prefers the lowest EWMA, and excluding it
// falls through to the next best.
func TestPickSteersByLatencyScore(t *testing.T) {
	h := NewReplicaHealth(1, 3)
	h.ok(0, 0, 10*time.Millisecond)
	h.ok(0, 1, 1*time.Millisecond)
	h.ok(0, 2, 5*time.Millisecond)
	tried := make([]bool, 3)
	if r := h.pick(0, tried); r != 1 {
		t.Fatalf("pick = %d, want 1 (fastest)", r)
	}
	tried[1] = true
	if r := h.pick(0, tried); r != 2 {
		t.Fatalf("pick excluding fastest = %d, want 2", r)
	}
}

// TestPickPenalizesErrorRate pins the error-rate fold: a fast but
// flaky replica loses to a slower reliable one once its decayed error
// rate inflates the score past the alternative.
func TestPickPenalizesErrorRate(t *testing.T) {
	h := NewReplicaHealth(1, 2)
	h.ok(0, 0, 1*time.Millisecond)
	h.ok(0, 1, 2*time.Millisecond)
	// Two failures: errRate = 1-(1-α)² = 0.51, score = 1ms·(1+4·0.51) ≈
	// 3ms > 2ms; the breaker (threshold 3) stays closed.
	h.fail(0, 0)
	h.fail(0, 0)
	tried := make([]bool, 2)
	if r := h.pick(0, tried); r != 1 {
		t.Fatalf("pick = %d, want 1 (reliable beats fast-but-flaky)", r)
	}
}
