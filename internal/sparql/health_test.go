package sparql

import (
	"testing"
	"time"
)

// The replica-order pins. Mutants these tests kill (each applied to a
// copy of health.go):
//   - value() returning 0 for a replica that has only failed
//     (TestPickFailedReplicaLast: it would rank first);
//   - unsampled() testing the EWMA alone, so a replica that has only
//     failed is warmed again (TestPickFailedReplicaLast);
//   - pick returning -1 instead of a failure-only replica once every
//     answered replica is tried (TestPickFailedReplicaLast);
//   - the warm-up loop skipped (TestPickWarmsUnsampledReplicas);
//   - the error penalty dropped from value() (TestPickPenalizesErrorRate).

// TestPickFailedReplicaLast pins where a replica that has only ever
// failed ranks: after every replica that has answered, however slowly,
// yet still picked once those are tried — scores steer, they never
// deny. A replica never attempted is warmed before either.
func TestPickFailedReplicaLast(t *testing.T) {
	h := NewReplicaHealth(1, 3)
	h.fail(0, 0)
	h.fail(0, 0)
	h.ok(0, 1, time.Second)
	tried := make([]bool, 3)
	if r := h.pick(0, tried); r != 2 {
		t.Fatalf("pick with replica 2 never attempted = %d, want 2", r)
	}
	h.ok(0, 2, 2*time.Second)
	// Every round-robin start: the failure-only replica 0 never comes
	// first while an answered replica is untried.
	for i := 0; i < 3; i++ {
		if r := h.pick(0, tried); r != 1 {
			t.Fatalf("pick %d = %d, want 1 (answered beats failed only)", i, r)
		}
	}
	tried[1] = true
	if r := h.pick(0, tried); r != 2 {
		t.Fatalf("pick with replica 1 tried = %d, want 2", r)
	}
	tried[2] = true
	if r := h.pick(0, tried); r != 0 {
		t.Fatalf("pick with every answered replica tried = %d, want 0", r)
	}
	tried[0] = true
	if r := h.pick(0, tried); r != -1 {
		t.Fatalf("pick with every replica tried = %d, want -1", r)
	}
	for _, ri := range h.Snapshot() {
		if failed := ri.ErrorRate > 0; failed != (ri.Replica == 0) || (ri.LatencyEwmaMs == 0) != (ri.Replica == 0) {
			t.Fatalf("snapshot %+v: want only replica 0 failed and never answered", ri)
		}
	}
}

// TestPickWarmsUnsampledReplicas pins the warmup rule: replicas that
// were never attempted are picked (in round-robin order) before latency
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
// replicas, pick prefers the lowest EWMA, and excluding it
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
	// 3ms > 2ms.
	h.fail(0, 0)
	h.fail(0, 0)
	tried := make([]bool, 2)
	if r := h.pick(0, tried); r != 1 {
		t.Fatalf("pick = %d, want 1 (reliable beats fast-but-flaky)", r)
	}
}
