package sparql

import (
	"math"
	"sync"
	"time"
)

// Replica health for the sharded executor: per-replica EWMA latency and
// error-rate scores that order replica selection, the fastest healthy
// replica first. The analogue in the surveyed systems is Spark's
// straggler mitigation, which only helps if the scheduler also learns
// which executors are slow.

// replicaScore is the straggler signal of one shard replica: an
// exponentially weighted moving average of its successful-attempt
// latency and a decayed error rate. No latency and an error rate below
// scoreReprobe means unsampled — the replica was never attempted, or it
// has only failed and long enough ago (ok) — so selection warms it
// before steering takes over.
type replicaScore struct {
	ewmaNs  float64
	errRate float64
}

// unsampled reports that the replica is due a warming attempt.
func (sc replicaScore) unsampled() bool { return sc.ewmaNs == 0 && sc.errRate < scoreReprobe }

// value folds latency and error rate into one steering score (lower is
// better): errors inflate the effective latency so a fast-but-flaky
// replica does not starve a slightly slower reliable one. A replica
// that has only ever failed has no latency to inflate and scores +Inf,
// after every replica that has answered.
func (sc replicaScore) value() float64 {
	if sc.ewmaNs == 0 {
		return math.Inf(1)
	}
	return sc.ewmaNs * (1 + scoreErrPenalty*sc.errRate)
}

const (
	// scoreAlpha is the EWMA weight of the newest latency/error sample.
	scoreAlpha = 0.3
	// scoreErrPenalty scales how strongly the error rate inflates a
	// replica's steering score.
	scoreErrPenalty = 4.0
	// scoreReprobe is the error rate below which a replica that has
	// only failed is warmed again: six successes of its shard after one
	// failure.
	scoreReprobe = 0.05
)

// ReplicaHealth tracks the mutable per-replica serving state of one
// ShardSet: straggler scores (EWMA latency + decayed error rate) that
// order replica selection. Scores steer, they never deny — when every
// better replica was tried, a pick still returns one that has only
// failed, so a query only ever fails after actually attempting every
// replica. All methods are safe for concurrent use; ReplicaHealth is
// the only mutable state attached to an otherwise immutable set.
type ReplicaHealth struct {
	mu    sync.Mutex
	score [][]replicaScore
	rr    []int // per-shard round-robin cursor (warmup ordering)
}

// NewReplicaHealth returns health state for shards × replicas, all
// unsampled.
func NewReplicaHealth(shards, replicas int) *ReplicaHealth {
	h := &ReplicaHealth{
		score: make([][]replicaScore, shards),
		rr:    make([]int, shards),
	}
	for s := range h.score {
		h.score[s] = make([]replicaScore, replicas)
	}
	return h
}

// pick selects the replica of shard s for the next attempt, skipping
// replicas already failed by this op (tried). Preference order:
// unsampled replicas in round-robin order (so every replica's score
// warms up), then sampled replicas by ascending straggler score, those
// that have only failed last. Returns -1 only when every replica was
// already tried.
func (h *ReplicaHealth) pick(s int, tried []bool) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	sc := h.score[s]
	n := len(sc)
	start := h.rr[s]
	h.rr[s] = (start + 1) % n
	for i := 0; i < n; i++ {
		if r := (start + i) % n; !tried[r] && sc[r].unsampled() {
			return r
		}
	}
	best, bestScore := -1, 0.0
	for r := 0; r < n; r++ {
		if v := sc[r].value(); !tried[r] && (best < 0 || v < bestScore) {
			best, bestScore = r, v
		}
	}
	return best
}

// ok records a successful attempt and its latency: the replica's
// latency EWMA absorbs the sample and its error rate decays. So does
// the error rate of each replica of the shard that has only failed,
// which no success of its own can decay: below scoreReprobe the next
// pick tries it again.
func (h *ReplicaHealth) ok(s, r int, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for q := range h.score[s] {
		if sc := &h.score[s][q]; sc.ewmaNs == 0 || q == r {
			sc.errRate *= 1 - scoreAlpha
		}
	}
	sc := &h.score[s][r]
	ns := max(float64(d), 1) // keep 0 as "never answered"
	if sc.ewmaNs == 0 {
		sc.ewmaNs = ns
	} else {
		sc.ewmaNs += scoreAlpha * (ns - sc.ewmaNs)
	}
}

// fail records a failed attempt: the error rate rises toward 1.
func (h *ReplicaHealth) fail(s, r int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sc := &h.score[s][r]
	sc.errRate += scoreAlpha * (1 - sc.errRate)
}

// ReplicaInfo is one replica's observable health (/stats).
type ReplicaInfo struct {
	Shard   int `json:"shard"`
	Replica int `json:"replica"`
	// LatencyEwmaMs is the replica's successful-attempt latency EWMA in
	// milliseconds; 0 means it never answered.
	LatencyEwmaMs float64 `json:"latency_ewma_ms"`
	// ErrorRate is the replica's decayed failure rate in [0, 1].
	ErrorRate float64 `json:"error_rate"`
}

// Snapshot returns every replica's health, ordered by shard then
// replica.
func (h *ReplicaHealth) Snapshot() []ReplicaInfo {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []ReplicaInfo
	for s := range h.score {
		for r, sc := range h.score[s] {
			out = append(out, ReplicaInfo{Shard: s, Replica: r, LatencyEwmaMs: sc.ewmaNs / 1e6, ErrorRate: sc.errRate})
		}
	}
	return out
}
