package sparql

import (
	"sync"
	"time"
)

// Replica health for the sharded executor: circuit breakers plus
// per-replica EWMA latency and error-rate scores that steer replica
// selection toward the fastest healthy replica, and the fixed-delay
// hedge policy. The analogue in the surveyed systems is Spark's
// straggler mitigation: speculative task execution re-runs slow tasks
// elsewhere, which only helps if the scheduler also learns which
// executors are slow.

// replicaBreaker is the circuit-breaker state of one shard replica.
type replicaBreaker struct {
	consec   int // consecutive failures
	open     bool
	openedAt time.Time
	trips    int64
}

// replicaScore is the straggler signal of one shard replica: an
// exponentially weighted moving average of its successful-attempt
// latency and a decayed error rate. ewmaNs == 0 means unsampled — the
// replica has never answered, so selection warms it before latency
// steering takes over.
type replicaScore struct {
	ewmaNs  float64
	errRate float64
}

// value folds latency and error rate into one steering score (lower is
// better): errors inflate the effective latency so a fast-but-flaky
// replica does not starve a slightly slower reliable one.
func (sc replicaScore) value() float64 {
	return sc.ewmaNs * (1 + scoreErrPenalty*sc.errRate)
}

const (
	// breakerTripThreshold is the consecutive-failure count that opens
	// a replica's breaker.
	breakerTripThreshold = 3
	// defaultBreakerCooldown is how long an open breaker holds traffic
	// off a replica before admitting a half-open probe.
	defaultBreakerCooldown = 250 * time.Millisecond
	// scoreAlpha is the EWMA weight of the newest latency/error sample.
	scoreAlpha = 0.3
	// scoreErrPenalty scales how strongly the error rate inflates a
	// replica's steering score.
	scoreErrPenalty = 4.0
)

// ReplicaHealth tracks the mutable per-replica serving state of one
// ShardSet: circuit breakers (consecutive failures trip a replica
// open, an open replica admits one half-open probe after the cooldown,
// a success closes it again) and straggler scores (EWMA latency +
// decayed error rate) that order selection among the closed replicas.
// Breakers steer replica selection, they never deny it — when nothing
// healthier remains a pick still returns an open replica (a forced
// probe), so a query only ever fails after actually attempting every
// replica. All methods are safe for concurrent use; ReplicaHealth is
// the only mutable state attached to an otherwise immutable set.
type ReplicaHealth struct {
	mu       sync.Mutex
	b        [][]replicaBreaker
	score    [][]replicaScore
	rr       []int // per-shard round-robin cursor (warmup ordering)
	trips    int64
	cooldown time.Duration
	now      func() time.Time // injectable clock (tests)
}

// NewReplicaHealth returns breaker state for shards × replicas, all
// closed and unsampled.
func NewReplicaHealth(shards, replicas int) *ReplicaHealth {
	h := &ReplicaHealth{
		b:        make([][]replicaBreaker, shards),
		score:    make([][]replicaScore, shards),
		rr:       make([]int, shards),
		cooldown: defaultBreakerCooldown,
		now:      time.Now,
	}
	for s := range h.b {
		h.b[s] = make([]replicaBreaker, replicas)
		h.score[s] = make([]replicaScore, replicas)
	}
	return h
}

// SetCooldown overrides the half-open probe cooldown, so tests reach
// the half-open state without waiting out the default.
func (h *ReplicaHealth) SetCooldown(d time.Duration) {
	if d <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cooldown = d
}

// SetClock injects the time source used for breaker cooldowns, so
// breaker tests advance time without sleeping.
func (h *ReplicaHealth) SetClock(now func() time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.now = now
}

// pick selects the replica of shard s for the next attempt, skipping
// replicas already failed by this op (tried). Preference order:
// unsampled closed replicas in round-robin order (so every replica's
// score warms up), then sampled closed replicas by ascending straggler
// score, then open breakers whose cooldown elapsed (the half-open
// probe), then the longest-open breaker (the forced probe). Returns -1
// only when every replica was already tried.
func (h *ReplicaHealth) pick(s int, tried []bool) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	bs := h.b[s]
	sc := h.score[s]
	n := len(bs)
	start := h.rr[s]
	h.rr[s] = (start + 1) % n
	for i := 0; i < n; i++ {
		r := (start + i) % n
		if !tried[r] && !bs[r].open && sc[r].ewmaNs == 0 {
			return r
		}
	}
	best, bestScore := -1, 0.0
	for r := 0; r < n; r++ {
		if tried[r] || bs[r].open {
			continue
		}
		if v := sc[r].value(); best < 0 || v < bestScore {
			best, bestScore = r, v
		}
	}
	if best >= 0 {
		return best
	}
	now := h.now()
	forced, oldest := -1, time.Time{}
	for r := range bs {
		if tried[r] || !bs[r].open {
			continue
		}
		if now.Sub(bs[r].openedAt) >= h.cooldown {
			return r
		}
		if forced < 0 || bs[r].openedAt.Before(oldest) {
			forced, oldest = r, bs[r].openedAt
		}
	}
	return forced
}

// ok records a successful attempt and its latency: the replica's
// breaker closes, its failure streak resets, its latency EWMA absorbs
// the sample, and its error rate decays.
func (h *ReplicaHealth) ok(s, r int, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := &h.b[s][r]
	b.consec, b.open = 0, false
	sc := &h.score[s][r]
	ns := float64(d)
	if ns < 1 {
		ns = 1 // keep 0 as the unsampled marker
	}
	if sc.ewmaNs == 0 {
		sc.ewmaNs = ns
	} else {
		sc.ewmaNs += scoreAlpha * (ns - sc.ewmaNs)
	}
	sc.errRate *= 1 - scoreAlpha
}

// fail records a failed attempt: the streak grows, tripping the breaker
// open at the threshold; a failed probe re-arms the cooldown; the error
// rate rises toward 1.
func (h *ReplicaHealth) fail(s, r int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := &h.b[s][r]
	b.consec++
	sc := &h.score[s][r]
	sc.errRate += scoreAlpha * (1 - sc.errRate)
	if b.open {
		b.openedAt = h.now()
		return
	}
	if b.consec >= breakerTripThreshold {
		b.open = true
		b.openedAt = h.now()
		b.trips++
		h.trips++
	}
}

// Trips returns the cumulative breaker trips across all replicas.
func (h *ReplicaHealth) Trips() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.trips
}

// BreakerInfo is one replica breaker's observable state (/stats).
type BreakerInfo struct {
	Shard               int    `json:"shard"`
	Replica             int    `json:"replica"`
	State               string `json:"state"` // "closed", "open", "half-open"
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Trips               int64  `json:"trips"`
	// LatencyEwmaMs is the replica's successful-attempt latency EWMA in
	// milliseconds; 0 means unsampled.
	LatencyEwmaMs float64 `json:"latency_ewma_ms"`
	// ErrorRate is the replica's decayed failure rate in [0, 1].
	ErrorRate float64 `json:"error_rate"`
}

// Snapshot returns every breaker's state, ordered by shard then
// replica.
func (h *ReplicaHealth) Snapshot() []BreakerInfo {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	var out []BreakerInfo
	for s := range h.b {
		for r := range h.b[s] {
			b := h.b[s][r]
			state := "closed"
			if b.open {
				state = "open"
				if now.Sub(b.openedAt) >= h.cooldown {
					state = "half-open"
				}
			}
			out = append(out, BreakerInfo{
				Shard:               s,
				Replica:             r,
				State:               state,
				ConsecutiveFailures: b.consec,
				Trips:               b.trips,
				LatencyEwmaMs:       h.score[s][r].ewmaNs / 1e6,
				ErrorRate:           h.score[s][r].errRate,
			})
		}
	}
	return out
}

// HedgePolicy configures hedged shard operations: after Delay without
// an answer from the primary replica, the same op launches on the
// next-best replica and the first success wins (the loser is
// cancelled). Every replica of a shard serves the same view, so the
// race is invisible in the output.
type HedgePolicy struct {
	// Delay is how long an op waits before hedging; zero or negative
	// leaves hedging off.
	Delay time.Duration
}

// WithHedge arms hedged shard operations for the run (effective only
// on sharded backends with more than one replica per shard).
func WithHedge(hp HedgePolicy) RunOption {
	return func(o *runOpts) { o.hedgeDelay = hp.Delay }
}
