package sparql

import (
	"sort"
	"sync"
	"time"
)

// Replica health for the sharded executor: circuit breakers (PR 6)
// plus the tail-latency signals layered on top of them — per-replica
// EWMA latency and error-rate scores that steer replica selection
// toward the fastest healthy copy, and per-op-class latency windows
// whose p95 sets the adaptive hedge delay. The analogue in the
// surveyed systems is Spark's straggler mitigation: speculative task
// execution re-runs slow tasks elsewhere, which only helps if the
// scheduler also learns which executors are slow.

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
	// breakerTripThreshold is the default consecutive-failure count
	// that opens a replica's breaker.
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

// Op classes for the hedge-delay latency windows: scatter scans and
// pushdown ops have very different cost profiles, so each class keeps
// its own p95.
const (
	opClassScan = iota
	opClassPushdown
	numOpClasses
)

const (
	// latWindowSize bounds each op class's sliding latency window.
	latWindowSize = 64
	// minHedgeSamples is how many completed ops an op class needs
	// before its observed p95 replaces the fallback hedge delay.
	minHedgeSamples = 8
	// fallbackHedgeDelay is the adaptive hedge delay until enough
	// samples exist (and the floor below which the p95 never matters —
	// hedging µs-scale ops would only add load).
	fallbackHedgeDelay = time.Millisecond
)

// latWindow is a fixed-size ring of recent op latencies.
type latWindow struct {
	samples [latWindowSize]int64
	next    int
	n       int
}

func (w *latWindow) add(ns int64) {
	w.samples[w.next] = ns
	w.next = (w.next + 1) % latWindowSize
	if w.n < latWindowSize {
		w.n++
	}
}

// p95 returns the nearest-rank 95th percentile over the window, or
// false while the window holds fewer than minHedgeSamples samples.
func (w *latWindow) p95() (int64, bool) {
	if w.n < minHedgeSamples {
		return 0, false
	}
	sorted := make([]int64, w.n)
	copy(sorted, w.samples[:w.n])
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (95*w.n + 99) / 100 // ceil(0.95 * n)
	if idx > w.n {
		idx = w.n
	}
	return sorted[idx-1], true
}

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
	trip     int // consecutive failures that open a breaker
	cooldown time.Duration
	now      func() time.Time // injectable clock (tests)
	lat      [numOpClasses]latWindow
}

// NewReplicaHealth returns breaker state for shards × replicas, all
// closed and unsampled.
func NewReplicaHealth(shards, replicas int) *ReplicaHealth {
	h := &ReplicaHealth{
		b:        make([][]replicaBreaker, shards),
		score:    make([][]replicaScore, shards),
		rr:       make([]int, shards),
		trip:     breakerTripThreshold,
		cooldown: defaultBreakerCooldown,
		now:      time.Now,
	}
	for s := range h.b {
		h.b[s] = make([]replicaBreaker, replicas)
		h.score[s] = make([]replicaScore, replicas)
	}
	return h
}

// SetCooldown overrides the half-open probe cooldown (tests and
// operational tuning).
func (h *ReplicaHealth) SetCooldown(d time.Duration) {
	if d <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cooldown = d
}

// SetTripThreshold overrides how many consecutive failures open a
// replica's breaker (minimum 1).
func (h *ReplicaHealth) SetTripThreshold(n int) {
	if n < 1 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.trip = n
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
	if b.consec >= h.trip {
		b.open = true
		b.openedAt = h.now()
		b.trips++
		h.trips++
	}
}

// noteOp records one completed shard op's end-to-end latency into its
// op class's window — the signal behind the adaptive hedge delay.
func (h *ReplicaHealth) noteOp(class int, d time.Duration) {
	if h == nil || class < 0 || class >= numOpClasses {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lat[class].add(int64(d))
}

// hedgeAfter returns the adaptive hedge delay for an op class: the
// observed p95 over the class's recent ops, floored at the fallback
// delay; the plain fallback while samples are scarce.
func (h *ReplicaHealth) hedgeAfter(class int) time.Duration {
	if h == nil || class < 0 || class >= numOpClasses {
		return fallbackHedgeDelay
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.lat[class].p95(); ok && time.Duration(p) > fallbackHedgeDelay {
		return time.Duration(p)
	}
	return fallbackHedgeDelay
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
// cancelled). Replica interchangeability makes the race invisible in
// the output.
type HedgePolicy struct {
	// Delay is how long an op waits before hedging. Zero or negative
	// means adaptive: the observed p95 of the op's class, with a 1ms
	// fallback until enough samples exist.
	Delay time.Duration
}

// WithHedge arms hedged shard operations for the run (effective only
// on sharded backends with more than one replica per shard).
func WithHedge(hp HedgePolicy) RunOption {
	return func(o *runOpts) {
		p := hp
		o.hedge = &p
	}
}

// defaultSpecFactor is the straggler multiple WithSpeculation(k<=0)
// falls back to: a task is re-dispatched once it runs 3× the run's
// median task time.
const defaultSpecFactor = 3.0

// WithSpeculation arms speculative morsel re-execution: a watchdog
// re-dispatches morsel tasks still running after k× the run's median
// completed-task time, and the first copy to finish commits its
// buffer. k <= 0 selects the default factor. Every morsel task computes
// into private memory, so every one is eligible: seed scans and
// hash-join probes of either build side.
func WithSpeculation(k float64) RunOption {
	return func(o *runOpts) {
		if k <= 0 {
			k = defaultSpecFactor
		}
		o.specFactor = k
	}
}
