package obs

import (
	"container/list"
	"maps"
	"sort"
	"sync"
	"time"
)

// ShapeRegistry aggregates the serving workload by plan fingerprint:
// every request that reaches query execution is folded into the entry
// for its normalized query shape (sparql.FingerprintQuery), so ten
// thousand point lookups that differ only in literals show up as one
// row with ten thousand observations. Cardinality is bounded by an
// LRU over shapes — a scripted scan of ever-new shapes evicts the
// least recently seen entries instead of growing without limit — and
// the heavy-hitter view (TopK) ranks the survivors by request count.
//
// All methods are safe for concurrent use; Observe is a single
// mutex-guarded fold designed to sit on the request completion path.
type ShapeRegistry struct {
	mu        sync.Mutex
	capacity  int
	entries   map[string]*shapeEntry
	order     *list.List // front = most recently seen
	evictions Counter    // moved under mu, read without it

	rowsBounds  []float64
	bytesBounds []float64
}

// ShapeSample is one request's contribution to its shape entry.
type ShapeSample struct {
	Fingerprint string
	Class       string // shape classification (star/linear/snowflake/complex)
	Example     string // query text, retained for the first request of a shape
	Route       string // "local" or "sharded"
	DurationMs  float64
	Rows        int
	Bytes       int64 // bytes charged against the memory budget
	CacheHit    bool
	Err         bool
	Shed        bool
	Hedges      int
	Sampled     bool // request carried a sampled trace
}

// shapeEntry is one shape's aggregates, counted in place in the
// ShapeStat a snapshot copies; the quantiles and the mean are filled in
// at snapshot time from the histograms beside it.
type shapeEntry struct {
	ShapeStat
	latency, rows, bytesUsage hist

	elem *list.Element // position in the LRU order
}

// hist is a cumulative-bucket histogram over fixed upper bounds, plus
// sum and max, sized for per-shape retention (a few dozen uint64s).
type hist struct {
	counts []uint64
	sum    float64
	max    float64
	n      uint64
}

func (h *hist) observe(bounds []float64, v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(bounds))
	}
	for i, b := range bounds {
		if v <= b {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.n++
	if v > h.max {
		h.max = v
	}
}

// quantile estimates the q-quantile (0..1) from the bucket counts,
// attributing each bucket's mass to its upper bound; overflow mass
// reports the observed max.
func (h *hist) quantile(bounds []float64, q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if rank < cum {
			return bounds[i]
		}
	}
	return h.max
}

// Default histogram bounds: latency is LatencyBoundsMs, rows and bytes
// cover point lookups through full scans.
var (
	defaultRowsBounds  = []float64{1, 10, 100, 1000, 10000, 100000, 1000000}
	defaultBytesBounds = []float64{1 << 10, 16 << 10, 256 << 10, 1 << 20, 16 << 20, 256 << 20}
)

// NewShapeRegistry builds a registry bounded to capacity shapes
// (minimum 1; a non-positive capacity defaults to 256).
func NewShapeRegistry(capacity int) *ShapeRegistry {
	if capacity <= 0 {
		capacity = 256
	}
	return &ShapeRegistry{
		capacity:    capacity,
		entries:     make(map[string]*shapeEntry, capacity),
		order:       list.New(),
		rowsBounds:  defaultRowsBounds,
		bytesBounds: defaultBytesBounds,
	}
}

// Declare adds the registry's own series — shapes tracked, the LRU
// bound, evictions — to reg.
func (r *ShapeRegistry) Declare(reg *Registry) {
	reg.Gauge("rdf_shapes_tracked", "workload.shapes_tracked",
		"Distinct query shapes currently retained in the fingerprint registry.",
		func() float64 { return float64(r.Len()) })
	reg.Gauge("", "workload.shape_capacity", "", func() float64 { return float64(r.capacity) })
	reg.Counter("rdf_shape_evictions_total", "workload.shape_evictions",
		"Query shapes evicted by the registry's LRU bound.", &r.evictions)
}

// Observe folds one request into its shape entry, creating (and if
// necessary evicting) as needed. Samples without a fingerprint are
// dropped — they never reached query compilation.
func (r *ShapeRegistry) Observe(s ShapeSample) {
	if s.Fingerprint == "" {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[s.Fingerprint]
	if e == nil {
		for len(r.entries) >= r.capacity {
			back := r.order.Back()
			victim := back.Value.(*shapeEntry)
			r.order.Remove(back)
			delete(r.entries, victim.Fingerprint)
			r.evictions.Add(1)
		}
		e = &shapeEntry{ShapeStat: ShapeStat{
			Fingerprint: s.Fingerprint,
			Class:       s.Class,
			Example:     truncate(s.Example, 400),
			FirstSeen:   now,
			Routes:      make(map[string]uint64, 2),
		}}
		e.elem = r.order.PushFront(e)
		r.entries[s.Fingerprint] = e
	} else {
		r.order.MoveToFront(e.elem)
	}
	e.LastSeen = now
	e.Count++
	if s.Err {
		e.Errors++
	}
	if s.CacheHit {
		e.CacheHits++
	}
	if s.Shed {
		e.Sheds++
	}
	if s.Sampled {
		e.Sampled++
	}
	e.Hedges += uint64(s.Hedges)
	if s.Rows > 0 {
		e.RowsTotal += uint64(s.Rows)
	}
	if s.Bytes > 0 {
		e.BytesTotal += uint64(s.Bytes)
	}
	if s.Route != "" {
		e.Routes[s.Route]++
	}
	e.latency.observe(LatencyBoundsMs[:], s.DurationMs)
	e.rows.observe(r.rowsBounds, float64(s.Rows))
	e.bytesUsage.observe(r.bytesBounds, float64(s.Bytes))
}

// ShapeStat is a point-in-time snapshot of one shape entry.
type ShapeStat struct {
	Fingerprint  string            `json:"fingerprint"`
	Class        string            `json:"class"`
	Example      string            `json:"example"`
	Count        uint64            `json:"count"`
	Errors       uint64            `json:"errors"`
	CacheHits    uint64            `json:"cache_hits"`
	Sheds        uint64            `json:"sheds"`
	Hedges       uint64            `json:"hedges"`
	Sampled      uint64            `json:"sampled_traces"`
	RowsTotal    uint64            `json:"rows_total"`
	BytesTotal   uint64            `json:"bytes_total"`
	Routes       map[string]uint64 `json:"routes"`
	LatencyP50Ms float64           `json:"latency_p50_ms"`
	LatencyP95Ms float64           `json:"latency_p95_ms"`
	LatencyP99Ms float64           `json:"latency_p99_ms"`
	LatencyMaxMs float64           `json:"latency_max_ms"`
	MeanRows     float64           `json:"mean_rows"`
	FirstSeen    time.Time         `json:"first_seen"`
	LastSeen     time.Time         `json:"last_seen"`
}

// snapshotEntry copies e's aggregates and fills in what is derived
// from them. Called with r.mu held.
func snapshotEntry(e *shapeEntry) ShapeStat {
	st := e.ShapeStat
	st.Routes = maps.Clone(e.Routes)
	st.LatencyP50Ms = e.latency.quantile(LatencyBoundsMs[:], 0.50)
	st.LatencyP95Ms = e.latency.quantile(LatencyBoundsMs[:], 0.95)
	st.LatencyP99Ms = e.latency.quantile(LatencyBoundsMs[:], 0.99)
	st.LatencyMaxMs = e.latency.max
	if e.Count > 0 {
		st.MeanRows = float64(e.RowsTotal) / float64(e.Count)
	}
	return st
}

// TopK returns up to k shape entries ranked by request count
// (descending), ties broken by fingerprint for deterministic output.
// k <= 0 returns every retained shape.
func (r *ShapeRegistry) TopK(k int) []ShapeStat {
	r.mu.Lock()
	stats := make([]ShapeStat, 0, len(r.entries))
	for _, e := range r.entries {
		stats = append(stats, snapshotEntry(e))
	}
	r.mu.Unlock()
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Count != stats[j].Count {
			return stats[i].Count > stats[j].Count
		}
		return stats[i].Fingerprint < stats[j].Fingerprint
	})
	if k > 0 && len(stats) > k {
		stats = stats[:k]
	}
	return stats
}

// Len returns the number of shapes currently retained.
func (r *ShapeRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Capacity returns the configured LRU bound.
func (r *ShapeRegistry) Capacity() int { return r.capacity }

// Evictions returns the number of shapes dropped by the LRU bound.
func (r *ShapeRegistry) Evictions() uint64 { return r.evictions.Load() }

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
