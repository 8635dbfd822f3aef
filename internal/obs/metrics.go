package obs

import (
	"strings"
	"sync/atomic"
	"time"
)

// LatencyBoundsMs is the one latency ladder: the upper bounds
// (inclusive, in milliseconds) of every latency histogram the server
// keeps — end to end, per stage and per shape. The final implicit
// bucket is +Inf.
var LatencyBoundsMs = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Counter is a cumulative count that only goes up. The zero value is
// ready; call sites move it directly and renderers read it, with no
// lock on either side.
type Counter struct{ n atomic.Uint64 }

func (c *Counter) Add(n uint64) { c.n.Add(n) }

func (c *Counter) Load() uint64 { return c.n.Load() }

// Histogram counts durations over LatencyBoundsMs. The zero value is
// ready. Buckets are atomic and the sum is kept in integer
// nanoseconds; the observation count is not stored but read as the sum
// of the buckets, so a scrape racing Observe is still
// cumulative-consistent (+Inf bucket == _count) — it can only trail the
// sum by the observations in flight.
type Histogram struct {
	buckets [len(LatencyBoundsMs) + 1]atomic.Uint64
	sumNs   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(LatencyBoundsMs) && ms > LatencyBoundsMs[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(int64(d))
}

// read returns the non-cumulative bucket counts (the last is +Inf),
// their total, and the sum in milliseconds.
func (h *Histogram) read() (counts []uint64, n uint64, sumMs float64) {
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	return counts, n, float64(h.sumNs.Load()) / float64(time.Millisecond)
}

// HistogramBucket is one row of a histogram in the /stats document.
type HistogramBucket struct {
	LeMs  float64 `json:"le_ms"` // upper bound; 0 means +Inf
	Count uint64  `json:"count"`
}

// Registry is the list of a server's series. Each series is declared
// by one call carrying its /metrics family, its dotted /stats path and
// its help text — an empty family keeps it out of /metrics, an empty
// path out of /stats — and both documents are rendered from the list in
// declaration order. Declare everything before serving: declaration is
// not synchronized, rendering only reads.
type Registry struct {
	series []series
}

// series is one declared line; exactly one of counter, hist and gauge
// is set.
type series struct {
	name, path, help string
	counter          *Counter
	hist             *Histogram
	gauge            func() float64
	labels           []Label
}

// Counter declares a cumulative counter.
func (r *Registry) Counter(name, path, help string, c *Counter) {
	r.series = append(r.series, series{name: name, path: path, help: help, counter: c})
}

// Gauge declares a value read at render time. Gauges declared in a row
// under one family name are that family's labeled samples (the help
// text of the first is the family's).
func (r *Registry) Gauge(name, path, help string, read func() float64, labels ...Label) {
	r.series = append(r.series, series{name: name, path: path, help: help, gauge: read, labels: labels})
}

// Histogram declares a latency histogram. In /stats it renders under
// its path as {"buckets": [...], "mean_ms": ...}.
func (r *Registry) Histogram(name, path, help string, h *Histogram) {
	r.series = append(r.series, series{name: name, path: path, help: help, hist: h})
}

// WriteMetrics renders every series that has a family name.
func (r *Registry) WriteMetrics(w *MetricsWriter) {
	for i := 0; i < len(r.series); i++ {
		s := &r.series[i]
		switch {
		case s.name == "":
		case s.counter != nil:
			w.Counter(s.name, s.help, float64(s.counter.Load()))
		case s.hist != nil:
			counts, _, sumMs := s.hist.read()
			w.Histogram(s.name, s.help, LatencyBoundsMs[:], counts, sumMs)
		default:
			samples := []Sample{{Labels: s.labels, Value: s.gauge()}}
			for ; i+1 < len(r.series) && r.series[i+1].name == s.name; i++ {
				next := &r.series[i+1]
				samples = append(samples, Sample{Labels: next.labels, Value: next.gauge()})
			}
			w.GaugeVec(s.name, s.help, samples)
		}
	}
}

// Stats renders every series that has a path as the nested /stats
// document. Each value is read on its own: the document is exact per
// series, not a snapshot across them.
func (r *Registry) Stats() map[string]any {
	doc := map[string]any{}
	for i := range r.series {
		s := &r.series[i]
		switch {
		case s.path == "":
		case s.counter != nil:
			SetPath(doc, s.path, s.counter.Load())
		case s.hist != nil:
			counts, n, sumMs := s.hist.read()
			buckets := make([]HistogramBucket, len(counts))
			for j, c := range counts {
				buckets[j].Count = c
				if j < len(LatencyBoundsMs) {
					buckets[j].LeMs = LatencyBoundsMs[j]
				}
			}
			meanMs := 0.0
			if n > 0 {
				meanMs = sumMs / float64(n)
			}
			SetPath(doc, s.path+".buckets", buckets)
			SetPath(doc, s.path+".mean_ms", meanMs)
		default:
			SetPath(doc, s.path, s.gauge())
		}
	}
	return doc
}

// SetPath stores v in doc at a dotted path, creating the objects on the
// way; it is how a /stats handler adds what is not a number to the
// document Stats returned.
func SetPath(doc map[string]any, path string, v any) {
	for {
		head, rest, nested := strings.Cut(path, ".")
		if !nested {
			doc[path] = v
			return
		}
		sub, ok := doc[head].(map[string]any)
		if !ok {
			sub = map[string]any{}
			doc[head] = sub
		}
		doc, path = sub, rest
	}
}
