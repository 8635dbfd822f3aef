package server

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4), rendered by obs.MetricsWriter without a
// client library: every series declareMetrics gave a family name, plus
// the two labeled vectors whose sample sets change at run time —
// per-replica health and the per-shape heavy hitters. Families are
// prefixed rdf_; cumulative counters end in _total.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mw := &obs.MetricsWriter{}
	s.reg.WriteMetrics(mw)
	s.writeReplicaMetrics(mw)
	s.writeShapeMetrics(mw)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(mw.Bytes())
}

// writeReplicaMetrics renders per-replica health as labeled series:
// latency EWMA and decayed error rate, each labeled {shard,replica}.
func (s *Server) writeReplicaMetrics(mw *obs.MetricsWriter) {
	infos := s.set.Health.Snapshot()
	if len(infos) == 0 {
		return
	}
	ewma := make([]obs.Sample, 0, len(infos))
	errRate := make([]obs.Sample, 0, len(infos))
	for _, ri := range infos {
		labels := []obs.Label{
			{Name: "shard", Value: strconv.Itoa(ri.Shard)},
			{Name: "replica", Value: strconv.Itoa(ri.Replica)},
		}
		ewma = append(ewma, obs.Sample{Labels: labels, Value: ri.LatencyEwmaMs})
		errRate = append(errRate, obs.Sample{Labels: labels, Value: ri.ErrorRate})
	}
	mw.GaugeVec("rdf_replica_latency_ewma_ms", "Replica successful-attempt latency EWMA, milliseconds (0 never answered).", ewma)
	mw.GaugeVec("rdf_replica_error_rate", "Replica decayed failure rate in [0, 1].", errRate)
}

// shapeMetricsTopK bounds the per-shape labeled series on /metrics to
// the heavy hitters; the full registry stays available at
// /debug/shapes. Without the bound a high-cardinality workload would
// bloat every scrape.
const shapeMetricsTopK = 20

// writeShapeMetrics renders the plan-fingerprint registry's heavy
// hitters as labeled series keyed {fingerprint,class}.
func (s *Server) writeShapeMetrics(mw *obs.MetricsWriter) {
	top := s.shapes.TopK(shapeMetricsTopK)
	if len(top) == 0 {
		return
	}
	queries := make([]obs.Sample, 0, len(top))
	errs := make([]obs.Sample, 0, len(top))
	hits := make([]obs.Sample, 0, len(top))
	p95 := make([]obs.Sample, 0, len(top))
	for _, st := range top {
		labels := []obs.Label{
			{Name: "fingerprint", Value: st.Fingerprint},
			{Name: "class", Value: st.Class},
		}
		queries = append(queries, obs.Sample{Labels: labels, Value: float64(st.Count)})
		errs = append(errs, obs.Sample{Labels: labels, Value: float64(st.Errors)})
		hits = append(hits, obs.Sample{Labels: labels, Value: float64(st.CacheHits)})
		p95 = append(p95, obs.Sample{Labels: labels, Value: st.LatencyP95Ms})
	}
	mw.CounterVec("rdf_shape_queries_total", "Requests observed per query shape (top shapes by count).", queries)
	mw.CounterVec("rdf_shape_errors_total", "Failed requests per query shape (top shapes by count).", errs)
	mw.CounterVec("rdf_shape_cache_hits_total", "Plan-cache hits per query shape (top shapes by count).", hits)
	mw.GaugeVec("rdf_shape_latency_p95_ms", "Estimated p95 end-to-end latency per query shape, milliseconds.", p95)
}
