package server

import (
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4): everything /stats tracks — query outcomes,
// plan cache, morsel execution, sharding, faults, resource governance —
// plus the per-stage latency histograms and a build-info gauge, all
// rendered by obs.MetricsWriter without a client library. Families are
// prefixed rdf_; cumulative counters end in _total.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mw := &obs.MetricsWriter{}

	served, failed, timeouts, rejected, _, _ := s.m.snapshot()
	mw.Counter("rdf_queries_served_total", "Queries answered successfully.", float64(served))
	mw.Counter("rdf_queries_failed_total", "Queries failed (parse or evaluation errors).", float64(failed))
	mw.Counter("rdf_query_timeouts_total", "Queries lost to deadlines or departed clients.", float64(timeouts))
	mw.Counter("rdf_queries_rejected_total", "Queries rejected by admission control.", float64(rejected))
	mw.Gauge("rdf_in_flight_queries", "Queries evaluating right now.", float64(s.m.inFlight.Load()))
	mw.Gauge("rdf_max_concurrent_queries", "Configured evaluation concurrency bound.", float64(s.cfg.MaxConcurrent))

	total, exec, serialize := s.m.histograms()
	mw.Histogram("rdf_query_duration_ms",
		"End-to-end latency of served queries (arrival to response complete), milliseconds.",
		latencyBucketsMs, total.buckets, total.totalSecs*1000)
	mw.Histogram("rdf_query_exec_ms",
		"Evaluation time of served queries, milliseconds.",
		latencyBucketsMs, exec.buckets, exec.totalSecs*1000)
	mw.Histogram("rdf_query_serialize_ms",
		"Response serialization time of served queries, milliseconds.",
		latencyBucketsMs, serialize.buckets, serialize.totalSecs*1000)

	hits, misses, size := s.cache.stats()
	mw.Counter("rdf_plan_cache_hits_total", "Prepared-plan cache hits.", float64(hits))
	mw.Counter("rdf_plan_cache_misses_total", "Prepared-plan cache misses.", float64(misses))
	mw.Gauge("rdf_plan_cache_entries", "Prepared plans cached right now.", float64(size))

	parallelQueries, parallelOps, morsels := s.m.execSnapshot()
	mw.Counter("rdf_parallel_queries_total", "Queries that split work into morsels.", float64(parallelQueries))
	mw.Counter("rdf_parallel_ops_total", "Parallel scans and probes executed.", float64(parallelOps))
	mw.Counter("rdf_morsels_dispatched_total", "Morsels dispatched to worker pools.", float64(morsels))

	res := s.m.resources()
	mw.Counter("rdf_shed_queries_total", "Queries shed immediately by admission control.", float64(res.shedQueries))
	mw.Counter("rdf_degraded_queries_total", "Queries admitted at reduced parallelism.", float64(res.degradedQueries))
	mw.Counter("rdf_budget_aborts_total", "Queries aborted by their memory budget.", float64(res.budgetAborts))
	mw.Counter("rdf_bytes_charged_total", "Bytes charged against per-query memory budgets.", float64(res.bytesCharged))
	mw.Gauge("rdf_peak_query_bytes", "Largest single query's budget charge.", float64(res.peakQueryBytes))

	fa := s.m.faults()
	mw.Counter("rdf_replica_attempts_total", "Shard replica execution attempts.", float64(fa.attempts))
	mw.Counter("rdf_replica_retries_total", "Retried replica attempts.", float64(fa.retries))
	mw.Counter("rdf_replica_failovers_total", "Failovers to another replica.", float64(fa.failovers))
	mw.Counter("rdf_hedges_total", "Hedged shard operations launched against a second replica.", float64(fa.hedges))
	mw.Counter("rdf_hedge_wins_total", "Hedged shard operations where the hedge finished first.", float64(fa.hedgeWins))
	mw.Counter("rdf_speculations_total", "Speculative morsel re-executions launched.", float64(fa.speculations))
	mw.Counter("rdf_speculation_wins_total", "Speculative morsel re-executions that finished first.", float64(fa.speculationWins))
	mw.Counter("rdf_recovered_panics_total", "Panics recovered in the engine and HTTP middleware.",
		float64(fa.enginePanics+fa.handlerPanics))
	mw.Counter("rdf_partial_failures_total", "Queries lost to total shard failure.", float64(fa.partialFailures))
	mw.Counter("rdf_oversize_results_total", "Queries aborted by the result-size guard.", float64(fa.oversizeAborts))

	if s.shards != nil {
		mw.Gauge("rdf_shards", "Shards in the sharded backend.", float64(s.shards.NumShards()))
		mw.Gauge("rdf_shard_replicas", "Replicas per shard.", float64(s.shards.Replicas()))
		pushdown, scatter, touched, pruned := s.m.shardSnapshot()
		mw.Counter("rdf_pushdown_queries_total", "Queries routed whole to subject-co-located shards.", float64(pushdown))
		mw.Counter("rdf_scatter_queries_total", "Queries routed scatter-gather.", float64(scatter))
		mw.Counter("rdf_shards_touched_total", "Shards scanned across all queries.", float64(touched))
		mw.Counter("rdf_shards_pruned_total", "Shard scans skipped by pruning.", float64(pruned))
		s.writeReplicaMetrics(mw)
	}
	s.writeShapeMetrics(mw)

	byFormat := func(json, tsv int64) []obs.Sample {
		return []obs.Sample{
			{Labels: []obs.Label{{Name: "format", Value: "json"}}, Value: float64(json)},
			{Labels: []obs.Label{{Name: "format", Value: "tsv"}}, Value: float64(tsv)},
		}
	}
	mw.GaugeVec("rdf_rendered_terms", "Dictionary terms whose rendered bytes the format's table holds.",
		byFormat(s.jsonTerms.stored.Load(), s.tsvTerms.stored.Load()))
	mw.GaugeVec("rdf_rendered_bytes", "Bytes of rendered terms the format's table holds.",
		byFormat(s.jsonTerms.bytes.Load(), s.tsvTerms.bytes.Load()))

	mw.Gauge("rdf_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	mw.GaugeL("rdf_build_info", "Build information; constant 1.",
		[]obs.Label{{Name: "go_version", Value: runtime.Version()}}, 1)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(mw.Bytes())
}

// writeReplicaMetrics renders per-replica health as labeled series:
// breaker state (0 closed, 1 half-open, 2 open), consecutive failures,
// trips, latency EWMA, and decayed error rate, each labeled
// {shard,replica}. Until this PR replica health was visible only in
// /stats JSON — a metrics scraper could not alert on a stuck breaker.
func (s *Server) writeReplicaMetrics(mw *obs.MetricsWriter) {
	h := s.shards.Set().Health
	if h == nil {
		return
	}
	infos := h.Snapshot()
	if len(infos) == 0 {
		return
	}
	state := make([]obs.Sample, 0, len(infos))
	consec := make([]obs.Sample, 0, len(infos))
	trips := make([]obs.Sample, 0, len(infos))
	ewma := make([]obs.Sample, 0, len(infos))
	errRate := make([]obs.Sample, 0, len(infos))
	for _, bi := range infos {
		labels := []obs.Label{
			{Name: "shard", Value: strconv.Itoa(bi.Shard)},
			{Name: "replica", Value: strconv.Itoa(bi.Replica)},
		}
		sv := 0.0
		switch bi.State {
		case "half-open":
			sv = 1
		case "open":
			sv = 2
		}
		state = append(state, obs.Sample{Labels: labels, Value: sv})
		consec = append(consec, obs.Sample{Labels: labels, Value: float64(bi.ConsecutiveFailures)})
		trips = append(trips, obs.Sample{Labels: labels, Value: float64(bi.Trips)})
		ewma = append(ewma, obs.Sample{Labels: labels, Value: bi.LatencyEwmaMs})
		errRate = append(errRate, obs.Sample{Labels: labels, Value: bi.ErrorRate})
	}
	mw.GaugeVec("rdf_replica_breaker_state", "Replica circuit-breaker state: 0 closed, 1 half-open, 2 open.", state)
	mw.GaugeVec("rdf_replica_consecutive_failures", "Consecutive failures recorded against the replica.", consec)
	mw.CounterVec("rdf_replica_breaker_trips_total", "Times the replica's breaker tripped open.", trips)
	mw.GaugeVec("rdf_replica_latency_ewma_ms", "Replica successful-attempt latency EWMA, milliseconds (0 unsampled).", ewma)
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
	mw.Gauge("rdf_shapes_tracked", "Distinct query shapes currently retained in the fingerprint registry.", float64(s.shapes.Len()))
	mw.Counter("rdf_shape_evictions_total", "Query shapes evicted by the registry's LRU bound.", float64(s.shapes.Evictions()))
	mw.Counter("rdf_sampled_traces_total", "Requests picked by the 1-in-N trace sampler.", float64(s.m.sampledSnapshot()))
	mw.Gauge("rdf_trace_ring_entries", "Completed traces retained for /debug/queries.", float64(s.ring.Len()))
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
