package server

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sparql"
)

// metrics holds the server's operational series. Every field is a
// zero-value atomic that call sites move directly (s.m.failed.Add(1));
// declareMetrics is the one place each is given its /metrics family,
// its /stats path and its help text.
type metrics struct {
	inFlight atomic.Int64 // read on the hot path by admission

	// Queries by outcome. failed also takes every refusal and abort
	// that has a counter of its own below (budget, partial failure,
	// recovered handler panic); rejected also takes sheds.
	served, failed, timeouts, rejected obs.Counter

	// Latency of served queries: end to end (arrival to response write
	// complete), and its evaluation and serialization stages — split so
	// a query cheap to evaluate but expensive to stream shows.
	latency, exec, serialize obs.Histogram

	// Sharded execution (sparql.ShardStats): queries by route, shards
	// scanned and pruned.
	pushdownQueries, scatterQueries, shardsTouched, shardsPruned obs.Counter

	// Fault handling (sparql.FaultStats plus the server's own
	// recoveries): replica attempts, retries, failovers, panics
	// recovered in the engine and in the HTTP middleware, and queries
	// lost to total shard failure.
	attempts, retries, failovers obs.Counter
	recoveredPanics              obs.Counter
	partialFailures              obs.Counter

	// Resource governance: queries shed by admission control, queries
	// aborted by their memory budget, cumulative bytes charged against
	// budgets, and the largest single query's charge.
	shedQueries                obs.Counter
	budgetAborts, bytesCharged obs.Counter
	peakQueryBytes             atomic.Int64

	// Requests picked by the 1-in-N trace sampler
	// (Config.TraceSampleRate).
	sampledTraces obs.Counter
}

// declareMetrics declares every series the server renders, one line
// each, once the backend is known: the sharding block exists only on a
// sharded server and the queue block only with admission control on.
func (s *Server) declareMetrics() {
	r, m := &s.reg, &s.m
	num := func(v int64) func() float64 { return func() float64 { return float64(v) } }
	load := func(v *atomic.Int64) func() float64 { return func() float64 { return float64(v.Load()) } }

	r.Counter("rdf_queries_served_total", "served", "Queries answered successfully.", &m.served)
	r.Counter("rdf_queries_failed_total", "failed", "Queries refused or failed: malformed or oversized requests (400, 405, 413), evaluation errors, budget aborts, partial shard failures, recovered panics.", &m.failed)
	r.Counter("rdf_query_timeouts_total", "timeouts", "Queries lost to deadlines or departed clients.", &m.timeouts)
	r.Counter("rdf_queries_rejected_total", "rejected", "Queries rejected by admission control.", &m.rejected)
	r.Gauge("rdf_in_flight_queries", "in_flight", "Queries evaluating right now.", load(&m.inFlight))
	r.Gauge("rdf_max_concurrent_queries", "max_concurrent", "Configured evaluation concurrency bound.", num(int64(s.cfg.MaxConcurrent)))
	r.Histogram("rdf_query_duration_ms", "latency", "End-to-end latency of served queries (arrival to response complete), milliseconds.", &m.latency)
	r.Histogram("rdf_query_exec_ms", "latency.exec_ms", "Evaluation time of served queries, milliseconds.", &m.exec)
	r.Histogram("rdf_query_serialize_ms", "latency.serialize_ms", "Response serialization time of served queries, milliseconds.", &m.serialize)

	r.Counter("rdf_plan_cache_hits_total", "plan_cache.hits", "Prepared-plan cache hits.", &s.cache.hits)
	r.Counter("rdf_plan_cache_misses_total", "plan_cache.misses", "Prepared-plan cache misses.", &s.cache.misses)
	r.Gauge("rdf_plan_cache_entries", "plan_cache.size", "Prepared plans cached right now.", func() float64 { _, _, size := s.cache.stats(); return float64(size) })
	r.Gauge("", "plan_cache.capacity", "", num(int64(s.cfg.PlanCacheSize)))

	r.Gauge("", "execution.query_parallelism", "", num(int64(s.cfg.QueryParallelism)))

	r.Gauge("", "resources.max_query_bytes", "", num(s.cfg.MaxQueryBytes))
	r.Counter("rdf_shed_queries_total", "resources.shed_queries", "Queries shed immediately by admission control.", &m.shedQueries)
	r.Counter("rdf_budget_aborts_total", "resources.budget_aborts", "Queries aborted by their memory budget.", &m.budgetAborts)
	r.Counter("rdf_bytes_charged_total", "resources.bytes_charged", "Bytes charged against per-query memory budgets.", &m.bytesCharged)
	r.Gauge("rdf_peak_query_bytes", "resources.peak_query_bytes", "Largest single query's budget charge.", load(&m.peakQueryBytes))
	if s.admit != nil {
		r.Gauge("", "resources.queue_depth", "", load(&s.admit.waiting))
		r.Gauge("", "resources.queue_capacity", "", num(int64(s.admit.maxQueue)))
		r.Gauge("", "resources.cost_shed_threshold", "", num(s.costThreshold))
	}

	r.Counter("rdf_replica_attempts_total", "faults.attempts", "Shard replica execution attempts.", &m.attempts)
	r.Counter("rdf_replica_retries_total", "faults.retries", "Retried replica attempts.", &m.retries)
	r.Counter("rdf_replica_failovers_total", "faults.failovers", "Failovers to another replica.", &m.failovers)
	r.Counter("rdf_recovered_panics_total", "faults.recovered_panics", "Panics recovered in the engine and HTTP middleware.", &m.recoveredPanics)
	r.Counter("rdf_partial_failures_total", "faults.partial_failures", "Queries lost to total shard failure.", &m.partialFailures)

	if sg := s.shards; sg != nil {
		r.Gauge("rdf_shards", "sharding.shards", "Shards in the sharded backend.", num(int64(sg.NumShards())))
		r.Gauge("rdf_shard_replicas", "sharding.replicas", "Replicas per shard.", num(int64(sg.Replicas())))
		r.Counter("rdf_pushdown_queries_total", "sharding.pushdown_queries", "Queries routed whole to subject-co-located shards.", &m.pushdownQueries)
		r.Counter("rdf_scatter_queries_total", "sharding.scatter_queries", "Queries routed scatter-gather.", &m.scatterQueries)
		r.Counter("rdf_shards_touched_total", "sharding.shards_touched", "Shards scanned across all queries.", &m.shardsTouched)
		r.Counter("rdf_shards_pruned_total", "sharding.shards_pruned", "Shard scans skipped by pruning.", &m.shardsPruned)
	}

	// The rendered-term tables' own counters, one sample per format.
	byFormat := func(name, path, help string, json, tsv *atomic.Int64) {
		r.Gauge(name, path+".json", help, load(json), obs.Label{Name: "format", Value: "json"})
		r.Gauge(name, path+".tsv", help, load(tsv), obs.Label{Name: "format", Value: "tsv"})
	}
	byFormat("rdf_rendered_terms", "rendered_terms", "Dictionary terms whose rendered bytes the format's table holds.", &s.jsonTerms.stored, &s.tsvTerms.stored)
	byFormat("rdf_rendered_bytes", "rendered_bytes", "Bytes of rendered terms the format's table holds.", &s.jsonTerms.bytes, &s.tsvTerms.bytes)

	s.shapes.Declare(r)
	r.Gauge("", "workload.trace_sample_rate", "", num(int64(s.cfg.TraceSampleRate)))
	r.Counter("rdf_sampled_traces_total", "workload.sampled_traces", "Requests picked by the 1-in-N trace sampler.", &m.sampledTraces)
	r.Gauge("rdf_trace_ring_entries", "workload.trace_ring.size", "Completed traces retained for /debug/queries.", func() float64 { return float64(s.ring.Len()) })
	r.Gauge("", "workload.trace_ring.capacity", "", num(int64(s.ring.Cap())))

	r.Gauge("rdf_uptime_seconds", "", "Seconds since the server started.", func() float64 { return time.Since(s.started).Seconds() })
	r.Gauge("rdf_build_info", "", "Build information; constant 1.", num(1), obs.Label{Name: "go_version", Value: runtime.Version()})
}

// observeServed records one successfully served query: its end-to-end
// latency (request arrival to response write complete) and the
// evaluation and serialization stages inside it.
func (m *metrics) observeServed(total, exec, serialize time.Duration) {
	m.served.Add(1)
	m.latency.Observe(total)
	m.exec.Observe(exec)
	m.serialize.Observe(serialize)
}

// observeRun folds one query's execution reports into the counters. A
// report the run left at zero (no budget armed, not a sharded run, no
// fault activity) moves nothing.
func (m *metrics) observeRun(rs sparql.RunStats, st sparql.ShardStats, fs sparql.FaultStats) {
	if n := rs.BytesCharged; n > 0 {
		m.bytesCharged.Add(uint64(n))
		for {
			peak := m.peakQueryBytes.Load()
			if n <= peak || m.peakQueryBytes.CompareAndSwap(peak, n) {
				break
			}
		}
	}
	if st.Shards > 0 {
		if st.Route == sparql.RoutePushdown {
			m.pushdownQueries.Add(1)
		} else {
			m.scatterQueries.Add(1)
		}
		m.shardsTouched.Add(uint64(st.ShardsTouched))
		m.shardsPruned.Add(uint64(st.ShardsPruned))
	}
	if fs.Attempts != 0 || fs.Retries != 0 || fs.RecoveredPanics != 0 {
		m.attempts.Add(uint64(fs.Attempts))
		m.retries.Add(uint64(fs.Retries))
		m.failovers.Add(uint64(fs.Failovers))
		m.recoveredPanics.Add(uint64(fs.RecoveredPanics))
	}
}
