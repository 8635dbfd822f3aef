// Package server turns the reproduction into what the survey says
// Spark RDF systems are for: a query-answering service. It serves the
// SPARQL protocol over HTTP against a shared read-only rdf.Graph
// snapshot, with a compile-once/run-many evaluator behind an LRU
// prepared-plan cache, bounded-concurrency admission control with
// per-query deadlines, and streaming result writers that decode each
// surviving row straight into the response.
//
// Concurrency model: the graph is loaded (and its encoded view and
// statistics warmed) before the server starts accepting queries, and is
// never mutated afterwards — every evaluator structure the requests
// share (dictionary-encoded view, cached stats, cached plans) is then
// safe for unlimited concurrent readers. Each request runs on its own
// goroutine with its own evaluation arena; the only cross-request
// synchronization is the plan-cache mutex, the admission semaphore and
// the shape registry's mutex (one fold per request that compiled). The
// counters are atomics moved in place.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/sparql"
)

// Config tunes the query service. The zero value gets sensible
// defaults from New.
type Config struct {
	// MaxConcurrent bounds the number of queries evaluating at once
	// (the worker pool). Excess queries wait for a slot until their
	// deadline and are rejected with 503 if none frees up. Default 8.
	MaxConcurrent int
	// DefaultTimeout is the per-query deadline when the client does not
	// pass one. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested timeout. Default 2m.
	MaxTimeout time.Duration
	// PlanCacheSize is the capacity of the prepared-plan LRU; negative
	// disables plan caching (every query re-parses). Default 256.
	PlanCacheSize int
	// QueryParallelism is a sharded backend's per-op shard fan-out
	// width: how many shards one shard operation of a query runs on at
	// once (sparql.WithParallelism). Default (0) is GOMAXPROCS; 1 runs
	// the shards one after another on the query's goroutine. A query on
	// one graph is serial whatever the width. Results are byte-identical
	// at every width.
	QueryParallelism int
	// MaxQueryBytes, when > 0, is the per-query memory budget: every
	// query runs under sparql.WithMemoryBudget(MaxQueryBytes) and one
	// that outgrows it aborts with a typed *sparql.BudgetError (HTTP
	// 413) before partial rows escape. The budget charges the row
	// arena, join state and gather buffers as they grow, so a query
	// that explodes mid-evaluation is cut off while evaluating, not
	// after. Default 0 (unlimited).
	MaxQueryBytes int64
	// MaxBodyBytes caps the request body a POST may carry (enforced
	// with http.MaxBytesReader; over-limit requests get 413). Default
	// (0) is 1 MiB; negative disables the cap.
	MaxBodyBytes int64
	// MaxQueue bounds how many queries may wait for a worker slot
	// before admission sheds new arrivals with an immediate 503 (no
	// deadline burn); expensive queries are shed from half that depth
	// (see admission). Default (0) is 4×MaxConcurrent; negative
	// disables admission control entirely, restoring
	// wait-until-deadline queueing.
	MaxQueue int
	// CostShedThreshold is the planner cost estimate
	// (Prepared.EstimateCost) above which a query counts as expensive
	// for admission: expensive queries are shed under heavy load.
	// Default (0) is 4× the dataset's triple count; negative disables
	// cost-aware decisions (only queue depth sheds).
	CostShedThreshold int64
	// HedgeDelay, when > 0, arms hedged shard operations on sharded
	// backends with replicas: a per-shard op that outlives the delay
	// races a second attempt on the next-best replica, first success
	// wins. Default 0 (no hedging).
	HedgeDelay time.Duration
	// FaultPlan, when set, is installed on every query's context and
	// consulted at the engine's fault points (internal/fault) — the
	// chaos-testing hook behind rdfserve's -chaos-fail-replica flag.
	// Results under an armed plan stay byte-identical as long as at
	// least one replica of every needed shard survives.
	FaultPlan *fault.Plan
	// SlowQueryThreshold, when > 0, arms the slow-query log: every
	// query runs traced (sparql.WithTrace), and one whose end-to-end
	// latency — arrival to response write complete — reaches the
	// threshold is recorded as one JSON line on SlowQueryLog, keyed by
	// request id and query hash with its top-3 spans by self time.
	// Default 0 (disabled; queries keep the untraced fast path).
	SlowQueryThreshold time.Duration
	// SlowQueryLog is the slow-query log destination. Default (nil) is
	// os.Stderr.
	SlowQueryLog io.Writer
	// TraceSampleRate, when > 0, arms always-on sampled tracing: one in
	// every TraceSampleRate queries runs traced (deterministically, off
	// the server's request counter — request N is sampled when N is a
	// multiple of the rate) and its completed span tree is retained in
	// the trace ring behind GET /debug/queries. Sampling changes nothing
	// observable about the response — a sampled body is byte-identical
	// to an untraced one — and unsampled queries keep the evaluator's
	// one-nil-check fast path. Default 0 (disabled).
	TraceSampleRate int
	// TraceRingSize bounds how many completed traces (sampled, slow, or
	// EXPLAIN ANALYZE) the server retains for /debug/queries; the newest
	// trace evicts the oldest. Default (0) is 64.
	TraceRingSize int
	// MaxShapes bounds the plan-fingerprint registry: at most this many
	// distinct query shapes keep aggregates at once, LRU-evicted beyond
	// that. Default (0) is 512.
	MaxShapes int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 8
	}
	if c.QueryParallelism <= 0 {
		c.QueryParallelism = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 64
	}
	if c.MaxShapes <= 0 {
		c.MaxShapes = 512
	}
	return c
}

// Server is the SPARQL query service. Create it with New, mount
// Handler (or the Server itself) on an http.Server, and keep the graph
// read-only for the server's lifetime.
type Server struct {
	// set is the backend every query runs over: one graph's GraphSet, or
	// a sharded graph's set (pushdown or scatter-gather).
	set   *sparql.ShardSet
	cfg   Config
	cache *planCache
	sem   chan struct{}
	mux   *http.ServeMux

	// m holds the series the request path moves; reg is the list they
	// (and every other number /stats and /metrics render) are declared
	// in, by declareMetrics, once the backend is known.
	m   metrics
	reg obs.Registry

	// shards, on a sharded backend, is the graph set came from; /stats
	// and /metrics render its sharding block.
	shards *shard.ShardedGraph

	// admit is the cost-aware admission controller (admit.go); nil
	// when Config.MaxQueue is negative. costThreshold is the resolved
	// CostShedThreshold (0 disables cost-aware decisions).
	admit         *admission
	costThreshold int64

	// slowLog, when set, receives one JSON line per query slower than
	// Config.SlowQueryThreshold; its presence arms tracing on every
	// query.
	slowLog *obs.SlowQueryLogger

	// Workload observatory: shapes aggregates served queries by plan
	// fingerprint, ring retains recently traced span trees, and
	// reqCount drives deterministic 1-in-N trace sampling.
	shapes   *obs.ShapeRegistry
	ring     *obs.TraceRing
	reqCount atomic.Uint64

	// jsonTerms and tsvTerms hold the bytes each dictionary term renders
	// to in that response format (terms.go), sized to the backend's one
	// dictionary and filled as responses first render a term.
	jsonTerms, tsvTerms *termTable

	started time.Time
}

// New builds a server answering queries over g with the reference
// evaluator. The graph's encoded view and statistics are warmed
// eagerly (GraphSet) so the first request pays no lazy-initialization
// cost and the shared structures are immutable from here on.
func New(g *rdf.Graph, cfg Config) *Server { return newServer(sparql.GraphSet(g), nil, cfg) }

// NewSharded builds a server answering queries over a sharded graph
// with the distributed evaluator: subject-star queries push down whole
// to subject-co-located shards, everything else runs scatter-gather
// with shard pruning, and results are byte-identical to single-graph
// serving. The ShardedGraph is warmed at build time and must stay
// read-only for the server's lifetime.
func NewSharded(sg *shard.ShardedGraph, cfg Config) *Server { return newServer(sg.Set(), sg, cfg) }

// newServer is the one constructor body: the server over set, with sg
// the sharded graph set came from (nil for one graph).
func newServer(set *sparql.ShardSet, sg *shard.ShardedGraph, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		set:     set,
		shards:  sg,
		cfg:     cfg,
		cache:   newPlanCache(cfg.PlanCacheSize),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	if cfg.MaxQueue > 0 {
		s.admit = newAdmission(cfg.MaxQueue)
	}
	if cfg.SlowQueryThreshold > 0 {
		out := cfg.SlowQueryLog
		if out == nil {
			out = os.Stderr
		}
		s.slowLog = obs.NewSlowQueryLogger(out)
	}
	s.shapes = obs.NewShapeRegistry(cfg.MaxShapes)
	s.ring = obs.NewTraceRing(cfg.TraceRingSize)
	s.mux.HandleFunc("/sparql", s.handleSPARQL)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("/debug/queries/", s.handleDebugQueries)
	s.mux.HandleFunc("/debug/shapes", s.handleDebugShapes)
	s.mux.HandleFunc("/debug/dash", s.handleDebugDash)
	// The expensive-query bound: an explicit configuration wins, the
	// default is 4× the triple count — a connected query's estimate is
	// bounded by its scans' candidate sums, so only cartesian-shaped
	// plans clear it — and a negative setting disables cost-aware
	// admission.
	switch {
	case cfg.CostShedThreshold > 0:
		s.costThreshold = cfg.CostShedThreshold
	case cfg.CostShedThreshold == 0:
		s.costThreshold = 4 * int64(set.Stats.Triples)
	}
	s.newTermTables(set.Dict.Len(), set.Stats.Triples)
	s.declareMetrics()
	return s
}

// Handler returns the root handler serving /sparql, /healthz, /stats,
// wrapped in the panic-recovery middleware.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.ServeHTTP) }

// ServeHTTP implements http.Handler. It stamps the per-request id and
// is the recovery middleware: a panicking handler (a real bug or an
// injected fault.PointServer crash) answers 500 and increments the
// recovered-panic counter — the process stays up and keeps serving.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Every request gets an id before anything can fail: a usable
	// inbound X-Request-ID survives (ids then correlate across
	// proxies), anything else is replaced with fresh random hex. The id
	// is echoed on every response — including error bodies — and keys
	// the slow-query log.
	id := requestIDFrom(r)
	r.Header.Set(requestIDHeader, id)
	w.Header().Set(requestIDHeader, id)
	defer func() {
		if rec := recover(); rec != nil {
			s.m.recoveredPanics.Add(1)
			s.m.failed.Add(1)
			// Best effort: if the handler already streamed part of a
			// body the status line is gone and this only ends the
			// response.
			http.Error(w, "internal server error (request "+id+")", http.StatusInternalServerError)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

const requestIDHeader = "X-Request-ID"

// requestIDFrom returns the inbound request id when it is usable (1-64
// characters from a conservative token alphabet) or a fresh random
// 16-hex-digit id otherwise.
func requestIDFrom(r *http.Request) string {
	if id := r.Header.Get(requestIDHeader); validRequestID(id) {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not worth failing a query over; a
		// constant id still marks the response as served by us.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts ids that are safe to echo into headers, error
// bodies, and JSON logs unescaped.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// requestID reads the id ServeHTTP stamped onto the request.
func requestID(r *http.Request) string { return r.Header.Get(requestIDHeader) }

// httpError answers like http.Error with the request id appended, so
// error responses correlate with proxy logs and the slow-query log.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, msg string, code int) {
	http.Error(w, msg+" (request "+requestID(r)+")", code)
}

// queryText extracts the query string per the SPARQL 1.1 protocol:
// GET ?query=, POST application/x-www-form-urlencoded query=, or POST
// application/sparql-query with the query as the body.
func queryText(r *http.Request) (string, error) {
	if r.Method == http.MethodGet {
		return r.URL.Query().Get("query"), nil
	}
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "application/sparql-query" {
		// The body is already wrapped in http.MaxBytesReader; an
		// over-limit read fails with *http.MaxBytesError (413).
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return "", err
		}
		return string(body), nil
	}
	if err := r.ParseForm(); err != nil {
		return "", err
	}
	return r.PostForm.Get("query"), nil
}

// param reads a protocol parameter from wherever the client put it:
// the URL query string or, for form POSTs, the request body. queryText
// has already consumed the body of application/sparql-query requests,
// so the lazy ParseForm here only sees the URL for those.
func param(r *http.Request, name string) string {
	if r.Form == nil {
		if r.ParseForm() != nil {
			return r.URL.Query().Get(name)
		}
	}
	return r.Form.Get(name)
}

// responseFormat picks the serialization: an explicit format= parameter
// wins, then the Accept header; JSON is the default.
func responseFormat(r *http.Request) string {
	switch param(r, "format") {
	case "json":
		return "json"
	case "tsv":
		return "tsv"
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "text/tab-separated-values") {
		return "tsv"
	}
	return "json"
}

// queryTimeout resolves the per-query deadline: an explicit timeout=
// duration parameter (capped at MaxTimeout) or the default.
func (s *Server) queryTimeout(r *http.Request) time.Duration {
	if t := param(r, "timeout"); t != "" {
		if d, err := time.ParseDuration(t); err == nil && d > 0 {
			if d > s.cfg.MaxTimeout {
				return s.cfg.MaxTimeout
			}
			return d
		}
	}
	return s.cfg.DefaultTimeout
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	// Latency accounting starts at arrival on the monotonic clock: the
	// served histogram spans parsing, admission queueing, evaluation,
	// and response streaming alike, so a query that was slow because
	// the server was busy reads as slow.
	arrival := time.Now()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		s.m.failed.Add(1)
		s.httpError(w, r, fmt.Sprintf("sparql: method %s not allowed", r.Method), http.StatusMethodNotAllowed)
		return
	}
	if r.Method == http.MethodPost && s.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	text, err := queryText(r)
	if err != nil { // unreadable body / malformed form
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.m.failed.Add(1)
			s.httpError(w, r, "sparql: request body exceeds the server cap", http.StatusRequestEntityTooLarge)
			return
		}
		s.m.failed.Add(1)
		s.httpError(w, r, "sparql: "+err.Error(), http.StatusBadRequest)
		return
	}
	if strings.TrimSpace(text) == "" {
		s.m.failed.Add(1)
		s.httpError(w, r, "sparql: missing query", http.StatusBadRequest)
		return
	}
	// Tracing is armed per request: always for EXPLAIN ANALYZE, for one
	// in every TraceSampleRate requests (deterministic off the request
	// counter, so a steady workload is sampled evenly), and on every
	// query when the slow-query log is on (the log's top-spans report
	// comes from the trace). Unarmed queries keep the evaluator's
	// one-nil-check fast path.
	explain := param(r, "explain") == "analyze"
	sampled := false
	if n := s.cfg.TraceSampleRate; n > 0 {
		sampled = s.reqCount.Add(1)%uint64(n) == 0
	}
	var tr *obs.Trace
	if explain || sampled || s.slowLog != nil {
		tr = obs.New("query")
	}
	if sampled {
		s.m.sampledTraces.Add(1)
	}
	var psp *obs.Span
	if tr != nil {
		psp = tr.Begin("parse")
	}
	prep, cached, err := s.cache.prepare(text)
	if tr != nil {
		if cached {
			psp.SetStr("plan_cache", "hit")
		} else {
			psp.SetStr("plan_cache", "miss")
		}
		tr.End(psp)
	}
	if err != nil {
		s.m.failed.Add(1)
		s.httpError(w, r, err.Error(), http.StatusBadRequest)
		return
	}

	// Workload accounting: every request that compiled folds into the
	// shape registry on the way out, whatever its fate — shed, rejected,
	// timed out, failed, or served — so the per-shape aggregates see the
	// workload the server actually faced, not just its successes. The
	// sample is an error until an exit says otherwise (served, EXPLAIN
	// answered, shed), so a panic unwinding through the fold, or an exit
	// added later, cannot be counted as a success.
	smp := obs.ShapeSample{
		Fingerprint: prep.Fingerprint(),
		Class:       sparql.ClassifyShape(prep.Query()).String(),
		Example:     text,
		CacheHit:    cached,
		Sampled:     sampled,
		Err:         true,
	}
	defer func() {
		smp.DurationMs = float64(time.Since(arrival)) / float64(time.Millisecond)
		s.shapes.Observe(smp)
	}()

	// The deadline covers queueing and evaluation alike: a query that
	// waited out its budget in the admission queue is rejected, and one
	// admitted late gets only the remainder for evaluation. Client
	// disconnects cancel through the same context.
	rctx := r.Context()
	if p := s.cfg.FaultPlan; p != nil {
		rctx = fault.With(rctx, p)
		// The server fault point: a panic here exercises the recovery
		// middleware, a delay holds the request in-flight (drain tests).
		if err := p.Hit(fault.PointServer); err != nil {
			s.m.failed.Add(1)
			s.httpError(w, r, "sparql: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	// Admission: decide this query's fate from the queue depth and its
	// cost estimate BEFORE arming the deadline, so a shed query answers
	// immediately instead of burning its timeout in a hopeless queue.
	if s.admit != nil {
		expensive := false
		if s.costThreshold > 0 {
			expensive = prep.EstimateCost(s.set) >= s.costThreshold
		}
		if s.admit.shed(int(s.admit.waiting.Add(1)), expensive) {
			s.admit.waiting.Add(-1)
			// A shed also counts as rejected: the client saw a 503
			// either way, shed marks the fast-fail path.
			s.m.shedQueries.Add(1)
			s.m.rejected.Add(1)
			smp.Shed, smp.Err = true, false
			s.httpError(w, r, "sparql: server overloaded, query shed", http.StatusServiceUnavailable)
			return
		}
	}
	ctx, cancel := context.WithTimeout(rctx, s.queryTimeout(r))
	defer cancel()
	select {
	case s.sem <- struct{}{}:
		if s.admit != nil {
			s.admit.waiting.Add(-1)
		}
		defer func() { <-s.sem }()
	case <-ctx.Done():
		if s.admit != nil {
			s.admit.waiting.Add(-1)
		}
		s.m.rejected.Add(1)
		s.httpError(w, r, "sparql: server at capacity", http.StatusServiceUnavailable)
		return
	}
	s.m.inFlight.Add(1)
	defer s.m.inFlight.Add(-1)

	execStart := time.Now()
	sol, info, err := s.eval(ctx, prep, tr)
	execDur := time.Since(execStart)
	smp.Route = info.route
	smp.Bytes = info.bytes
	smp.Hedges = int(info.hedges)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.m.timeouts.Add(1)
			s.httpError(w, r, "sparql: query deadline exceeded", http.StatusGatewayTimeout)
			return
		}
		if errors.Is(err, context.Canceled) {
			// Client went away; nobody is listening for a status.
			s.m.timeouts.Add(1)
			return
		}
		var pf *sparql.PartialFailureError
		if errors.As(err, &pf) {
			s.m.partialFailures.Add(1)
			s.m.failed.Add(1)
			s.httpError(w, r, "sparql: "+err.Error(), http.StatusBadGateway)
			return
		}
		var be *sparql.BudgetError
		if errors.As(err, &be) {
			s.m.budgetAborts.Add(1)
			s.m.failed.Add(1)
			s.httpError(w, r, be.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		s.m.failed.Add(1)
		s.httpError(w, r, err.Error(), http.StatusInternalServerError)
		return
	}

	rows := sol.Len()
	if sol.IsGraph() {
		rows = len(sol.Graph())
	}
	smp.Rows = rows

	if explain {
		// EXPLAIN ANALYZE: the query ran for real — the trace carries
		// actual row counts next to the planner's estimates — but the
		// response is the trace itself, not the result set.
		tr.Finish()
		if param(r, "format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, tr.Text())
		} else {
			w.Header().Set("Content-Type", "application/json")
			w.Write(append(tr.JSON(), '\n'))
		}
		total := time.Since(arrival)
		smp.Err = false
		s.m.observeServed(total, execDur, 0)
		s.retainTrace(r, text, prep, tr, info, total, explain, sampled)
		return
	}

	var ssp *obs.Span
	if tr != nil {
		ssp = tr.Begin("serialize")
	}
	serStart := time.Now()
	var werr error
	switch {
	case sol.IsGraph():
		w.Header().Set("Content-Type", "application/n-triples")
		werr = writeGraphResults(ctx, w, sol)
	case responseFormat(r) == "tsv":
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
		werr = writeTSVResults(ctx, w, sol, s.tsvTerms)
	default:
		w.Header().Set("Content-Type", "application/sparql-results+json")
		werr = writeJSONResults(ctx, w, sol, s.jsonTerms)
	}
	serDur := time.Since(serStart)
	if tr != nil {
		ssp.SetInt("rows", int64(rows))
		tr.End(ssp)
	}
	if werr != nil {
		// Headers are out; all we can do is stop streaming.
		s.m.timeouts.Add(1)
		return
	}
	total := time.Since(arrival)
	smp.Err = false
	s.m.observeServed(total, execDur, serDur)
	s.logSlowQuery(r, text, prep.Fingerprint(), tr, info, total)
	s.retainTrace(r, text, prep, tr, info, total, explain, sampled)
}

// retainTrace parks a finished request's span tree in the trace ring
// when something armed it worth keeping: an EXPLAIN ANALYZE run, a
// sampled request, or a query that crossed the slow threshold. (When
// only the slow-query log armed tracing, fast queries' traces are
// dropped — retaining every request would churn the ring into a plain
// recent-queries list.)
func (s *Server) retainTrace(r *http.Request, text string, prep *sparql.Prepared, tr *obs.Trace, info runInfo, total time.Duration, explain, sampled bool) {
	if tr == nil {
		return
	}
	var reason string
	switch {
	case explain:
		reason = "explain"
	case sampled:
		reason = "sampled"
	case s.slowLog != nil && total >= s.cfg.SlowQueryThreshold:
		reason = "slow"
	default:
		return
	}
	tr.Finish()
	s.ring.Add(obs.RetainedTrace{
		RequestID:   requestID(r),
		Fingerprint: prep.Fingerprint(),
		Query:       text,
		Route:       info.route,
		Reason:      reason,
		DurationMs:  float64(total) / float64(time.Millisecond),
		Status:      http.StatusOK,
		When:        time.Now(),
		Trace:       tr,
	})
}

// logSlowQuery records one served query in the slow-query log when the
// log is armed and the end-to-end latency reached the threshold.
func (s *Server) logSlowQuery(r *http.Request, text, fingerprint string, tr *obs.Trace, info runInfo, total time.Duration) {
	if s.slowLog == nil || total < s.cfg.SlowQueryThreshold {
		return
	}
	tr.Finish()
	s.slowLog.Log(obs.SlowQueryEntry{
		RequestID:       requestID(r),
		QueryHash:       obs.QueryHash(text),
		PlanFingerprint: fingerprint,
		Route:           info.route,
		Shards:          info.shards,
		ShardsTouched:   info.touched,
		Hedges:          info.hedges,
		DurationMs:      float64(total) / float64(time.Millisecond),
		TopSpans:        tr.TopSelf(3),
	})
}

// runInfo is the routing report eval hands back for the slow-query
// log: which route the query took and its shard fan-out.
type runInfo struct {
	route           string
	shards, touched int
	hedges          int64
	bytes           int64 // bytes charged against the memory budget
}

// eval runs one query over the backend, armed with the server's
// per-query memory budget, fan-out width and hedging (both inert on one
// graph) and, when tr is non-nil, execution tracing. One graph reports
// route "local".
func (s *Server) eval(ctx context.Context, prep *sparql.Prepared, tr *obs.Trace) (*sparql.Solutions, runInfo, error) {
	var rep struct { // the run's reports, one allocation for the three
		rs sparql.RunStats
		st sparql.ShardStats
		fs sparql.FaultStats
	}
	rs, st, fs := &rep.rs, &rep.st, &rep.fs
	opts := []sparql.RunOption{sparql.WithRunStats(rs), sparql.WithParallelism(s.cfg.QueryParallelism),
		sparql.WithShardStats(st), sparql.WithFaultStats(fs)}
	if s.cfg.MaxQueryBytes != 0 {
		opts = append(opts, sparql.WithMemoryBudget(s.cfg.MaxQueryBytes))
	}
	if tr != nil {
		opts = append(opts, sparql.WithTrace(tr))
	}
	if d := s.cfg.HedgeDelay; d > 0 {
		opts = append(opts, sparql.WithHedge(sparql.HedgePolicy{Delay: d}))
	}
	sol, err := prep.RunShardedSolutions(ctx, s.set, opts...)
	s.m.observeRun(*rs, *st, *fs)
	return sol, runInfo{
		route: string(st.Route), shards: st.Shards, touched: st.ShardsTouched,
		hedges: fs.Hedges, bytes: rs.BytesCharged,
	}, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"triples":        s.set.Stats.Triples,
		"uptime_seconds": int(time.Since(s.started).Seconds()),
	})
}

// handleStats serves GET /stats: every series declareMetrics gave a
// path, plus the parts of the document that are not numbers.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body := s.reg.Stats()
	if sg := s.shards; sg != nil {
		obs.SetPath(body, "sharding.partition", sg.Strategy())
		obs.SetPath(body, "sharding.subject_colocated", sg.SubjectColocated())
		if h := s.set.Health; h != nil {
			obs.SetPath(body, "faults.breaker_trips", h.Trips())
			obs.SetPath(body, "faults.breakers", h.Snapshot())
		}
	}
	obs.SetPath(body, "workload.top_shapes", s.shapes.TopK(10))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}
