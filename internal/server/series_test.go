package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rdf"
	"repro/internal/shard"
)

// get serves one GET through the full handler.
func get(s *Server, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// statsLeaves fetches /stats and flattens it to dotted leaf paths.
// Arrays are leaves (their elements are rows, not series).
func statsLeaves(t *testing.T, s *Server) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(get(s, "/stats").Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid /stats JSON: %v", err)
	}
	leaves := map[string]any{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			leaves[prefix] = v
			return
		}
		for k, sub := range obj {
			if prefix != "" {
				k = prefix + "." + k
			}
			walk(k, sub)
		}
	}
	walk("", doc)
	return leaves
}

// bucketTotal sums the counts of a /stats histogram's buckets leaf.
func bucketTotal(t *testing.T, leaf any) float64 {
	t.Helper()
	rows, ok := leaf.([]any)
	if !ok {
		t.Fatalf("buckets leaf is %T, want an array", leaf)
	}
	total := 0.0
	for _, row := range rows {
		total += row.(map[string]any)["count"].(float64)
	}
	return total
}

// statsNumbers reduces /stats to what a request can move: every numeric
// leaf, with each histogram folded to <path>.count (the sum of its
// buckets) and its mean — a timing — dropped. The rendered-term gauges
// are dropped too: they are the fill state of the term tables, which
// terms_test pins, not the outcome of a request.
func statsNumbers(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	nums := map[string]float64{}
	for path, v := range statsLeaves(t, s) {
		switch {
		case strings.HasPrefix(path, "rendered_"), strings.HasSuffix(path, ".mean_ms"):
		case strings.HasSuffix(path, ".buckets"):
			nums[strings.TrimSuffix(path, "buckets")+"count"] = bucketTotal(t, v)
		default:
			if n, ok := v.(float64); ok {
				nums[path] = n
			}
		}
	}
	return nums
}

// shapeTotals sums count, errors and sheds over every tracked shape.
func shapeTotals(s *Server) (n [3]uint64) {
	for _, st := range s.shapes.TopK(0) {
		n[0] += st.Count
		n[1] += st.Errors
		n[2] += st.Sheds
	}
	return n
}

// TestEveryExit is the test form of doc.go's "HTTP maps them to
// 504/413/500/502/413; shed answers 503": for each way a /sparql
// request can end it pins the status, exactly which /stats numbers
// moved and by how much (nothing else may move), and what the request
// did to its shape's count / errors / sheds. The server-fault and
// handler-panic rows are the ones that read errors 0 before the shape
// sample defaulted to an error; the handler-panic and evaluator-panic
// rows hold the isolation the deleted morsel retry tests held: a
// panicking evaluation answers 500 and the process keeps serving.
func TestEveryExit(t *testing.T) {
	const (
		name      = `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`
		small     = name + ` LIMIT 2`
		cartesian = `SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/q> ?y }`
		some      = -1 // moved up by a data-dependent amount
	)
	type moved = map[string]float64
	// What any request that compiles a new query text moves, and what a
	// served one adds to that.
	compiled := moved{"plan_cache.misses": 1, "plan_cache.size": 1, "workload.shapes_tracked": 1}
	served := moved{"served": 1, "latency.count": 1, "latency.exec_ms.count": 1, "latency.serialize_ms.count": 1}
	with := func(ms ...moved) moved {
		out := moved{}
		for _, m := range ms {
			for k, v := range m {
				out[k] = v
			}
		}
		return out
	}
	single := func(g *rdf.Graph, cfg Config) func(*testing.T) *Server {
		return func(*testing.T) *Server { return New(g, cfg) }
	}
	allReplicasDown := func(t *testing.T) *Server {
		sg, err := shard.BuildReplicatedByName(testGraph().Triples(), "hash-subject", 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		plan := fault.NewPlan(1)
		for r := 0; r < 2; r++ {
			for sh := 0; sh < 3; sh++ {
				plan.FailAlways(fault.ReplicaPoint(sh, r))
			}
		}
		return NewSharded(sg, Config{FaultPlan: plan})
	}
	// wedged fills the one worker slot and, with queued > 0, parks that
	// many requests in the admission queue behind it; the returned func
	// frees the slot and waits for them.
	wedged := func(queued int) func(*testing.T, *Server) func() {
		return func(t *testing.T, s *Server) func() {
			s.sem <- struct{}{}
			var wg sync.WaitGroup
			for i := 0; i < queued; i++ {
				wg.Add(1)
				go func() { defer wg.Done(); getQuery(t, s, small, "&timeout=30s", nil) }()
			}
			waitFor(t, func() bool { return int(s.admit.waiting.Load()) == queued })
			return func() { <-s.sem; wg.Wait() }
		}
	}
	sparqlGet := func(query, extra string) func(*testing.T, *Server) *httptest.ResponseRecorder {
		return func(t *testing.T, s *Server) *httptest.ResponseRecorder { return getQuery(t, s, query, extra, nil) }
	}

	cases := []struct {
		name   string
		server func(*testing.T) *Server
		arm    func(*testing.T, *Server) (release func())
		do     func(*testing.T, *Server) *httptest.ResponseRecorder
		status int
		moved  moved
		shape  [3]uint64 // count, errors, sheds
	}{
		{name: "served", server: single(testGraph(), Config{}), do: sparqlGet(small, ""),
			status: 200, moved: with(compiled, served), shape: [3]uint64{1, 0, 0}},
		{name: "explain", server: single(testGraph(), Config{}), do: sparqlGet(small, "&explain=analyze"),
			status: 200, moved: with(compiled, served, moved{"workload.trace_ring.size": 1}), shape: [3]uint64{1, 0, 0}},
		{name: "method not allowed", server: single(testGraph(), Config{}),
			do: func(t *testing.T, s *Server) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/sparql", strings.NewReader(small)))
				return rec
			},
			status: 405, moved: moved{"failed": 1}},
		{name: "empty query", server: single(testGraph(), Config{}), do: sparqlGet(" ", ""),
			status: 400, moved: moved{"failed": 1}},
		{name: "parse error", server: single(testGraph(), Config{}), do: sparqlGet("NOT SPARQL", ""),
			status: 400, moved: moved{"failed": 1, "plan_cache.misses": 1}},
		{name: "body over cap", server: single(testGraph(), Config{MaxBodyBytes: 64}),
			do: func(t *testing.T, s *Server) *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(small+" # "+strings.Repeat("x", 128)))
				req.Header.Set("Content-Type", "application/sparql-query")
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				return rec
			},
			status: 413, moved: moved{"failed": 1}},
		{name: "shed", server: single(testGraph(), Config{MaxConcurrent: 1, MaxQueue: 1}), arm: wedged(1),
			do:     sparqlGet(small, "&timeout=30s"),
			status: 503, moved: moved{"resources.shed_queries": 1, "rejected": 1, "plan_cache.hits": 1, "workload.shapes_tracked": 1}, shape: [3]uint64{1, 0, 1}},
		{name: "rejected at capacity", server: single(testGraph(), Config{MaxConcurrent: 1}), arm: wedged(0),
			do:     sparqlGet(small, "&timeout=30ms"),
			status: 503, moved: with(compiled, moved{"rejected": 1}), shape: [3]uint64{1, 1, 0}},
		{name: "deadline", server: single(cartesianGraph(4096), Config{DefaultTimeout: 20 * time.Millisecond, QueryParallelism: 1}),
			do:     sparqlGet(cartesian, ""),
			status: 504, moved: with(compiled, moved{"timeouts": 1}), shape: [3]uint64{1, 1, 0}},
		{name: "budget abort", server: single(cartesianGraph(512), Config{MaxQueryBytes: 32 << 10, QueryParallelism: 1}),
			do:     sparqlGet(cartesian, ""),
			status: 413, shape: [3]uint64{1, 1, 0},
			moved: with(compiled, moved{"resources.budget_aborts": 1, "failed": 1,
				"resources.bytes_charged": some, "resources.peak_query_bytes": some})},
		{name: "partial failure", server: allReplicasDown, do: sparqlGet(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, ""),
			status: 502, shape: [3]uint64{1, 1, 0},
			moved: with(compiled, moved{"faults.partial_failures": 1, "failed": 1, "sharding.pushdown_queries": 1, "sharding.shards_touched": 3,
				"faults.attempts": some, "faults.retries": some, "faults.failovers": some})},
		{name: "server fault", do: sparqlGet(small, ""),
			server: single(testGraph(), Config{FaultPlan: fault.NewPlan(1).FailNext(fault.PointServer, 1)}),
			status: 500, moved: with(compiled, moved{"failed": 1}), shape: [3]uint64{1, 1, 0}},
		{name: "handler panic", do: sparqlGet(small, ""),
			server: single(testGraph(), Config{FaultPlan: fault.NewPlan(1).PanicNext(fault.PointServer, 1)}),
			status: 500, moved: with(compiled, moved{"failed": 1, "faults.recovered_panics": 1}), shape: [3]uint64{1, 1, 0}},
		// A panic inside the single-graph evaluator (at its first budget
		// charge) is isolated by the same middleware: 500, not a crash.
		{name: "evaluator panic", do: sparqlGet(small, ""),
			server: single(testGraph(), Config{MaxQueryBytes: 1 << 30, FaultPlan: fault.NewPlan(1).PanicNext(fault.PointMem, 1)}),
			status: 500, moved: with(compiled, moved{"failed": 1, "faults.recovered_panics": 1}), shape: [3]uint64{1, 1, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.server(t)
			release := func() {}
			if c.arm != nil {
				release = c.arm(t, s)
			}
			before, shapeBefore := statsNumbers(t, s), shapeTotals(s)
			rec := c.do(t, s)
			after, shapeAfter := statsNumbers(t, s), shapeTotals(s)
			release()

			if rec.Code != c.status {
				t.Errorf("status %d, want %d: %s", rec.Code, c.status, rec.Body.String())
			}
			for path, now := range after {
				was, known := before[path]
				if !known {
					t.Errorf("%s appeared in /stats during the request", path)
				}
				switch want, listed := c.moved[path]; {
				case want == some && now > was:
				case now-was != want:
					t.Errorf("%s moved by %v, want %v (listed: %v)", path, now-was, want, listed)
				}
			}
			for path := range c.moved {
				if _, ok := after[path]; !ok {
					t.Errorf("%s is not in /stats", path)
				}
			}
			for i, what := range []string{"count", "errors", "sheds"} {
				if got := shapeAfter[i] - shapeBefore[i]; got != c.shape[i] {
					t.Errorf("shape %s moved by %d, want %d", what, got, c.shape[i])
				}
			}
		})
	}
}

// goldenSeries pins both documents: every /metrics family with its
// TYPE, every /stats leaf path, and which family and path are the same
// series. Declaring a series is a one-line diff here; dropping,
// renaming or declaring one twice fails TestDocumentsPinnedAndAgree.
// only restricts a row to the sharded server.
var goldenSeries = []struct{ family, typ, path, only string }{
	{"rdf_queries_served_total", "counter", "served", ""},
	{"rdf_queries_failed_total", "counter", "failed", ""},
	{"rdf_query_timeouts_total", "counter", "timeouts", ""},
	{"rdf_queries_rejected_total", "counter", "rejected", ""},
	{"rdf_in_flight_queries", "gauge", "in_flight", ""},
	{"rdf_max_concurrent_queries", "gauge", "max_concurrent", ""},
	{"rdf_query_duration_ms", "histogram", "latency", ""},
	{"rdf_query_exec_ms", "histogram", "latency.exec_ms", ""},
	{"rdf_query_serialize_ms", "histogram", "latency.serialize_ms", ""},
	{"rdf_plan_cache_hits_total", "counter", "plan_cache.hits", ""},
	{"rdf_plan_cache_misses_total", "counter", "plan_cache.misses", ""},
	{"rdf_plan_cache_entries", "gauge", "plan_cache.size", ""},
	{"", "", "plan_cache.capacity", ""},
	{"", "", "execution.query_parallelism", ""},
	{"", "", "resources.max_query_bytes", ""},
	{"rdf_shed_queries_total", "counter", "resources.shed_queries", ""},
	{"rdf_budget_aborts_total", "counter", "resources.budget_aborts", ""},
	{"rdf_bytes_charged_total", "counter", "resources.bytes_charged", ""},
	{"rdf_peak_query_bytes", "gauge", "resources.peak_query_bytes", ""},
	{"", "", "resources.queue_depth", ""},
	{"", "", "resources.queue_capacity", ""},
	{"", "", "resources.cost_shed_threshold", ""},
	{"rdf_replica_attempts_total", "counter", "faults.attempts", ""},
	{"rdf_replica_retries_total", "counter", "faults.retries", ""},
	{"rdf_replica_failovers_total", "counter", "faults.failovers", ""},
	{"rdf_recovered_panics_total", "counter", "faults.recovered_panics", ""},
	{"rdf_partial_failures_total", "counter", "faults.partial_failures", ""},
	{"", "", "faults.replica_health", "sharded"},
	{"rdf_shards", "gauge", "sharding.shards", "sharded"},
	{"rdf_shard_replicas", "gauge", "sharding.replicas", "sharded"},
	{"", "", "sharding.partition", "sharded"},
	{"", "", "sharding.subject_colocated", "sharded"},
	{"rdf_pushdown_queries_total", "counter", "sharding.pushdown_queries", "sharded"},
	{"rdf_scatter_queries_total", "counter", "sharding.scatter_queries", "sharded"},
	{"rdf_shards_touched_total", "counter", "sharding.shards_touched", "sharded"},
	{"rdf_shards_pruned_total", "counter", "sharding.shards_pruned", "sharded"},
	{"rdf_replica_latency_ewma_ms", "gauge", "", "sharded"},
	{"rdf_replica_error_rate", "gauge", "", "sharded"},
	{"rdf_rendered_terms", "gauge", "rendered_terms.json", ""},
	{"rdf_rendered_terms", "gauge", "rendered_terms.tsv", ""},
	{"rdf_rendered_bytes", "gauge", "rendered_bytes.json", ""},
	{"rdf_rendered_bytes", "gauge", "rendered_bytes.tsv", ""},
	{"rdf_shapes_tracked", "gauge", "workload.shapes_tracked", ""},
	{"", "", "workload.shape_capacity", ""},
	{"rdf_shape_evictions_total", "counter", "workload.shape_evictions", ""},
	{"", "", "workload.trace_sample_rate", ""},
	{"rdf_sampled_traces_total", "counter", "workload.sampled_traces", ""},
	{"rdf_trace_ring_entries", "gauge", "workload.trace_ring.size", ""},
	{"", "", "workload.trace_ring.capacity", ""},
	{"", "", "workload.top_shapes", ""},
	{"rdf_shape_queries_total", "counter", "", ""},
	{"rdf_shape_errors_total", "counter", "", ""},
	{"rdf_shape_cache_hits_total", "counter", "", ""},
	{"rdf_shape_latency_p95_ms", "gauge", "", ""},
	{"rdf_uptime_seconds", "gauge", "", ""},
	{"rdf_build_info", "gauge", "", ""},
}

// exposition is a parsed /metrics body: "family type" per TYPE line, in
// order, and every sample by its full name{labels}.
type exposition struct {
	types   []string
	samples map[string]float64
}

func scrapeMetrics(t *testing.T, s *Server) exposition {
	t.Helper()
	body := get(s, "/metrics").Body.String()
	validateExposition(t, body)
	e := exposition{samples: map[string]float64{}}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			e.types = append(e.types, rest)
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		e.samples[line[:i]] = v
	}
	return e
}

// TestDocumentsPinnedAndAgree holds /stats and /metrics, on a
// single-graph and on a 3-shard server, to goldenSeries — the same
// leaf paths, the same families with the same TYPE, none twice — and,
// with the requests done, every series that is in both documents to
// the same value in both.
func TestDocumentsPinnedAndAgree(t *testing.T) {
	sg, err := shard.BuildReplicatedByName(testGraph().Triples(), "hash-subject", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers := map[string]*Server{
		"single":  New(testGraph(), Config{QueryParallelism: 4}),
		"sharded": NewSharded(sg, Config{QueryParallelism: 4}),
	}
	for kind, s := range servers {
		t.Run(kind, func(t *testing.T) {
			for _, q := range []string{
				`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a } ORDER BY ?n LIMIT 3`,
				`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n OPTIONAL { ?s <http://ex/age> ?a } } LIMIT 3`,
				`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a } ORDER BY ?n LIMIT 3`,
				`NOT SPARQL`,
			} {
				getQuery(t, s, q, "", nil)
			}
			leaves, exp := statsLeaves(t, s), scrapeMetrics(t, s)

			var wantPaths, wantTypes []string
			listed := map[string]bool{}
			for _, g := range goldenSeries {
				if g.only != "" && g.only != kind {
					continue
				}
				if g.path != "" {
					if _, hist := leaves[g.path+".buckets"]; hist {
						wantPaths = append(wantPaths, g.path+".buckets", g.path+".mean_ms")
					} else {
						wantPaths = append(wantPaths, g.path)
					}
				}
				if g.family != "" && !listed[g.family] {
					listed[g.family] = true
					wantTypes = append(wantTypes, g.family+" "+g.typ)
				}
			}
			var gotPaths []string
			for path := range leaves {
				gotPaths = append(gotPaths, path)
			}
			gotTypes := append([]string(nil), exp.types...)
			for _, list := range [][]string{wantPaths, gotPaths, wantTypes, gotTypes} {
				sort.Strings(list)
			}
			if got, want := strings.Join(gotPaths, "\n"), strings.Join(wantPaths, "\n"); got != want {
				t.Errorf("/stats leaf paths:\n%s\nwant:\n%s", got, want)
			}
			if got, want := strings.Join(gotTypes, "\n"), strings.Join(wantTypes, "\n"); got != want {
				t.Errorf("/metrics families:\n%s\nwant:\n%s", got, want)
			}

			for _, g := range goldenSeries {
				if g.family == "" || g.path == "" || (g.only != "" && g.only != kind) {
					continue
				}
				if g.typ == "histogram" {
					count, sum := exp.samples[g.family+"_count"], exp.samples[g.family+"_sum"]
					if total := bucketTotal(t, leaves[g.path+".buckets"]); count != total || count == 0 {
						t.Errorf("%s_count = %v, %s buckets sum to %v, want equal and > 0", g.family, count, g.path, total)
					}
					if mean := leaves[g.path+".mean_ms"].(float64); math.Abs(sum/count-mean) > 1e-9*mean {
						t.Errorf("%s _sum/_count = %v, %s.mean_ms = %v", g.family, sum/count, g.path, mean)
					}
					continue
				}
				sample := g.family
				if _, unlabeled := exp.samples[sample]; !unlabeled {
					// The rendered-term families carry one sample per
					// format, named by the path's last segment.
					sample += `{format="` + g.path[strings.LastIndexByte(g.path, '.')+1:] + `"}`
				}
				inMetrics, ok := exp.samples[sample]
				if inStats, _ := leaves[g.path].(float64); !ok || inMetrics != inStats {
					t.Errorf("%s = %v (present: %v) but %s = %v", sample, inMetrics, ok, g.path, leaves[g.path])
				}
			}
		})
	}
}

// TestRegistryConcurrentScrape moves every request-path series from 8
// goroutines while two more scrape both documents in a loop: run under
// -race it shows a render that shares state with the request path
// unsynchronized, each scrape must be a valid document on its own
// (a histogram's +Inf bucket equal to its _count, buckets cumulative),
// and once the requests are done the totals must add up.
func TestRegistryConcurrentScrape(t *testing.T) {
	const workers, each = 8, 200
	s := New(testGraph(), Config{})
	q := `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } ORDER BY ?n LIMIT 3`

	var requests sync.WaitGroup
	for w := 0; w < workers; w++ {
		requests.Add(1)
		go func() {
			defer requests.Done()
			for i := 0; i < each; i++ {
				if rec := getQuery(t, s, q, "", nil); rec.Code != http.StatusOK {
					t.Errorf("query answered %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { requests.Wait(); close(done) }()

	// The scrapers hand each body to this goroutine, which validates it.
	type scrape struct{ target, body string }
	scrapes := make(chan scrape)
	var scrapers sync.WaitGroup
	for _, target := range []string{"/metrics", "/stats"} {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				case scrapes <- scrape{target, get(s, target).Body.String()}:
				}
			}
		}()
	}
	go func() { scrapers.Wait(); close(scrapes) }()
	n := 0
	for sc := range scrapes {
		n++
		if sc.target == "/metrics" {
			validateExposition(t, sc.body)
		} else if !json.Valid([]byte(sc.body)) {
			t.Fatalf("/stats scrape is not valid JSON: %s", sc.body)
		}
	}
	t.Logf("%d scrapes validated", n)

	nums := statsNumbers(t, s)
	const total = workers * each
	for _, path := range []string{"served", "latency.count", "latency.exec_ms.count", "latency.serialize_ms.count"} {
		if nums[path] != total {
			t.Errorf("%s = %v, want %d", path, nums[path], total)
		}
	}
	if lookups := nums["plan_cache.hits"] + nums["plan_cache.misses"]; lookups != total {
		t.Errorf("plan_cache hits + misses = %v, want %d", lookups, total)
	}
	if nums["in_flight"] != 0 {
		t.Errorf("in_flight = %v after the last request, want 0", nums["in_flight"])
	}
}
