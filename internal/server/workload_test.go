package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/internal/sparql"
)

// Workload-observatory tests: sampled tracing stays invisible in
// responses, the trace ring and shape registry surface over
// /debug/*, and /metrics carries the labeled replica and shape
// series.

// workloadQueries is a small mixed workload: a star join with
// modifiers, a point lookup, and an ASK.
var workloadQueries = []string{
	`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a } ORDER BY ?s LIMIT 7`,
	`SELECT ?n WHERE { <http://ex/s3> <http://ex/name> ?n }`,
	`ASK { ?s <http://ex/age> ?a . FILTER(?a > 21) }`,
}

// TestSampledResponseByteIdentical pins the observe-don't-steer
// contract end to end: a server sampling every request answers
// byte-for-byte what an unsampled server answers, across parallelism
// widths and sharding. Run under -race this also exercises the trace
// plumbing for data races.
func TestSampledResponseByteIdentical(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, shards := range []int{0, 3} {
			t.Run(fmt.Sprintf("par%d_shards%d", par, shards), func(t *testing.T) {
				base := Config{QueryParallelism: par}
				sampled := Config{QueryParallelism: par, TraceSampleRate: 1}
				var plain, traced *Server
				if shards == 0 {
					plain = New(testGraph(), base)
					traced = New(testGraph(), sampled)
				} else {
					sg, err := shard.BuildReplicatedByName(testGraph().Triples(), "hash-subject", shards, 1)
					if err != nil {
						t.Fatal(err)
					}
					sg2, err := shard.BuildReplicatedByName(testGraph().Triples(), "hash-subject", shards, 1)
					if err != nil {
						t.Fatal(err)
					}
					plain = NewSharded(sg, base)
					traced = NewSharded(sg2, sampled)
				}
				for _, q := range workloadQueries {
					want := getQuery(t, plain, q, "", nil)
					got := getQuery(t, traced, q, "", nil)
					if want.Code != http.StatusOK || got.Code != http.StatusOK {
						t.Fatalf("status %d vs %d for %s", want.Code, got.Code, q)
					}
					if want.Body.String() != got.Body.String() {
						t.Fatalf("sampled response differs for %s:\nplain   %s\nsampled %s",
							q, want.Body.String(), got.Body.String())
					}
				}
				if traced.ring.Len() != len(workloadQueries) {
					t.Fatalf("ring retained %d traces, want %d", traced.ring.Len(), len(workloadQueries))
				}
				if plain.ring.Len() != 0 {
					t.Fatalf("unsampled server retained %d traces", plain.ring.Len())
				}
			})
		}
	}
}

// TestDebugQueriesEndpoints pins the retained-trace browser: the index
// lists retentions newest-first, a request id resolves to its span
// tree as JSON or text, and unknown ids 404.
func TestDebugQueriesEndpoints(t *testing.T) {
	s := New(testGraph(), Config{TraceSampleRate: 1})
	q := workloadQueries[0]
	if rec := getQuery(t, s, q, "", map[string]string{"X-Request-ID": "wl-1"}); rec.Code != http.StatusOK {
		t.Fatalf("query status %d", rec.Code)
	}

	// Index.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/queries", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("index status %d", rec.Code)
	}
	var idx struct {
		Capacity int `json:"capacity"`
		Retained int `json:"retained"`
		Traces   []struct {
			RequestID   string  `json:"request_id"`
			Fingerprint string  `json:"fingerprint"`
			Reason      string  `json:"reason"`
			DurationMs  float64 `json:"duration_ms"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatalf("index does not parse: %v\n%s", err, rec.Body.String())
	}
	if idx.Retained != 1 || len(idx.Traces) != 1 {
		t.Fatalf("retained %d, traces %d", idx.Retained, len(idx.Traces))
	}
	tr0 := idx.Traces[0]
	if tr0.RequestID != "wl-1" || tr0.Reason != "sampled" {
		t.Fatalf("index entry %+v", tr0)
	}
	prep, err := sparql.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr0.Fingerprint != prep.Fingerprint() {
		t.Fatalf("fingerprint %q, want %q", tr0.Fingerprint, prep.Fingerprint())
	}

	// Per-id JSON carries the span tree.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/queries/wl-1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("per-id status %d: %s", rec.Code, rec.Body.String())
	}
	var one struct {
		RequestID string   `json:"request_id"`
		Reason    string   `json:"reason"`
		Trace     jsonSpan `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatalf("per-id does not parse: %v\n%s", err, rec.Body.String())
	}
	if one.RequestID != "wl-1" || one.Trace.Name != "query" {
		t.Fatalf("per-id body %+v", one)
	}
	if one.Trace.find("seed_scan") == nil {
		t.Fatal("retained trace lost its seed_scan span")
	}

	// format=text renders the indented tree.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/queries/wl-1?format=text", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text content type %q", ct)
	}
	if body := rec.Body.String(); !strings.HasPrefix(body, "query") {
		t.Fatalf("text rendering:\n%s", body)
	}

	// Unknown ids 404.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/queries/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id status %d", rec.Code)
	}
}

// TestDebugShapesFoldsWorkload pins the registry cardinality contract
// over HTTP: many distinct query texts of one shape fold into one
// registry entry, visible at /debug/shapes.
func TestDebugShapesFoldsWorkload(t *testing.T) {
	s := New(testGraph(), Config{})
	const n = 200
	for i := 0; i < n; i++ {
		q := fmt.Sprintf(`SELECT ?s WHERE { ?s <http://ex/name> "n%d" } LIMIT %d`, i%64, i+1)
		if rec := getQuery(t, s, q, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("query %d status %d", i, rec.Code)
		}
	}
	if got := s.shapes.Len(); got != 1 {
		t.Fatalf("registry tracks %d shapes, want 1", got)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/shapes", nil))
	var doc struct {
		Tracked  int `json:"tracked"`
		Capacity int `json:"capacity"`
		Shapes   []struct {
			Fingerprint string         `json:"fingerprint"`
			Class       string         `json:"class"`
			Count       uint64         `json:"count"`
			Routes      map[string]int `json:"routes"`
		} `json:"shapes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/shapes does not parse: %v\n%s", err, rec.Body.String())
	}
	if doc.Tracked != 1 || len(doc.Shapes) != 1 {
		t.Fatalf("tracked %d, shapes %d", doc.Tracked, len(doc.Shapes))
	}
	sh := doc.Shapes[0]
	if sh.Count != n {
		t.Fatalf("count %d, want %d", sh.Count, n)
	}
	if sh.Routes["local"] != n {
		t.Fatalf("routes %v", sh.Routes)
	}
	prep, err := sparql.Prepare(`SELECT ?s WHERE { ?s <http://ex/name> "x" } LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Fingerprint != prep.Fingerprint() {
		t.Fatalf("fingerprint %q, want %q", sh.Fingerprint, prep.Fingerprint())
	}
}

// TestShapeRegistryBoundedHTTP pins the LRU bound over HTTP: more
// distinct shapes than MaxShapes never grow the registry past the cap.
func TestShapeRegistryBoundedHTTP(t *testing.T) {
	s := New(testGraph(), Config{MaxShapes: 4})
	for i := 0; i < 12; i++ {
		// Distinct predicate IRIs are distinct structure.
		q := fmt.Sprintf(`SELECT ?s WHERE { ?s <http://ex/p%d> ?o }`, i)
		if rec := getQuery(t, s, q, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, rec.Code, rec.Body.String())
		}
		if got := s.shapes.Len(); got > 4 {
			t.Fatalf("registry grew to %d > cap 4", got)
		}
	}
	if got := s.shapes.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if ev := s.shapes.Evictions(); ev != 8 {
		t.Fatalf("evictions %d, want 8", ev)
	}
}

// TestWorkloadMetricsLabeled pins the labeled series on /metrics: a
// replicated sharded server exposes per-replica breaker gauges and
// per-shape counters, and the whole body still passes the exposition
// validator.
func TestWorkloadMetricsLabeled(t *testing.T) {
	sg, err := shard.BuildReplicatedByName(testGraph().Triples(), "hash-subject", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(sg, Config{TraceSampleRate: 1})
	q := workloadQueries[0]
	if rec := getQuery(t, s, q, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	validateExposition(t, body)

	prep, err := sparql.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE rdf_replica_breaker_state gauge",
		`rdf_replica_breaker_state{shard="0",replica="0"} 0`,
		`rdf_replica_breaker_state{shard="2",replica="1"} 0`,
		"# TYPE rdf_replica_breaker_trips_total counter",
		"# TYPE rdf_replica_latency_ewma_ms gauge",
		"# TYPE rdf_replica_error_rate gauge",
		"# TYPE rdf_shape_queries_total counter",
		fmt.Sprintf(`rdf_shape_queries_total{fingerprint="%s",class="%s"} 1`,
			prep.Fingerprint(), sparql.ClassifyShape(prep.Query())),
		"# TYPE rdf_shape_latency_p95_ms gauge",
		"rdf_shapes_tracked 1",
		"rdf_sampled_traces_total 1",
		"rdf_trace_ring_entries 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestDebugDash pins the dashboard endpoint: self-contained HTML, no
// external assets.
func TestDebugDash(t *testing.T) {
	s := New(testGraph(), Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/dash", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"workload observatory", "/debug/shapes", "/debug/queries"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "src=", "@import"} {
		if strings.Contains(body, banned) {
			t.Fatalf("dashboard references external asset (%q)", banned)
		}
	}
}

// TestStatsWorkloadBlock pins the /stats workload block: shape
// tracking, sampling counters, and the top-shapes view.
func TestStatsWorkloadBlock(t *testing.T) {
	s := New(testGraph(), Config{TraceSampleRate: 2})
	for i := 0; i < 4; i++ {
		if rec := getQuery(t, s, workloadQueries[0], "", nil); rec.Code != http.StatusOK {
			t.Fatalf("query %d status %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var doc struct {
		Workload struct {
			ShapesTracked   int `json:"shapes_tracked"`
			ShapeCapacity   int `json:"shape_capacity"`
			TraceSampleRate int `json:"trace_sample_rate"`
			SampledTraces   int `json:"sampled_traces"`
			TraceRing       struct {
				Size     int `json:"size"`
				Capacity int `json:"capacity"`
			} `json:"trace_ring"`
			TopShapes []struct {
				Fingerprint string `json:"fingerprint"`
				Count       uint64 `json:"count"`
			} `json:"top_shapes"`
		} `json:"workload"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/stats does not parse: %v\n%s", err, rec.Body.String())
	}
	w := doc.Workload
	if w.ShapesTracked != 1 || len(w.TopShapes) != 1 || w.TopShapes[0].Count != 4 {
		t.Fatalf("workload block %+v", w)
	}
	if w.TraceSampleRate != 2 {
		t.Fatalf("trace_sample_rate %d", w.TraceSampleRate)
	}
	// Rate 2 samples requests 2 and 4 of the 4 served.
	if w.SampledTraces != 2 || w.TraceRing.Size != 2 {
		t.Fatalf("sampled %d, ring %d; want 2, 2", w.SampledTraces, w.TraceRing.Size)
	}
}
