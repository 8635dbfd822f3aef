package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sparql"
)

// jsonSpan mirrors the obs.Trace JSON rendering for EXPLAIN tests.
type jsonSpan struct {
	Name       string         `json:"name"`
	DurationUs int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*jsonSpan    `json:"children"`
}

func (s *jsonSpan) find(name string) *jsonSpan {
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := c.find(name); f != nil {
			return f
		}
	}
	return nil
}

func (s *jsonSpan) attrInt(t *testing.T, key string) int64 {
	t.Helper()
	v, ok := s.Attrs[key]
	if !ok {
		t.Fatalf("span %s missing attr %s", s.Name, key)
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("span %s attr %s is %T, want number", s.Name, key, v)
	}
	return int64(f)
}

var (
	promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+$`)
	promHexID  = regexp.MustCompile(`^[0-9a-f]{16}$`)
)

// validateExposition checks a Prometheus text body: every sample line
// parses, every sampled family has a TYPE declaration, and histogram
// buckets are cumulative with +Inf matching _count.
func validateExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	lastBucket := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if typed[strings.TrimSuffix(name, suf)] == "histogram" {
				family = strings.TrimSuffix(name, suf)
			}
		}
		if typed[family] == "" {
			t.Fatalf("sample %q has no TYPE declaration", name)
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && typed[family] == "histogram":
			if v < lastBucket[family] {
				t.Fatalf("histogram %s buckets not cumulative at %q", family, line)
			}
			lastBucket[family] = v
		case strings.HasSuffix(name, "_count") && typed[family] == "histogram":
			if v != lastBucket[family] {
				t.Fatalf("histogram %s _count %v != +Inf bucket %v", family, v, lastBucket[family])
			}
		}
	}
	if len(typed) == 0 {
		t.Fatal("exposition declared no families")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(testGraph(), Config{})
	// Serve one success and one parse failure so the counters move.
	if rec := getQuery(t, s, `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } LIMIT 3`, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("query status %d", rec.Code)
	}
	if rec := getQuery(t, s, `NOT SPARQL`, "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad query status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	validateExposition(t, body)
	for _, want := range []string{
		"# TYPE rdf_queries_served_total counter",
		"rdf_queries_served_total 1",
		"rdf_queries_failed_total 1",
		"# TYPE rdf_in_flight_queries gauge",
		"# TYPE rdf_query_duration_ms histogram",
		"# TYPE rdf_query_exec_ms histogram",
		"# TYPE rdf_query_serialize_ms histogram",
		`rdf_query_duration_ms_bucket{le="+Inf"} 1`,
		"rdf_build_info{go_version=",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsEndpointSharded(t *testing.T) {
	sg, err := shard.BuildReplicatedByName(testGraph().Triples(), "hash-subject", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(sg, Config{})
	if rec := getQuery(t, s, `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } LIMIT 3`, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.String()
	validateExposition(t, body)
	for _, want := range []string{"rdf_shards 3", "rdf_shards_touched_total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("sharded exposition missing %q", want)
		}
	}
}

func TestRequestID(t *testing.T) {
	s := New(testGraph(), Config{})
	q := `SELECT ?s WHERE { ?s <http://ex/name> ?n } LIMIT 1`

	// No inbound id: a fresh 16-hex id appears on the response.
	rec := getQuery(t, s, q, "", nil)
	id := rec.Header().Get("X-Request-ID")
	if !promHexID.MatchString(id) {
		t.Fatalf("generated request id %q is not 16 hex digits", id)
	}

	// A usable inbound id is echoed verbatim.
	rec = getQuery(t, s, q, "", map[string]string{"X-Request-ID": "client-id_42.a"})
	if got := rec.Header().Get("X-Request-ID"); got != "client-id_42.a" {
		t.Fatalf("inbound id not echoed: got %q", got)
	}

	// An unusable inbound id (header-breaking characters) is replaced.
	rec = getQuery(t, s, q, "", map[string]string{"X-Request-ID": "bad id\twith spaces"})
	if got := rec.Header().Get("X-Request-ID"); !promHexID.MatchString(got) {
		t.Fatalf("invalid inbound id not replaced: got %q", got)
	}

	// Error responses carry the id in the body too.
	rec = getQuery(t, s, `NOT SPARQL`, "", map[string]string{"X-Request-ID": "err-7"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "(request err-7)") {
		t.Fatalf("error body lacks request id: %q", rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); got != "err-7" {
		t.Fatalf("error response id %q", got)
	}
}

func TestExplainAnalyze(t *testing.T) {
	s := New(testGraph(), Config{})
	q := `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } ORDER BY ?n LIMIT 3`
	rec := getQuery(t, s, q, "&explain=analyze", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var root jsonSpan
	if err := json.Unmarshal(rec.Body.Bytes(), &root); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if root.Name != "query" {
		t.Fatalf("root span %q", root.Name)
	}
	if root.find("parse") == nil {
		t.Fatal("no parse span")
	}
	seed := root.find("seed_scan")
	if seed == nil {
		t.Fatal("no seed_scan span")
	}
	// The query really ran: the seed scan saw all 64 name triples and
	// the modifier pipeline cut the result to LIMIT 3.
	if rows := seed.attrInt(t, "rows"); rows != 64 {
		t.Fatalf("seed_scan rows = %d, want 64", rows)
	}
	mod := root.find("modifiers")
	if mod == nil {
		t.Fatal("no modifiers span")
	}
	if rows := mod.attrInt(t, "rows"); rows != 3 {
		t.Fatalf("modifiers rows = %d, want 3", rows)
	}
	if root.find("serialize") != nil {
		t.Fatal("explain response should not serialize results")
	}

	// format=text renders the indented tree instead.
	rec = getQuery(t, s, q, "&explain=analyze&format=text", nil)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text content type %q", ct)
	}
	text := rec.Body.String()
	if !strings.HasPrefix(text, "query") || !strings.Contains(text, "  bgp") {
		t.Fatalf("unexpected text rendering:\n%s", text)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(testGraph(), Config{
		SlowQueryThreshold: time.Nanosecond, // every query is slow
		SlowQueryLog:       &buf,
	})
	q := `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } LIMIT 5`
	rec := getQuery(t, s, q, "", map[string]string{"X-Request-ID": "slow-1"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one log line, got %q", line)
	}
	var entry struct {
		TS            string  `json:"ts"`
		RequestID     string  `json:"request_id"`
		QueryHash     string  `json:"query_hash"`
		PlanFP        string  `json:"plan_fingerprint"`
		Route         string  `json:"route"`
		Shards        int     `json:"shards"`
		ShardsTouched int     `json:"shards_touched"`
		DurationMs    float64 `json:"duration_ms"`
		TopSpans      []struct {
			Name   string  `json:"name"`
			SelfMs float64 `json:"self_ms"`
		} `json:"top_spans"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("log line does not parse: %v\n%s", err, line)
	}
	if entry.RequestID != "slow-1" {
		t.Fatalf("request_id %q", entry.RequestID)
	}
	if entry.QueryHash != obs.QueryHash(q) {
		t.Fatalf("query_hash %q, want %q", entry.QueryHash, obs.QueryHash(q))
	}
	if prep, err := sparql.Prepare(q); err != nil {
		t.Fatal(err)
	} else if entry.PlanFP != prep.Fingerprint() {
		t.Fatalf("plan_fingerprint %q, want %q", entry.PlanFP, prep.Fingerprint())
	}
	if entry.Route != "local" {
		t.Fatalf("route %q", entry.Route)
	}
	if entry.DurationMs <= 0 {
		t.Fatalf("duration_ms %v", entry.DurationMs)
	}
	if len(entry.TopSpans) == 0 || entry.TopSpans[0].Name == "" {
		t.Fatalf("top_spans empty: %s", line)
	}

	// A fast-path run with no threshold leaves the log empty.
	buf.Reset()
	s2 := New(testGraph(), Config{SlowQueryLog: &buf})
	getQuery(t, s2, q, "", nil)
	if buf.Len() != 0 {
		t.Fatalf("unarmed server logged %q", buf.String())
	}
}
