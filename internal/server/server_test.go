package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/shard"
)

// testGraph builds 64 subjects carrying name and age triples.
func testGraph() *rdf.Graph {
	var ts []rdf.Triple
	for i := 0; i < 64; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		ts = append(ts,
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/name"), O: rdf.NewLiteral(fmt.Sprintf("n%d", i))},
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/age"), O: rdf.NewTypedLiteral(fmt.Sprint(20+i%8), rdf.XSDInteger)},
		)
	}
	return rdf.NewGraph(ts)
}

// cartesianGraph builds two disjoint n-subject branches whose join is
// a pure n×n cartesian — arbitrarily slow to evaluate in full.
func cartesianGraph(n int) *rdf.Graph {
	ts := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		ts = append(ts,
			rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/a%d", i)), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral(fmt.Sprintf("x%d", i))},
			rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/b%d", i)), P: rdf.NewIRI("http://ex/q"), O: rdf.NewLiteral(fmt.Sprintf("y%d", i))},
		)
	}
	return rdf.NewGraph(ts)
}

// sparqlJSON is the SPARQL 1.1 JSON results document shape.
type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Boolean *bool `json:"boolean"`
	Results struct {
		Bindings []map[string]struct {
			Type     string `json:"type"`
			Value    string `json:"value"`
			Lang     string `json:"xml:lang"`
			Datatype string `json:"datatype"`
		} `json:"bindings"`
	} `json:"results"`
}

func getQuery(t *testing.T, s *Server, query string, extra string, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(query)+extra, nil)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestServeSelectJSON(t *testing.T) {
	s := New(testGraph(), Config{})
	rec := getQuery(t, s, `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } ORDER BY ?n LIMIT 3`, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type %q", ct)
	}
	var doc sparqlJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if got := doc.Head.Vars; len(got) != 2 || got[0] != "s" || got[1] != "n" {
		t.Fatalf("head vars %v", got)
	}
	if len(doc.Results.Bindings) != 3 {
		t.Fatalf("got %d bindings, want 3", len(doc.Results.Bindings))
	}
	b0 := doc.Results.Bindings[0]
	if b0["s"].Type != "uri" || b0["s"].Value != "http://ex/s0" {
		t.Fatalf("first subject binding %+v", b0["s"])
	}
	if b0["n"].Type != "literal" || b0["n"].Value != "n0" {
		t.Fatalf("first name binding %+v", b0["n"])
	}
}

func TestServeTSV(t *testing.T) {
	s := New(testGraph(), Config{})
	rec := getQuery(t, s, `SELECT ?s ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?s LIMIT 2`, "",
		map[string]string{"Accept": "text/tab-separated-values"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), rec.Body.String())
	}
	if lines[0] != "?s\t?a" {
		t.Fatalf("header line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "<http://ex/s0>\t") || !strings.Contains(lines[1], "XMLSchema#integer") {
		t.Fatalf("row line %q", lines[1])
	}
}

func TestServePostForms(t *testing.T) {
	s := New(testGraph(), Config{})
	query := `ASK WHERE { ?s <http://ex/name> "n5" }`

	form := url.Values{"query": {query}}
	req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"boolean":true`) {
		t.Fatalf("form POST: status %d body %s", rec.Code, rec.Body.String())
	}

	req = httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(query))
	req.Header.Set("Content-Type", "application/sparql-query")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"boolean":true`) {
		t.Fatalf("raw POST: status %d body %s", rec.Code, rec.Body.String())
	}

	// Protocol parameters carried in the form body — not the URL —
	// must be honored too: format= picks the serialization and
	// timeout= the deadline (an unparseable cap would fall back to the
	// default, not error).
	form = url.Values{
		"query":   {`SELECT ?s WHERE { ?s <http://ex/name> "n5" }`},
		"format":  {"tsv"},
		"timeout": {"5s"},
	}
	req = httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "?s") {
		t.Fatalf("form POST with format=tsv: status %d body %q", rec.Code, rec.Body.String())
	}
}

func TestServeConstructNTriples(t *testing.T) {
	s := New(testGraph(), Config{})
	rec := getQuery(t, s, `CONSTRUCT { ?s <http://ex/label> ?n } WHERE { ?s <http://ex/name> ?n }`, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/n-triples" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	if len(lines) != 64 {
		t.Fatalf("got %d triples, want 64", len(lines))
	}
	if !strings.HasSuffix(lines[0], " .") {
		t.Fatalf("not N-Triples: %q", lines[0])
	}
}

func TestServeErrors(t *testing.T) {
	s := New(testGraph(), Config{})
	if rec := getQuery(t, s, `SELECT WHERE`, "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d", rec.Code)
	}
	if rec := getQuery(t, s, ``, "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty query: status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/sparql", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: status %d", rec.Code)
	}
}

// A query that cannot finish inside its deadline must come back as 504
// promptly, not run to completion.
func TestServeQueryTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates a large cartesian")
	}
	s := New(cartesianGraph(4096), Config{DefaultTimeout: 20 * time.Millisecond})
	start := time.Now()
	rec := getQuery(t, s, `SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/q> ?y }`, "", nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timed-out query took %v to come back", elapsed)
	}
}

// With the worker pool full, a query whose deadline expires in the
// admission queue is rejected with 503 (and counted as rejected).
func TestServeAdmissionReject(t *testing.T) {
	s := New(testGraph(), Config{MaxConcurrent: 2})
	s.sem <- struct{}{} // occupy both slots
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()
	rec := getQuery(t, s, `SELECT ?s WHERE { ?s ?p ?o }`, "&timeout=30ms", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rejected := s.m.rejected.Load(); rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", rejected)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := New(testGraph(), Config{})
	query := `SELECT ?s WHERE { ?s <http://ex/name> ?n }`
	for i := 0; i < 3; i++ {
		if rec := getQuery(t, s, query, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["triples"].(float64) != 128 {
		t.Fatalf("healthz %v", health)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		PlanCache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
			Size   int    `json:"size"`
		} `json:"plan_cache"`
		InFlight  int    `json:"in_flight"`
		Served    uint64 `json:"served"`
		Execution struct {
			QueryParallelism int `json:"query_parallelism"`
		} `json:"execution"`
		Latency struct {
			Buckets []obs.HistogramBucket `json:"buckets"`
		} `json:"latency"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanCache.Misses != 1 || stats.PlanCache.Hits != 2 || stats.PlanCache.Size != 1 {
		t.Fatalf("plan cache stats %+v", stats.PlanCache)
	}
	if stats.Served != 3 || stats.InFlight != 0 {
		t.Fatalf("served=%d inFlight=%d", stats.Served, stats.InFlight)
	}
	var histTotal uint64
	for _, b := range stats.Latency.Buckets {
		histTotal += b.Count
	}
	if histTotal != 3 {
		t.Fatalf("latency histogram holds %d observations, want 3", histTotal)
	}
	// The configured fan-out width (GOMAXPROCS by default) is reported
	// even on a single graph, which evaluates serially.
	if stats.Execution.QueryParallelism < 1 {
		t.Fatalf("query_parallelism = %d, want >= 1", stats.Execution.QueryParallelism)
	}
}

// The cache must return the identical *Prepared on a hit (that pointer
// identity is what makes a hit skip parse and compile), respect LRU
// order, and honor the disabled mode.
func TestPlanCacheLRU(t *testing.T) {
	c := newPlanCache(2)
	q1 := `SELECT ?s WHERE { ?s ?p ?o } LIMIT 1`
	q2 := `SELECT ?s WHERE { ?s ?p ?o } LIMIT 2`
	q3 := `SELECT ?s WHERE { ?s ?p ?o } LIMIT 3`
	p1, cached, err := c.prepare(q1)
	if err != nil || cached {
		t.Fatalf("first lookup: cached=%v err=%v", cached, err)
	}
	if _, _, err := c.prepare(q2); err != nil {
		t.Fatal(err)
	}
	p1b, cached, err := c.prepare(q1) // moves q1 to the front
	if err != nil || !cached || p1b != p1 {
		t.Fatalf("hit: cached=%v same=%v err=%v", cached, p1b == p1, err)
	}
	if _, _, err := c.prepare(q3); err != nil { // evicts q2 (q1 was re-used)
		t.Fatal(err)
	}
	if _, cached, _ := c.prepare(q1); !cached {
		t.Fatal("q1 should have survived eviction (recently used)")
	}
	if _, cached, _ := c.prepare(q2); cached {
		t.Fatal("q2 should have been evicted")
	}
	hits, misses, size := c.stats()
	if size != 2 {
		t.Fatalf("size %d, want 2", size)
	}
	if hits != 2 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 2/4", hits, misses)
	}

	d := newPlanCache(-1)
	if _, cached, err := d.prepare(q1); err != nil || cached {
		t.Fatalf("disabled cache: cached=%v err=%v", cached, err)
	}
	if _, cached, err := d.prepare(q1); err != nil || cached {
		t.Fatalf("disabled cache second lookup: cached=%v err=%v", cached, err)
	}
}

// Many clients hammering one server must be race-free end to end:
// shared graph, shared plan cache, shared metrics. Run with -race.
func TestServeConcurrentClients(t *testing.T) {
	s := New(testGraph(), Config{MaxConcurrent: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	queries := []string{
		`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } ORDER BY ?n LIMIT 5`,
		`SELECT DISTINCT ?a WHERE { ?s <http://ex/age> ?a } ORDER BY ?a`,
		`ASK WHERE { ?s <http://ex/name> "n7" }`,
	}
	// Two clients that miss on one text at once both parse and both count
	// as misses (cache.go), so each text is planned before the clients
	// race: from then on every lookup is a hit.
	for _, q := range queries {
		if rec := getQuery(t, s, q, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("warming %q: status %d", q, rec.Code)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				q := queries[(i+j)%len(queries)]
				resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(q))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
				var doc sparqlJSON
				if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
					errs <- err
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses, _ := s.cache.stats()
	if hits != 64 || misses != uint64(len(queries)) {
		t.Fatalf("hits=%d misses=%d, want 64 hits after %d warming misses", hits, misses, len(queries))
	}
}

// The TSV and graph writers' term encoding (rdf.Term.AppendTo) is
// N-Triples across every term kind and escape, and equals Term.String.
func TestAppendNTriplesTermParity(t *testing.T) {
	for _, c := range []struct {
		term rdf.Term
		want string
	}{
		{rdf.NewIRI("http://ex/s"), `<http://ex/s>`},
		{rdf.NewBlank("b0"), `_:b0`},
		{rdf.NewLiteral("plain"), `"plain"`},
		{rdf.NewLiteral("quo\"te back\\slash"), `"quo\"te back\\slash"`},
		{rdf.NewLiteral("line\nbreak\ttab\rret"), `"line\nbreak\ttab\rret"`},
		{rdf.NewLangLiteral("hallo", "de"), `"hallo"@de`},
		{rdf.NewTypedLiteral("42", rdf.XSDInteger), `"42"^^<` + rdf.XSDInteger + `>`},
	} {
		if got := string(c.term.AppendTo(nil)); got != c.want || c.term.String() != c.want {
			t.Fatalf("AppendTo = %q, Term.String = %q, want %q", got, c.term.String(), c.want)
		}
	}
}

// The JSON writer must emit valid JSON even for values needing escapes.
func TestServeJSONEscaping(t *testing.T) {
	g := rdf.NewGraph([]rdf.Triple{{
		S: rdf.NewIRI("http://ex/s"),
		P: rdf.NewIRI("http://ex/note"),
		O: rdf.NewLiteral("a \"quoted\"\nmulti\tline\\thing\x01"),
	}})
	s := New(g, Config{})
	rec := getQuery(t, s, `SELECT ?o WHERE { ?s <http://ex/note> ?o }`, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc sparqlJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if got := doc.Results.Bindings[0]["o"].Value; got != "a \"quoted\"\nmulti\tline\\thing\x01" {
		t.Fatalf("round-tripped value %q", got)
	}
}

// Malformed POST bodies are client errors (400); only genuinely
// unsupported methods answer 405.
func TestServePostBadForm(t *testing.T) {
	s := New(testGraph(), Config{})
	req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader("query=%zz"))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed form: status %d, want 400", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPut, "/sparql", strings.NewReader("query=x"))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT: status %d, want 405", rec.Code)
	}
}

// shardedTestServer builds a 4-shard subject-hash backend over the
// same dataset testGraph serves.
func shardedTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	sg, err := shard.BuildReplicatedByName(testGraph().Triples(), "hash-subject", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewSharded(sg, cfg)
}

// TestServeSharded pins the sharded backend end to end: a sharded
// server answers exactly what the single-graph server answers, and
// /stats reports the sharding block with routed-query counters.
func TestServeSharded(t *testing.T) {
	single := New(testGraph(), Config{})
	sharded := shardedTestServer(t, Config{})

	star := `SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a } ORDER BY ?s LIMIT 5`
	// OPTIONAL is not a sole BGP, so this one takes the scatter route.
	optional := `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n OPTIONAL { ?s <http://ex/age> ?a } } ORDER BY ?n LIMIT 3`
	for _, q := range []string{star, optional} {
		want := getQuery(t, single, q, "", nil)
		got := getQuery(t, sharded, q, "", nil)
		if got.Code != http.StatusOK {
			t.Fatalf("sharded status %d: %s", got.Code, got.Body.String())
		}
		if want.Body.String() != got.Body.String() {
			t.Fatalf("sharded response differs for %q:\nwant %s\ngot  %s", q, want.Body.String(), got.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	sharded.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Sharding struct {
			Shards           int    `json:"shards"`
			Partition        string `json:"partition"`
			SubjectColocated bool   `json:"subject_colocated"`
			Pushdown         uint64 `json:"pushdown_queries"`
			Scatter          uint64 `json:"scatter_queries"`
			Touched          uint64 `json:"shards_touched"`
			Pruned           uint64 `json:"shards_pruned"`
		} `json:"sharding"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("invalid /stats JSON: %v\n%s", err, rec.Body.String())
	}
	sh := stats.Sharding
	if sh.Shards != 4 || sh.Partition != "hash-subject" || !sh.SubjectColocated {
		t.Fatalf("sharding block %+v", sh)
	}
	// The star query pushed down; the OPTIONAL query scattered.
	if sh.Pushdown != 1 || sh.Scatter != 1 {
		t.Fatalf("route counters pushdown=%d scatter=%d, want 1/1", sh.Pushdown, sh.Scatter)
	}
	if sh.Touched == 0 {
		t.Fatalf("no shards touched: %+v", sh)
	}

	rec = httptest.NewRecorder()
	sharded.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !strings.Contains(rec.Body.String(), `"triples":128`) {
		t.Fatalf("healthz over shards: %s", rec.Body.String())
	}
}
