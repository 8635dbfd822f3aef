package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// TestAdmissionLadderDecide pins admission's two rungs: everything is
// admitted while the queue is shallow, expensive queries are shed above
// floorAt, and everything is shed above maxQueue.
func TestAdmissionLadderDecide(t *testing.T) {
	a := newAdmission(8) // floorAt 4
	cases := []struct {
		depth     int
		expensive bool
		wantShed  bool
	}{
		{1, false, false},
		{1, true, false},
		{4, true, false}, // at floorAt: still admitted
		{5, false, false},
		{5, true, true}, // expensive sheds above floorAt
		{8, false, false},
		{9, false, true}, // above maxQueue: shed everything
		{9, true, true},
	}
	for i, c := range cases {
		if shed := a.shed(c.depth, c.expensive); shed != c.wantShed {
			t.Fatalf("case %d (depth %d expensive %v): shed = %v, want %v", i, c.depth, c.expensive, shed, c.wantShed)
		}
	}
}

// TestOverloadShedImmediate pins fast-fail shedding: with the worker
// pool stuck and the queue full, a new query answers 503 immediately —
// it must not burn its (generous) deadline waiting for a slot that
// cannot free up.
func TestOverloadShedImmediate(t *testing.T) {
	s := New(testGraph(), Config{MaxConcurrent: 1, MaxQueue: 2})
	s.sem <- struct{}{} // wedge the only worker slot
	query := `SELECT ?s WHERE { ?s <http://ex/name> ?n }`

	// Two queries fill the queue (depths 1 and 2 ≤ MaxQueue).
	done := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- getQuery(t, s, query, "&timeout=30s", nil) }()
	}
	waitFor(t, func() bool { return s.admit.waiting.Load() == 2 })

	// The third sees depth 3 > MaxQueue: immediate 503, despite the
	// 30s deadline it would otherwise have been happy to wait out.
	start := time.Now()
	rec := getQuery(t, s, query, "&timeout=30s", nil)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed query took %v to answer, want immediate", elapsed)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "shed") {
		t.Fatalf("body %q, want the shed message", rec.Body.String())
	}
	if n := s.m.shedQueries.Load(); n != 1 {
		t.Fatalf("shed_queries = %d, want 1", n)
	}

	<-s.sem // free the pool; the queued pair must drain cleanly
	for i := 0; i < 2; i++ {
		if rec := <-done; rec.Code != http.StatusOK {
			t.Fatalf("queued query: status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// TestOverloadRacedServing is the overload acceptance suite, run over
// real HTTP under -race: with the pool wedged and 16 concurrent
// queries arriving, exactly MaxQueue queries queue and the rest shed
// immediately; /healthz stays responsive throughout; and once the pool
// frees, every admitted query answers byte-identically to an
// uncontended run.
func TestOverloadRacedServing(t *testing.T) {
	s := New(testGraph(), Config{MaxConcurrent: 2, MaxQueue: 4, QueryParallelism: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	query := `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } ORDER BY ?n LIMIT 5`
	qurl := ts.URL + "/sparql?query=" + url.QueryEscape(query)

	want := httpGet(t, qurl) // uncontended reference answer
	if want.code != http.StatusOK {
		t.Fatalf("reference query: status %d", want.code)
	}

	s.sem <- struct{}{} // wedge both worker slots
	s.sem <- struct{}{}
	const n = 16
	results := make(chan httpResult, n)
	for i := 0; i < n; i++ {
		go func() { results <- httpGet(t, qurl) }()
	}
	// Steady state: 4 queued (depths 1-4), 12 shed (depth 5 each time,
	// since a shed decrements the gauge right away).
	waitFor(t, func() bool {
		return s.admit.waiting.Load() == 4 && s.m.shedQueries.Load() == 12
	})

	// The control plane must answer while the data plane is saturated.
	if h := httpGet(t, ts.URL+"/healthz"); h.code != http.StatusOK {
		t.Fatalf("healthz under overload: status %d", h.code)
	}

	<-s.sem // free the pool; the queue drains
	<-s.sem
	shed, ok := 0, 0
	for i := 0; i < n; i++ {
		r := <-results
		switch r.code {
		case http.StatusServiceUnavailable:
			shed++
		case http.StatusOK:
			ok++
			if r.body != want.body {
				t.Fatalf("admitted query diverged from the uncontended answer:\nwant %q\ngot  %q", want.body, r.body)
			}
		default:
			t.Fatalf("unexpected status %d: %s", r.code, r.body)
		}
	}
	if shed != 12 || ok != 4 {
		t.Fatalf("shed %d / ok %d, want 12 / 4", shed, ok)
	}
}

// TestServeDegradedByteIdentical pins that a query admitted under a
// synthetic backlog past the expensive-query floor runs exactly as it
// would uncontended: the same bytes, and nothing shed.
func TestServeDegradedByteIdentical(t *testing.T) {
	s := New(testGraph(), Config{MaxQueue: 4})
	query := `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } ORDER BY ?n`
	want := getQuery(t, s, query, "", nil)
	if want.Code != http.StatusOK {
		t.Fatalf("clean run: status %d", want.Code)
	}
	s.admit.waiting.Add(3) // synthetic backlog: next arrival is depth 4 > floorAt 2
	defer s.admit.waiting.Add(-3)
	got := getQuery(t, s, query, "", nil)
	if got.Code != http.StatusOK {
		t.Fatalf("run under backlog: status %d: %s", got.Code, got.Body.String())
	}
	if got.Body.String() != want.Body.String() {
		t.Fatal("run under backlog diverged from the uncontended answer")
	}
	if n := s.m.shedQueries.Load(); n != 0 {
		t.Fatalf("shed_queries = %d, want 0 (a cheap query is admitted above the floor)", n)
	}
}

// TestServeMemoryBudget413 pins the serving side of per-query budgets:
// an explosive query is cut off mid-evaluation with 413 and counted,
// while a selective query under the same budget still answers — and
// the /stats resources block reports both.
func TestServeMemoryBudget413(t *testing.T) {
	s := New(cartesianGraph(512), Config{MaxQueryBytes: 32 << 10})
	rec := getQuery(t, s, `SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/q> ?y }`, "", nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("cartesian status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "memory budget") {
		t.Fatalf("body %q, want the budget message", rec.Body.String())
	}
	rec = getQuery(t, s, `SELECT * WHERE { ?a <http://ex/p> ?x }`, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("selective status %d: %s", rec.Code, rec.Body.String())
	}
	if n := s.m.budgetAborts.Load(); n != 1 {
		t.Fatalf("budget_aborts = %d, want 1", n)
	}
	charged, peak := s.m.bytesCharged.Load(), s.m.peakQueryBytes.Load()
	if charged == 0 || peak == 0 {
		t.Fatalf("bytes charged %d / peak %d, want both > 0", charged, peak)
	}
	if peak <= 32<<10 {
		t.Fatalf("peak %d, want > the %d budget (the aborting charge)", peak, 32<<10)
	}
}

// TestServePostBodyCap413 pins the boundary cap: POST bodies over
// Config.MaxBodyBytes answer 413 on both protocol encodings, and a
// small body still works.
func TestServePostBodyCap413(t *testing.T) {
	s := New(testGraph(), Config{MaxBodyBytes: 256})
	small := `SELECT ?s WHERE { ?s <http://ex/name> ?n } LIMIT 1`

	req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(small))
	req.Header.Set("Content-Type", "application/sparql-query")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("small body: status %d: %s", rec.Code, rec.Body.String())
	}

	big := small + " # " + strings.Repeat("x", 512)
	req = httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(big))
	req.Header.Set("Content-Type", "application/sparql-query")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("raw body over cap: status %d: %s", rec.Code, rec.Body.String())
	}

	form := url.Values{"query": {big}}
	req = httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("form body over cap: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestCostShedExpensiveFirst pins cost-aware admission: under a
// backlog past the expensive-query floor, a cartesian-shaped query (estimate
// over the default 4×triples threshold) is shed immediately while a
// selective query arriving at the same depth is still admitted.
func TestCostShedExpensiveFirst(t *testing.T) {
	s := New(cartesianGraph(256), Config{MaxConcurrent: 1, MaxQueue: 4, QueryParallelism: 1})
	if s.costThreshold != 4*512 {
		t.Fatalf("costThreshold = %d, want %d (4x triples)", s.costThreshold, 4*512)
	}
	cheap := `SELECT * WHERE { ?a <http://ex/p> ?x } LIMIT 1`
	expensive := `SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/q> ?y } LIMIT 1`

	s.sem <- struct{}{} // wedge the pool
	done := make(chan *httptest.ResponseRecorder, 3)
	for i := 0; i < 2; i++ {
		go func() { done <- getQuery(t, s, cheap, "&timeout=30s", nil) }()
	}
	waitFor(t, func() bool { return s.admit.waiting.Load() == 2 })

	// Depth 3 > floorAt (2): the expensive query sheds...
	rec := getQuery(t, s, expensive, "&timeout=30s", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expensive at depth 3: status %d: %s", rec.Code, rec.Body.String())
	}
	// ...while a cheap query at the same depth is admitted.
	go func() { done <- getQuery(t, s, cheap, "&timeout=30s", nil) }()
	waitFor(t, func() bool { return s.admit.waiting.Load() == 3 })

	<-s.sem
	for i := 0; i < 3; i++ {
		if rec := <-done; rec.Code != http.StatusOK {
			t.Fatalf("cheap query: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if n := s.m.shedQueries.Load(); n != 1 {
		t.Fatalf("shed_queries = %d, want 1", n)
	}
}

// TestStatsResourcesBlock checks /stats carries the governance block
// with the configured budget and queue capacity.
func TestStatsResourcesBlock(t *testing.T) {
	s := New(testGraph(), Config{MaxQueryBytes: 1 << 20, MaxConcurrent: 2})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`"resources"`, `"max_query_bytes":1048576`, `"queue_capacity":8`,
		`"budget_aborts":0`, `"shed_queries":0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("stats missing %s: %s", want, body)
		}
	}
}

type httpResult struct {
	code int
	body string
}

func httpGet(t *testing.T, url string) httpResult {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return httpResult{}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("GET %s: reading body: %v", url, err)
	}
	return httpResult{code: resp.StatusCode, body: string(b)}
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
