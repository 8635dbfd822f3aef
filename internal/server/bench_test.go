package server

// Serving-path benchmarks. The cached/uncached pair quantifies what the
// prepared-plan cache buys: a hit skips lexing, parsing, slot-table
// construction, and (through the Prepared per-graph plan memo) BGP
// constant encoding and join ordering — the request goes straight to
// evaluation and streaming. Run with
//
//	go test ./internal/server -run xxx -bench . -benchmem

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// BenchmarkServeCachedQuery serves the same SELECT through the full
// HTTP handler with the plan cache enabled (every iteration after the
// first is a hit) and disabled (every iteration parses and compiles).
func BenchmarkServeCachedQuery(b *testing.B) {
	g := testGraph()
	target := "/sparql?query=" + url.QueryEscape(
		`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a } ORDER BY ?n LIMIT 10`)
	run := func(b *testing.B, s *Server) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	}
	b.Run("cache-hit", func(b *testing.B) {
		s := New(g, Config{})
		rec := httptest.NewRecorder() // warm: the single miss
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		run(b, s)
		hits, misses, _ := s.cache.stats()
		if misses != 1 || hits != uint64(b.N) {
			b.Fatalf("hits=%d misses=%d over %d requests: cache not exercised", hits, misses, b.N)
		}
	})
	// The same hit from GOMAXPROCS goroutines at once: what the handler's
	// shared state (plan cache, shape registry, counters) costs when
	// requests overlap. Run with -cpu 1,2,... and -mutexprofile.
	b.Run("cache-hit-parallel", func(b *testing.B) {
		s := New(g, Config{})
		rec := httptest.NewRecorder() // warm: the single miss
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					b.Errorf("status %d", rec.Code)
					return
				}
			}
		})
	})
	b.Run("cache-off", func(b *testing.B) {
		run(b, New(g, Config{PlanCacheSize: -1}))
	})
}

// countingResponse is an http.ResponseWriter that discards the body and
// counts the Writes and bytes it was handed: the handler's write pattern
// without a recorder's growing buffer.
type countingResponse struct {
	header        http.Header
	code          int
	writes, bytes int
}

func (c *countingResponse) Header() http.Header  { return c.header }
func (c *countingResponse) WriteHeader(code int) { c.code = code }
func (c *countingResponse) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// benchServeStream serves a 32,768-row SELECT (id-space rows, each
// cell decoded only as it is written) through the full handler, warm — one
// response before the timer has filled the format's rendered-term table
// — and reports, next to MB/s and allocs/op, how many Writes and bytes
// one response hands the ResponseWriter (CI pins writes/op to bytes/op
// ÷ 64 KiB + 2), what the table holds per stored term (CI pins B/term)
// and how many terms the timed responses still added to it (none: a
// warm table only serves). No term repeats within this result, and its
// 65,536 terms outgrow 32 B × 65,536 triples as JSON objects, so the
// JSON run also carries the cells a full table leaves to be rendered.
func benchServeStream(b *testing.B, format string) {
	g := cartesianGraph(1 << 15) // SELECT over one branch: 32,768 rows
	s := New(g, Config{})
	terms := s.jsonTerms
	if format == "tsv" {
		terms = s.tsvTerms
	}
	target := "/sparql?format=" + format + "&query=" + url.QueryEscape(
		`SELECT ?a ?x WHERE { ?a <http://ex/p> ?x }`)
	var resp countingResponse
	serve := func() {
		resp = countingResponse{header: http.Header{}}
		s.ServeHTTP(&resp, httptest.NewRequest(http.MethodGet, target, nil))
		if resp.code != 0 && resp.code != http.StatusOK {
			b.Fatalf("status %d", resp.code)
		}
		if resp.bytes < 1<<19 {
			b.Fatalf("%d-byte body: the result should span many windows", resp.bytes)
		}
	}
	serve()
	warm := terms.stored.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.SetBytes(int64(resp.bytes))
	b.ReportMetric(float64(resp.writes), "writes/op")
	b.ReportMetric(float64(resp.bytes), "bytes/op")
	b.ReportMetric(float64(terms.bytes.Load())/float64(terms.stored.Load()), "B/term")
	b.ReportMetric(float64(terms.stored.Load()-warm)/float64(b.N), "first-renders/op")
}

// BenchmarkServeStreamJSON measures the streaming JSON writer on a
// multi-megabyte result.
func BenchmarkServeStreamJSON(b *testing.B) { benchServeStream(b, "json") }

// BenchmarkServeStreamTSV measures the streaming TSV writer on the same
// rows.
func BenchmarkServeStreamTSV(b *testing.B) { benchServeStream(b, "tsv") }
