package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := New("query")
	bgp := tr.Begin("bgp")
	bgp.SetInt("patterns", 2)
	bgp.SetStr("join_order", "1,0")
	seed := tr.Begin("seed_scan")
	seed.SetInt("rows", 100)
	seed.SetInt("morsels", 5)
	tr.End(seed)
	tr.End(bgp)
	mod := tr.Begin("modifiers")
	mod.SetInt("rows_in", 100)
	mod.SetInt("rows_in", 250) // overwrite
	tr.End(mod)
	tr.Finish()

	root := tr.Root()
	if root.Name != "query" || len(root.Children) != 2 {
		t.Fatalf("root = %q with %d children, want query with 2", root.Name, len(root.Children))
	}
	if got := root.Children[0].Children[0].Name; got != "seed_scan" {
		t.Fatalf("nested child = %q, want seed_scan", got)
	}
	if v, ok := root.Find("seed_scan").Int("morsels"); !ok || v != 5 {
		t.Fatalf("morsels = %d,%v, want 5,true", v, ok)
	}
	if v, ok := root.Find("modifiers").Int("rows_in"); !ok || v != 250 {
		t.Fatalf("rows_in = %d,%v, want 250,true", v, ok)
	}
	if s, ok := root.Find("bgp").Str("join_order"); !ok || s != "1,0" {
		t.Fatalf("join_order = %q,%v", s, ok)
	}
	if root.Duration <= 0 {
		t.Fatalf("root duration %v not set by Finish", root.Duration)
	}
	for _, sp := range []*Span{root.Children[0], root.Children[1], root.Children[0].Children[0]} {
		if !sp.ended || sp.Duration < 0 {
			t.Fatalf("span %q not properly ended", sp.Name)
		}
	}
}

func TestEndClosesOpenDescendants(t *testing.T) {
	tr := New("query")
	outer := tr.Begin("outer")
	tr.Begin("inner") // an early-exit path leaves inner open
	tr.End(outer)
	if cur := tr.Current(); cur != tr.Root() {
		t.Fatalf("current = %q, want root", cur.Name)
	}
	inner := tr.Root().Find("inner")
	if !inner.ended {
		t.Fatal("inner span left open by End(outer)")
	}
	// Ending a span twice (or a span not on the stack) is a no-op.
	tr.End(outer)
	tr.Finish()
	tr.Finish()
}

func TestSelfTimeAndTopSelf(t *testing.T) {
	tr := New("query")
	root := tr.Root()
	root.Duration = 10 * time.Millisecond
	root.ended = true
	a := &Span{Name: "a", Duration: 6 * time.Millisecond}
	b := &Span{Name: "b", Duration: 3 * time.Millisecond}
	a.Children = []*Span{{Name: "a1", Duration: 2 * time.Millisecond}}
	root.Children = []*Span{a, b}

	if got := root.SelfTime(); got != 1*time.Millisecond {
		t.Fatalf("root self = %v, want 1ms", got)
	}
	if got := a.SelfTime(); got != 4*time.Millisecond {
		t.Fatalf("a self = %v, want 4ms", got)
	}
	top := tr.TopSelf(3)
	want := []string{"a", "b", "a1"}
	if len(top) != 3 {
		t.Fatalf("TopSelf returned %d spans", len(top))
	}
	for i, w := range want {
		if top[i].Name != w {
			t.Fatalf("TopSelf[%d] = %q, want %q (got %+v)", i, top[i].Name, w, top)
		}
	}
	// A span whose children exceed its own duration clamps at zero.
	c := &Span{Name: "c", Duration: time.Millisecond,
		Children: []*Span{{Duration: 2 * time.Millisecond}}}
	if got := c.SelfTime(); got != 0 {
		t.Fatalf("clamped self = %v, want 0", got)
	}
}

func TestJSONRenderValid(t *testing.T) {
	tr := New("query")
	sp := tr.Begin("bgp")
	sp.SetInt("rows", 42)
	sp.SetStr("note", `quote " and \ slash`)
	tr.End(sp)
	tr.Finish()
	var doc struct {
		Name     string `json:"name"`
		Children []struct {
			Name  string `json:"name"`
			Attrs struct {
				Rows int64  `json:"rows"`
				Note string `json:"note"`
			} `json:"attrs"`
		} `json:"children"`
	}
	raw := tr.JSON()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSON() produced invalid JSON: %v\n%s", err, raw)
	}
	if doc.Name != "query" || len(doc.Children) != 1 {
		t.Fatalf("unexpected document: %s", raw)
	}
	if doc.Children[0].Attrs.Rows != 42 || doc.Children[0].Attrs.Note != `quote " and \ slash` {
		t.Fatalf("attrs did not round-trip: %s", raw)
	}
}

func TestTextRender(t *testing.T) {
	tr := New("query")
	sp := tr.Begin("bgp")
	sp.SetInt("patterns", 2)
	child := tr.Begin("seed_scan")
	child.SetInt("rows", 7)
	tr.End(child)
	tr.End(sp)
	tr.Finish()
	text := tr.Text()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), text)
	}
	if !strings.HasPrefix(lines[0], "query") ||
		!strings.HasPrefix(lines[1], "  bgp") ||
		!strings.HasPrefix(lines[2], "    seed_scan") {
		t.Fatalf("indentation wrong:\n%s", text)
	}
	if !strings.Contains(lines[1], "patterns=2") || !strings.Contains(lines[2], "rows=7") {
		t.Fatalf("attrs missing:\n%s", text)
	}
	if !strings.Contains(lines[0], "ms") {
		t.Fatalf("duration missing:\n%s", text)
	}
}

// validateExposition is a minimal Prometheus text-format checker: every
// non-comment line must be a valid sample, every sample's family must
// have been declared by HELP+TYPE, and histogram buckets must be
// cumulative and capped by +Inf == _count.
func validateExposition(t *testing.T, body []byte) map[string]string {
	t.Helper()
	types := map[string]string{}
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)
	var curHist string
	var lastCum float64
	histCum := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := m[1]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && types[b] == "histogram" {
				base = b
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no TYPE declaration", name)
		}
		if strings.HasSuffix(name, "_bucket") && types[base] == "histogram" {
			v, _ := strconv.ParseFloat(m[3], 64)
			if base != curHist {
				curHist, lastCum = base, 0
			}
			if v < lastCum {
				t.Fatalf("histogram %s buckets not cumulative: %v < %v", base, v, lastCum)
			}
			lastCum = v
			if strings.Contains(m[2], `le="+Inf"`) {
				histCum[base] = v
			}
		}
		if strings.HasSuffix(name, "_count") && types[base] == "histogram" {
			v, _ := strconv.ParseFloat(m[3], 64)
			if inf, ok := histCum[base]; ok && inf != v {
				t.Fatalf("histogram %s: +Inf bucket %v != count %v", base, inf, v)
			}
		}
	}
	return types
}

func TestMetricsWriterExposition(t *testing.T) {
	var w MetricsWriter
	w.Counter("rdf_queries_served_total", "Queries answered successfully.", 42)
	w.GaugeVec("rdf_in_flight_queries", "Queries evaluating right now.", []Sample{{Value: 3}})
	w.GaugeVec("rdf_build_info", "Build facts.", []Sample{{Labels: []Label{{"go_version", `go1.24 "x"`}}, Value: 1}})
	w.Histogram("rdf_query_duration_ms", "Latency.",
		[]float64{1, 2.5, 10}, []uint64{3, 0, 2, 1}, 37.5)
	body := w.Bytes()

	types := validateExposition(t, body)
	if types["rdf_queries_served_total"] != "counter" {
		t.Fatalf("counter family missing: %v", types)
	}
	if types["rdf_in_flight_queries"] != "gauge" || types["rdf_build_info"] != "gauge" {
		t.Fatalf("gauge families missing: %v", types)
	}
	if types["rdf_query_duration_ms"] != "histogram" {
		t.Fatalf("histogram family missing: %v", types)
	}
	s := string(body)
	for _, want := range []string{
		`rdf_query_duration_ms_bucket{le="1"} 3`,
		`rdf_query_duration_ms_bucket{le="2.5"} 3`,
		`rdf_query_duration_ms_bucket{le="10"} 5`,
		`rdf_query_duration_ms_bucket{le="+Inf"} 6`,
		`rdf_query_duration_ms_sum 37.5`,
		`rdf_query_duration_ms_count 6`,
		`rdf_build_info{go_version="go1.24 \"x\""} 1`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("exposition missing %q:\n%s", want, s)
		}
	}
}

func TestSlowQueryLogger(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowQueryLogger(&buf)
	err := l.Log(SlowQueryEntry{
		RequestID:     "abc123",
		QueryHash:     QueryHash("SELECT ?s WHERE { ?s ?p ?o }"),
		Route:         "scatter-gather",
		Shards:        4,
		ShardsTouched: 3,
		DurationMs:    41.25,
		TopSpans: []SpanSelf{
			{Name: "seed_scan", SelfMs: 20.5},
			{Name: "join", SelfMs: 10.1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line is not valid JSON: %v\n%s", err, line)
	}
	if rec["request_id"] != "abc123" || rec["route"] != "scatter-gather" {
		t.Fatalf("fields wrong: %v", rec)
	}
	if rec["query_hash"] == "" {
		t.Fatal("query hash empty")
	}
	spans, ok := rec["top_spans"].([]any)
	if !ok || len(spans) != 2 {
		t.Fatalf("top_spans wrong: %v", rec["top_spans"])
	}
}

// TestSlowQueryLoggerConcurrent pins the no-interleaving contract:
// many goroutines logging to one shared writer produce exactly one
// valid JSON line per record, each line whole.
func TestSlowQueryLoggerConcurrent(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	l := NewSlowQueryLogger(lockedWriter)

	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := l.Log(SlowQueryEntry{
					RequestID:       fmt.Sprintf("w%d-%d", w, i),
					QueryHash:       QueryHash(fmt.Sprintf("SELECT %d", i)),
					PlanFingerprint: "aaaa000011112222",
					Route:           "local",
					DurationMs:      float64(i),
					TopSpans:        []SpanSelf{{Name: "join", SelfMs: 1.5}},
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != workers*perWorker {
		t.Fatalf("got %d lines, want %d", len(lines), workers*perWorker)
	}
	seen := make(map[string]bool, len(lines))
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("interleaved or invalid line: %v\n%s", err, line)
		}
		id, _ := rec["request_id"].(string)
		if seen[id] {
			t.Fatalf("duplicate request_id %q", id)
		}
		seen[id] = true
		if rec["plan_fingerprint"] != "aaaa000011112222" {
			t.Fatalf("plan_fingerprint wrong in %s", line)
		}
	}
}

// writerFunc adapts a function to io.Writer for test writers.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestQueryHashStable(t *testing.T) {
	a, b := QueryHash("SELECT 1"), QueryHash("SELECT 1")
	if a != b || len(a) != 16 {
		t.Fatalf("hash unstable or wrong width: %q vs %q", a, b)
	}
	if QueryHash("SELECT 2") == a {
		t.Fatal("distinct queries hashed equal")
	}
}
