//go:build linux

package main

import (
	"encoding/json"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// These tests run under tier-1 (go test ./...): they start no child
// process and take well under two seconds together.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// smallSpec shrinks a workload to test size without changing how its
// sequence is derived.
func smallSpec(t *testing.T, name string) spec {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	s.universities = 2
	if name == "lookup" {
		s.warmupUnits, s.segmentUnits = 60, 90
	} else {
		s.warmupUnits, s.segmentUnits = 1, 2
	}
	return s
}

// templateMix counts a phase's requests by the text before the first
// constant: the template, whatever it was instantiated with.
func templateMix(q *sequence, idx []int) map[string]int {
	mix := map[string]int{}
	for _, i := range idx {
		text := q.texts[i]
		if at := strings.Index(text, "univ"); at >= 0 {
			text = text[:at]
		}
		mix[text]++
	}
	return mix
}

func TestSequenceIsPureFunctionOfSeed(t *testing.T) {
	for _, name := range []string{"lookup", "analytic", "sharded"} {
		s := smallSpec(t, name)
		a, b, c := buildSequence(s, 7), buildSequence(s, 7), buildSequence(s, 8)
		if a.hash() != b.hash() || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
		if !reflect.DeepEqual(templateMix(a, a.warmup), templateMix(c, c.warmup)) ||
			!reflect.DeepEqual(templateMix(a, a.all()), templateMix(c, c.all())) {
			t.Errorf("%s: template mix differs between seeds", name)
		}
		for i, seg := range a.measure {
			if len(seg) != len(a.measure[0]) {
				t.Errorf("%s: segment %d has %d requests, segment 0 has %d", name, i, len(seg), len(a.measure[0]))
			}
		}
	}
	// Lookup constants move with the seed: the hottest texts differ.
	s := smallSpec(t, "lookup")
	if a, c := buildSequence(s, 7), buildSequence(s, 8); a.texts[0] == c.texts[0] && a.texts[1] == c.texts[1] {
		t.Error("lookup: different seeds drew the same leading constants")
	}
}

func TestScaledKeepsSegmentsAndBoots(t *testing.T) {
	s, _ := specByName("lookup")
	if got := s.scaled(baseSeconds).segmentUnits; got != s.segmentUnits {
		t.Errorf("scaled(baseSeconds) changed segmentUnits: %d != %d", got, s.segmentUnits)
	}
	if got := s.scaled(baseSeconds / 2).segmentUnits; got != s.segmentUnits/2 {
		t.Errorf("half the seconds: %d units, want %d", got, s.segmentUnits/2)
	}
	a, _ := specByName("assess")
	if got := a.scaled(1).segmentUnits; got != 1 {
		t.Errorf("scaling never drops below one unit per segment, got %d", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if got := samplesBeyond(14000, 95); got != 700 {
		t.Errorf("samplesBeyond(14000, 95) = %d", got)
	}
	if got := relSpread([]float64{90, 100, 110}); !near(got, 0.2) {
		t.Errorf("relSpread = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, the acceptance driver's rule.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7.1, 7.3, 6.9, 7.0, 7.6, 7.2}, 6.975, 7.375},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestProcParsers(t *testing.T) {
	stat := []byte("4242 (rdf serve) x) S 1 4242 4242 0 -1 4194304 102 0 0 0 150 25 0 0 20 0 9 0 281895 2703360 312\n")
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 1750*time.Millisecond {
		t.Errorf("parseProcStat = %v, %v; want 1.75s", cpu, err)
	}
	if _, err := parseProcStat([]byte("garbage")); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	status := []byte("Name:\trdfserve\nVmPeak:\t 2000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   99999 kB\n")
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 123456 {
		t.Errorf("VmHWM = %v, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("parseStatusKB found a missing key")
	}
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu <= 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
}

// TestStatsDeltaFixture parses two /stats documents captured from a
// live sharded server (3 queries before, 18 served and one rejected
// parse after) and checks the delta arithmetic.
func TestStatsDeltaFixture(t *testing.T) {
	load := func(name string) serverStats {
		raw, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := parseServerStats(raw)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before, after := load("stats_before.json"), load("stats_after.json")
	if before.Served != 3 || after.Served != 21 || after.Failed != 1 {
		t.Fatalf("fixture counters: before %d, after %d served, %d failed", before.Served, after.Served, after.Failed)
	}
	d := statsDelta(before, after)
	want := map[string]float64{
		"server.plan_cache_hit_ratio":    12.0 / 19,
		"shard.pushdown_share":           4.0 / 18,
		"shard.shards_touched_per_query": 4,
		"shard.shards_pruned_per_query":  0,
		"shard.attempts_per_query":       160.0 / 18,
		"server.shed_queries":            0,
		"server.rejected":                0,
		"shard.failovers":                0,
	}
	for k, v := range want {
		if !near(d[k], v) {
			t.Errorf("%s = %v, want %v", k, d[k], v)
		}
	}
	// Means are cumulative in /stats; the delta recovers the interval's.
	wantE2E := (after.Latency.MeanMs*21 - before.Latency.MeanMs*3) / 18
	if !near(d["server.e2e_mean_ms"], wantE2E) || wantE2E <= 0 {
		t.Errorf("server.e2e_mean_ms = %v, want %v", d["server.e2e_mean_ms"], wantE2E)
	}
	sum := d["server.exec_mean_ms"] + d["server.serialize_mean_ms"] + d["server.overhead_mean_ms"]
	if !near(sum, d["server.e2e_mean_ms"]) {
		t.Errorf("exec + serialize + overhead = %v, e2e = %v", sum, d["server.e2e_mean_ms"])
	}
	if _, err := tabulate(perLayer, d); err != nil {
		t.Errorf("statsDelta produced an undeclared metric: %v", err)
	}
}

// TestLedgerClosesFixture feeds a captured span tree to the query
// ledger: the parts plus unattributed must equal the client-observed
// whole, and every span's self time must land in exactly one part.
func TestLedgerClosesFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	root, err := parseTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	var l queryLedger
	l.add(root, 400*time.Microsecond)
	l.add(root, 600*time.Microsecond)
	parts, whole, unattributed := l.parts()
	sum := 0.0
	for _, v := range parts {
		sum += v
	}
	if whole != 500 || !near(sum+unattributed, whole) {
		t.Errorf("parts %v + unattributed %v != whole %v", sum, unattributed, whole)
	}
	// Inside the server the identity is exact up to the renderer's
	// truncation of every span to whole µs: Σ self (root included)
	// equals the root span's duration.
	selfSum, spans := int64(0), int64(0)
	root.walk(func(s *span) { selfSum += s.SelfUs; spans++ })
	if diff := root.DurationUs - selfSum; diff < 0 || diff > spans {
		t.Errorf("Σ self_us = %d over %d spans, root duration = %d", selfSum, spans, root.DurationUs)
	}
	m := l.metrics()
	if m["shard.scatter_us"] <= 0 || m["sparql.join_us"] <= 0 {
		t.Errorf("fixture is a scatter-gather join; ledger metrics %v", m)
	}
	if !near(m["obs.attributed_share"]*whole+m["obs.unattributed_us"], whole) {
		t.Errorf("attributed_share and unattributed_us do not close: %v", m)
	}
	if m["sparql.scan_rows_per_result"] < 1 {
		t.Errorf("scan_rows_per_result = %v, want >= 1", m["sparql.scan_rows_per_result"])
	}
	if _, err := tabulate(perLayer, m); err != nil {
		t.Errorf("ledger produced an undeclared metric: %v", err)
	}
	if _, err := parseTrace([]byte(`{"request_id":"x"}`)); err == nil {
		t.Error("parseTrace accepted a document without a span tree")
	}
}

func TestJudge(t *testing.T) {
	lower := bound{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := bound{Name: "throughput_qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		b        bound
		old, new []float64
		want     string
	}{
		{lower, steady, []float64{101, 102, 100, 101, 101}, verdictUnchanged},
		{lower, steady, []float64{120, 121, 119, 120, 120}, verdictRegression},
		{lower, steady, []float64{80, 81, 79, 80, 80}, verdictImproved},
		{higher, steady, []float64{80, 81, 79, 80, 80}, verdictRegression},
		{higher, steady, []float64{120, 121, 119, 120, 120}, verdictImproved},
		// Spread wider than the bound: never "unchanged".
		{lower, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 125, 95, 105}, verdictUnresolved},
		// ... unless every new run beats every old run.
		{lower, []float64{80, 100, 120, 90, 110}, []float64{50, 55, 60, 52, 58}, verdictImproved},
	}
	for i, c := range cases {
		if got, _, _ := judge(c.b, c.old, c.new); got != c.want {
			t.Errorf("case %d: judge = %s, want %s", i, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables pins the contract file to the tables
// the program reports from, so the two cannot drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []bound `json:"end_to_end"`
		PerLayer   []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds != baseSeconds {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []bound, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d implemented", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: file has %+v, program has %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, b := range doc.EndToEnd {
		if b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v", b.Name, b.Bound)
		}
		if b.Bound > doc.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", b.Name)
		}
	}
}

// TestSmokeInProcess drives the real load generator against in-process
// servers over a loopback socket: a 2-university graph, single and
// sharded+replicated, every response verified against the oracle.
func TestSmokeInProcess(t *testing.T) {
	s := smallSpec(t, "sharded")
	s.segmentUnits = 1
	seq := buildSequence(s, 3)
	triples := workload.GenerateUniversity(s.datasetConfig(3))
	oracle, err := buildOracle(rdf.NewGraph(triples), seq.texts)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := shard.BuildReplicatedByName(triples, "hash-subject", s.shards, s.replicas)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]http.Handler{
		"single":  server.New(rdf.NewGraph(triples), server.Config{}).Handler(),
		"sharded": server.NewSharded(sg, server.Config{}).Handler(),
	}
	for name, h := range backends {
		srv := httptest.NewServer(h)
		lc := newLoadClient(srv.URL, seq.texts, oracle)
		before, err := fetchServerStats(lc.hc, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		seg, samples, err := lc.measureSegment(seq.measure[0], os.Getpid())
		if err != nil {
			t.Fatal(err)
		}
		after, err := fetchServerStats(lc.hc, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Failed != 0 || seg.Operations != len(seq.measure[0]) || len(samples) != seg.Operations {
			t.Errorf("%s: %d of %d operations failed verification", name, seg.Failed, seg.Operations)
		}
		if seg.QPS <= 0 || seg.P50Ms <= 0 || seg.P95Ms < seg.P50Ms || seg.MaxMs < seg.P99Ms || seg.BytesPerReq <= 0 {
			t.Errorf("%s: implausible segment %+v", name, seg)
		}
		if got := int(after.Served - before.Served); got != seg.Operations {
			t.Errorf("%s: server counted %d served, client sent %d", name, got, seg.Operations)
		}
		if name == "sharded" && statsDelta(before, after)["shard.shards_touched_per_query"] <= 0 {
			t.Errorf("sharded backend touched no shards")
		}

		// A wrong oracle must be caught: the verification is real.
		bad := append([]answer(nil), oracle...)
		bad[seq.measure[0][0]].hash++
		lc.oracle = bad
		if sm := lc.send(seq.measure[0][:1], nil); sm[0].ok {
			t.Errorf("%s: a response that mismatches the oracle passed", name)
		}
		lc.close()
		srv.Close()
	}

	e2e, layer := segmentMedians([]segmentRaw{
		{Operations: 10, QPS: 90, P50Ms: 1, P95Ms: 3, CPUMsPerQ: 0.5, ServerCPUS: 3, ClientCPUS: 1},
		{Operations: 10, QPS: 100, P50Ms: 2, P95Ms: 4, CPUMsPerQ: 0.4, ServerCPUS: 3, ClientCPUS: 1, Failed: 1},
		{Operations: 10, QPS: 110, P50Ms: 3, P95Ms: 5, CPUMsPerQ: 0.6, ServerCPUS: 3, ClientCPUS: 1},
	})
	if e2e["throughput_qps"] != 100 || e2e["latency_p50_ms"] != 2 || e2e["latency_p95_ms"] != 4 || e2e["cpu_ms_per_query"] != 0.5 {
		t.Errorf("segmentMedians e2e = %v", e2e)
	}
	if !near(layer["client.segment_spread"], 0.2) || !near(layer["client.cpu_share"], 0.25) || !near(layer["client.error_share"], 1.0/30) {
		t.Errorf("segmentMedians layer = %v", layer)
	}
}

// TestResultLine pins the driver contract: exactly four keys, and the
// metric set follows the trace mode.
func TestResultLine(t *testing.T) {
	e2e, err := tabulate(endToEnd, map[string]float64{"setup_s": 1.5, "throughput_qps": 10})
	if err != nil {
		t.Fatal(err)
	}
	layer, err := tabulate(perLayer, map[string]float64{"rdf.triples": 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tabulate(perLayer, map[string]float64{"no.such.metric": 1}); err == nil {
		t.Error("tabulate accepted an undeclared metric")
	}
	for _, traced := range []bool{false, true} {
		r := &runResult{Traced: traced, Correct: true, Attempted: 7, EndToEnd: e2e, PerLayer: layer}
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(r.resultLine()), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
			t.Errorf("result line keys: %v", slices.Sorted(maps.Keys(line)))
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if traced {
			want = len(perLayer)
		}
		if len(metrics) != want {
			t.Errorf("traced=%v: %d metrics on the result line, want %d", traced, len(metrics), want)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", len(perLayer))
	}
}
