//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/systems"
)

// metricDef declares one metric: its name and unit as printed, and
// which direction is better (for a layer metric: the direction an
// optimisation of that layer would move it; sizes and counts that only
// describe the run are marked arbitrarily). Bounds live only in
// BENCHMARK.json (the file the acceptance driver reads), and a unit
// test pins that file's lists to these tables.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service (or of the assessment
// harness) would see; the same six are reported for every workload.
// The issue's seventh, error_share, is zero on every healthy run and
// so cannot be a bounded ratio metric; failures are reported through
// the result line's correct/attempted/failed instead and as the layer
// metric client.error_share.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
	{"throughput_qps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"cpu_ms_per_query", "ms", "lower"},
}

// engineMetric is the systems.<engine>.ms_per_pass layer-metric name
// of one surveyed system: metric names are limited to letters, digits,
// '_', '.' and '-', so "Spar(k)ql" reads "sparkql".
func engineMetric(engine string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + 'a' - 'A'
		}
		return -1
	}, engine)
	return "systems." + clean + ".ms_per_pass"
}

// perLayer are the single-layer metrics of the traced run. Layers are
// this repo's packages plus the load generator ("client") and the
// socket between the two ("http"). A workload that does not run a
// layer reports 0 for it. README "How the metrics interact" says which
// end-to-end metric each group should move, on which workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// client: run-quality indicators; they move nothing.
		{"client.latency_p99_ms", "ms", "lower"},
		{"client.latency_max_ms", "ms", "lower"},
		{"client.bytes_per_query", "B", "lower"},
		{"client.distinct_texts", "count", "higher"},
		{"client.segment_spread", "ratio", "lower"},
		{"client.cpu_share", "ratio", "lower"},
		{"client.error_share", "ratio", "lower"},
		{"http.transport_mean_ms", "ms", "lower"},
		// server: /stats delta over the measured part, untraced.
		{"server.e2e_mean_ms", "ms", "lower"},
		{"server.exec_mean_ms", "ms", "lower"},
		{"server.serialize_mean_ms", "ms", "lower"},
		{"server.overhead_mean_ms", "ms", "lower"},
		{"server.plan_cache_hit_ratio", "ratio", "higher"},
		{"server.morsels_per_query", "count", "higher"},
		{"server.parallel_query_share", "ratio", "higher"},
		{"server.shed_queries", "count", "lower"},
		{"server.degraded_queries", "count", "lower"},
		{"server.rejected", "count", "lower"},
		{"server.timeouts", "count", "lower"},
		{"server.boot_cpu_s", "s", "lower"},
		{"server.rss_boot_mb", "MB", "lower"},
		// sparql: span self-times of the traced replay (mean µs per
		// query) and timed public calls.
		{"sparql.parse_us", "us", "lower"},
		{"sparql.bgp_us", "us", "lower"},
		{"sparql.scan_us", "us", "lower"},
		{"sparql.join_us", "us", "lower"},
		{"sparql.filter_us", "us", "lower"},
		{"sparql.modifiers_us", "us", "lower"},
		{"sparql.scan_rows_per_result", "ratio", "lower"},
		{"sparql.prepare_us", "us", "lower"},
		{"sparql.run_serial_us", "us", "lower"},
		{"sparql.run_parallel_us", "us", "lower"},
		{"sparql.parallel_speedup", "ratio", "higher"},
		// shard: trace spans, /stats counters, and the in-process build.
		{"shard.scatter_us", "us", "lower"},
		{"shard.pushdown_us", "us", "lower"},
		{"shard.gather_us", "us", "lower"},
		{"shard.pushdown_share", "ratio", "higher"},
		{"shard.shards_touched_per_query", "count", "lower"},
		{"shard.shards_pruned_per_query", "count", "higher"},
		{"shard.attempts_per_query", "count", "lower"},
		{"shard.failovers", "count", "lower"},
		{"shard.retries", "count", "lower"},
		{"shard.hedges", "count", "lower"},
		{"shard.build_s", "s", "lower"},
		{"shard.heap_mb", "MB", "lower"},
		{"shard.vs_single_ratio", "ratio", "lower"},
		// obs: the measured cost of observing.
		{"obs.trace_overhead_ratio", "ratio", "lower"},
		{"obs.attributed_share", "ratio", "higher"},
		{"obs.unattributed_us", "us", "lower"},
		// rdf: the boot ledger from timed public calls.
		{"rdf.parse_s", "s", "lower"},
		{"rdf.graph_build_s", "s", "lower"},
		{"rdf.encode_s", "s", "lower"},
		{"rdf.stats_s", "s", "lower"},
		{"rdf.parse_heap_mb", "MB", "lower"},
		{"rdf.graph_heap_mb", "MB", "lower"},
		{"rdf.encoded_heap_mb", "MB", "lower"},
		{"rdf.bytes_per_triple", "B", "lower"},
		{"rdf.triples", "count", "higher"},
		{"rdf.dict_terms", "count", "higher"},
		{"boot.unattributed_s", "s", "lower"},
		// spark + systems + core: the assessment path, per pass.
		{"spark.stages", "count", "lower"},
		{"spark.tasks", "count", "lower"},
		{"spark.shuffle_records", "count", "lower"},
		{"spark.shuffle_bytes", "B", "lower"},
		{"spark.broadcast_records", "count", "lower"},
		{"spark.records_read", "count", "lower"},
	}
	for _, e := range systems.AllEngines(assessConf) {
		defs = append(defs, metricDef{engineMetric(e.Info().Name), "ms", "lower"})
	}
	return append(defs,
		metricDef{"systems.unsupported_cells", "count", "lower"},
		metricDef{"core.reference_eval_ms", "ms", "lower"})
}()

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// segmentRaw is the raw reading of one measured segment.
type segmentRaw struct {
	Operations  int     `json:"operations"`
	Failed      int     `json:"failed"`
	WallS       float64 `json:"wall_s"`
	ServerCPUS  float64 `json:"server_cpu_s"`
	ClientCPUS  float64 `json:"client_cpu_s"`
	QPS         float64 `json:"throughput_qps"`
	P50Ms       float64 `json:"latency_p50_ms"`
	P95Ms       float64 `json:"latency_p95_ms"`
	P99Ms       float64 `json:"latency_p99_ms"`
	MaxMs       float64 `json:"latency_max_ms"`
	CPUMsPerQ   float64 `json:"cpu_ms_per_query"`
	BeyondP95   int     `json:"samples_beyond_p95"`
	BytesPerReq float64 `json:"bytes_per_query"`
}

// runResult is one run's self-describing result document.
type runResult struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Seconds      int                    `json:"seconds"`
	Traced       bool                   `json:"traced"`
	Commit       string                 `json:"commit"`
	NProc        int                    `json:"nproc"`
	GOMAXPROCS   int                    `json:"gomaxprocs"`
	GoVersion    string                 `json:"go_version"`
	Triples      int                    `json:"triples"`
	ServerFlags  []string               `json:"rdfserve_flags"`
	Clients      int                    `json:"clients"`
	SequenceHash string                 `json:"sequence_hash,omitempty"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	Segments     []segmentRaw           `json:"segments"`
	Boots        []bootSample           `json:"boots,omitempty"`
	SetupPasses  []float64              `json:"setup_passes_s,omitempty"`
}

func newRunResult(s spec, seed int64, seconds int, traced bool) *runResult {
	return &runResult{
		Workload: s.name, Seed: seed, Seconds: seconds, Traced: traced,
		Commit: gitCommit(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), ServerFlags: s.serverFlags(),
	}
}

// tabulate turns raw name→value maps into the declared metric sets,
// attaching units; a declared layer metric the workload does not
// produce reads 0, an undeclared name is a programming error.
func tabulate(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for name := range values {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return out, nil
}

// resultLine is the one-line contract with the acceptance driver: the
// last line of standard output.
func (r *runResult) resultLine() string {
	metrics := r.EndToEnd
	if r.Traced {
		metrics = r.PerLayer
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// printMetrics writes every metric of the run by name and unit, in
// declaration order, to w (standard error in a driver run, so the
// result line stays the last line of standard output).
func (r *runResult) printMetrics(w *os.File) {
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%d traced=%v  commit=%s nproc=%d GOMAXPROCS=%d %s  triples=%d  rdfserve %s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Commit, r.NProc, r.GOMAXPROCS, r.GoVersion,
		r.Triples, strings.Join(r.ServerFlags, " "))
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	show := func(defs []metricDef, vals map[string]metricValue) {
		for _, d := range defs {
			if v, ok := vals[d.name]; ok {
				fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
	show(endToEnd, r.EndToEnd)
	show(perLayer, r.PerLayer)
	if len(r.Segments) > 0 {
		var qps []string
		for _, s := range r.Segments {
			qps = append(qps, fmt.Sprintf("%.1f", s.QPS))
		}
		fmt.Fprintf(w, "   per-segment throughput_qps: %s\n", strings.Join(qps, " "))
	}
}
