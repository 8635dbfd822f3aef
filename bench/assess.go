//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems"
	"repro/internal/workload"
)

// assessConf is the simulated cluster of the paper reproduction, the
// configuration cmd/rdfbench assesses the nine engines under.
var assessConf = spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 8}

// unverifiable names the one University query without a unique answer:
// U-filter-1's ORDER BY ?a LIMIT 20 cuts through ties on ?a, so HAQWA,
// SPARQLGX, S2RDF and S2X each return a legitimate but different 20
// rows and core.RunQuery reports them wrong. It is left out until the
// harness compares such answers properly (ROADMAP item 4).
const unverifiable = "U-filter-1"

// assessPass is one pass of the assessment: fresh engines, every Load,
// then every (query, engine) cell through core.RunQuery.
type assessPass struct {
	setup       time.Duration // systems.AllEngines + every Load
	wall, cpu   time.Duration // the query part
	cells       []core.Measurement
	failed      int
	unsupported int
}

// supported reports whether the engine claims the query's fragment
// (the survey's Table II column): a BGP engine may refuse anything
// beyond a plain conjunction of triple patterns.
func supported(e core.Engine, q *sparql.Query) bool {
	_, plain := q.BGPOf()
	return plain || e.Info().SPARQL != core.FragmentBGP
}

// runAssessPass runs the queries in the given order (indexes into
// queries); cells come back in canonical order — query-major, engines
// in registry order — whatever order they ran in, so the same position
// is the same cell in every pass.
func runAssessPass(triples []rdf.Triple, queries []workload.NamedQuery, reference []*sparql.Results, order []int) (*assessPass, error) {
	p := &assessPass{}
	start := time.Now()
	engines := systems.AllEngines(assessConf)
	for _, e := range engines {
		if err := e.Load(triples); err != nil {
			return nil, fmt.Errorf("%s load: %w", e.Info().Name, err)
		}
	}
	p.setup = time.Since(start)
	grid := make([]*core.Measurement, len(queries)*len(engines))
	cpu0 := selfCPU()
	start = time.Now()
	for _, qi := range order {
		nq := queries[qi]
		for ei, e := range engines {
			m := core.RunQuery(e, nq.Name, nq.Query, reference[qi])
			switch {
			case m.Err != nil && !supported(e, nq.Query):
				p.unsupported++
				continue
			case m.Err != nil || !m.Correct:
				p.failed++
			}
			grid[qi*len(engines)+ei] = &m
		}
	}
	p.wall = time.Since(start)
	p.cpu = selfCPU() - cpu0
	for _, m := range grid {
		if m != nil {
			p.cells = append(p.cells, *m)
		}
	}
	return p, nil
}

// runAssess measures the paper's assessment path in-process: the nine
// surveyed engines over the University queries with a unique answer,
// every cell verified against the reference evaluator. One operation
// is one core.RunQuery cell. It is the workload every serving
// optimisation bypasses; the traced and untraced runs differ only in
// which metric set they report.
//
// The dataset is the paper reproduction's own MediumUniversity(),
// whatever the seed: several engines pick their join order from the
// data's statistics, so another generator seed moves single cells by a
// factor of two and the median cell with them (latency_p50_ms spread
// 23 % over ten seeds). The seed shuffles each pass's query order.
func runAssess(s spec, seed int64, seconds int, traced bool) (*runResult, error) {
	res := newRunResult(s, seed, seconds, traced)
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	rng := rand.New(rand.NewSource(seed))
	var queries []workload.NamedQuery
	for _, nq := range workload.UniversityQueries() {
		if nq.Name != unverifiable {
			queries = append(queries, nq)
		}
	}
	ref := rdf.NewGraph(triples)
	res.Triples = ref.Len()
	reference := make([]*sparql.Results, len(queries))
	start := time.Now()
	for i, nq := range queries {
		var err error
		if reference[i], err = sparql.Evaluate(nq.Query, ref); err != nil {
			return nil, fmt.Errorf("reference %s: %w", nq.Name, err)
		}
	}
	referenceMs := time.Since(start).Seconds() * 1000

	for i := 0; i < s.warmupUnits; i++ {
		if _, err := runAssessPass(triples, queries, reference, rng.Perm(len(queries))); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var cellMs [][]float64 // per cell, its duration in every measured pass
	var activity spark.Metrics
	engineMs := map[string]float64{}
	unsupportedCells := 0
	passes := 0
	for seg := 0; seg < segments; seg++ {
		var samples []sample
		var wall, cpu time.Duration
		for u := 0; u < s.segmentUnits; u++ {
			p, err := runAssessPass(triples, queries, reference, rng.Perm(len(queries)))
			if err != nil {
				return nil, err
			}
			passes++
			setups = append(setups, p.setup.Seconds())
			wall += p.wall
			cpu += p.cpu
			unsupportedCells = p.unsupported
			if cellMs == nil {
				cellMs = make([][]float64, len(p.cells))
			}
			if len(p.cells) != len(cellMs) {
				return nil, fmt.Errorf("pass %d ran %d cells, the first ran %d", passes, len(p.cells), len(cellMs))
			}
			for i, m := range p.cells {
				cellMs[i] = append(cellMs[i], m.Duration.Seconds()*1000)
				samples = append(samples, sample{latency: m.Duration, ok: m.Err == nil && m.Correct})
				engineMs[engineMetric(m.System)] += m.Duration.Seconds() * 1000
				activity = addActivity(activity, m.Activity)
			}
		}
		res.Segments = append(res.Segments, summarize(samples, wall, cpu, 0))
	}
	hwm, err := procStatusKB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}

	e2e, clientLayer := segmentMedians(res.Segments)
	// The cells of a pass are not exchangeable — each is a different
	// engine on a different query, spread over three decades — and the
	// process allocates so fast that a GC cycle lands on some cell of
	// every pass, so a percentile over one pass's 62 durations, and even
	// over the per-cell medians, moves by 30 % between identical runs.
	// Latency is therefore blocked by cell and taken as each cell's best
	// of the passes — the noise is one-sided — before the percentiles
	// over cells. GC cost still shows in throughput and CPU, which are
	// totals.
	perCell := make([]float64, len(cellMs))
	for i, ms := range cellMs {
		perCell[i] = slices.Min(ms)
	}
	sort.Float64s(perCell)
	e2e["latency_p50_ms"] = percentile(perCell, 50)
	e2e["latency_p95_ms"] = percentile(perCell, 95)
	clientLayer["client.latency_p99_ms"] = percentile(perCell, 99)
	clientLayer["client.latency_max_ms"] = percentile(perCell, 100)
	e2e["setup_s"] = median(setups)
	e2e["rss_mb"] = float64(hwm) / 1024
	res.SetupPasses = setups
	for _, seg := range res.Segments {
		res.Attempted += seg.Operations
		res.Failed += seg.Failed
	}
	res.Correct = res.Failed == 0
	if spread := clientLayer["client.segment_spread"]; spread > maxSegmentSpread {
		return nil, fmt.Errorf("unsteady run: client.segment_spread %.2f > %.2f", spread, maxSegmentSpread)
	}
	if res.EndToEnd, err = tabulate(endToEnd, e2e); err != nil {
		return nil, err
	}
	if !traced {
		return res, nil
	}
	n := float64(passes)
	layer := map[string]float64{
		"client.latency_p99_ms":     clientLayer["client.latency_p99_ms"],
		"client.latency_max_ms":     clientLayer["client.latency_max_ms"],
		"client.segment_spread":     clientLayer["client.segment_spread"],
		"client.error_share":        clientLayer["client.error_share"],
		"client.distinct_texts":     float64(len(queries)),
		"rdf.triples":               float64(ref.Len()),
		"spark.stages":              float64(activity.Stages) / n,
		"spark.tasks":               float64(activity.Tasks) / n,
		"spark.shuffle_records":     float64(activity.ShuffleRecords) / n,
		"spark.shuffle_bytes":       float64(activity.ShuffleBytes) / n,
		"spark.broadcast_records":   float64(activity.BroadcastRecords) / n,
		"spark.records_read":        float64(activity.RecordsRead) / n,
		"systems.unsupported_cells": float64(unsupportedCells),
		"core.reference_eval_ms":    referenceMs,
	}
	for name, ms := range engineMs {
		layer[name] = ms / n
	}
	res.PerLayer, err = tabulate(perLayer, layer)
	return res, err
}

// addActivity sums two cluster-activity readings (spark.Metrics has
// Diff but no Add).
func addActivity(a, b spark.Metrics) spark.Metrics {
	neg := spark.Metrics{}.Diff(b)
	return a.Diff(neg)
}
