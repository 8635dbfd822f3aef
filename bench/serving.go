//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/rdf"
)

// Run-quality gates: a run that trips one aborts with an error instead
// of reporting numbers, so a bad run cannot pass as a measurement.
const (
	// maxClientCPUShare: above this the generator, not the server, is
	// what the run measured.
	maxClientCPUShare = 0.6
	// maxSegmentSpread: (max-min)/median of per-segment throughput;
	// above this the five segments did not measure one steady state.
	maxSegmentSpread = 0.5
)

// runServing measures one serving workload end to end: dataset and
// oracle in-process, five cold boots of the child rdfserve, a
// discarded warm-up, five measured segments on the first boot. With
// traced set it additionally builds the boot and query ledgers and
// replays the leading slice of the sequence against a fully traced
// second server; the end-to-end numbers never come from that server.
func runServing(s spec, seed int64, seconds int, traced bool) (*runResult, error) {
	res := newRunResult(s, seed, seconds, traced)
	seq := buildSequence(s, seed)
	res.SequenceHash = seq.hash()
	layer := map[string]float64{"client.distinct_texts": float64(len(seq.texts))}
	slice := seq.all()
	slice = slice[:min(s.traceSlice, len(slice))]

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	os.Remove(filepath.Join(buildDir, serverLog)) // start this run's log empty; a missing file is fine
	triples, dataPath, err := writeDataset(s, seed)
	if err != nil {
		return nil, err
	}
	defer os.Remove(dataPath)

	// The oracle's graph is built before any child starts and dropped
	// before the first boot, so the bench's heap never competes with
	// the server's for memory or GC cycles.
	var g *rdf.Graph
	if traced {
		triples = nil // the ledger parses the file, as the child will
		var ledger map[string]float64
		if g, ledger, err = bootLedger(dataPath); err != nil {
			return nil, err
		}
		merge(layer, ledger)
	} else {
		g = rdf.NewGraph(triples)
		triples = nil
	}
	res.Triples = g.Len()
	oracle, err := buildOracle(g, seq.texts)
	if err != nil {
		return nil, err
	}
	if traced {
		ledger, err := evaluatorLedger(g, seq.texts, slice)
		if err != nil {
			return nil, err
		}
		merge(layer, ledger)
		if s.shards > 0 {
			if ledger, err = shardLedger(g, s.shards, s.replicas); err != nil {
				return nil, err
			}
			merge(layer, ledger)
		}
	}
	g = nil
	debug.FreeOSMemory()

	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	// One long-lived serving process and boots-1 boot-only ones. The
	// boot-only processes run between the measured segments, so both
	// the five boots and the five segments are spread over the whole
	// run: a burst of host noise a few seconds long then lands on at
	// most two of either, and the medians do not move.
	boot := func() (*child, error) {
		c, err := startServer(bin, dataPath, s.serverFlags())
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", len(res.Boots)+1, err)
		}
		res.Boots = append(res.Boots, c.boot)
		return c, nil
	}
	srv, err := boot()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	lc := newLoadClient(srv.base, seq.texts, oracle)
	defer lc.close()
	res.Clients = lc.clients

	// Discarded warm-up: connections open, the plan cache fills, and
	// the server allocates through its first post-boot GC cycles.
	for i, sm := range lc.send(seq.warmup, nil) {
		if !sm.ok {
			return nil, fmt.Errorf("warm-up request %d failed verification: %s", i, seq.texts[seq.warmup[i]])
		}
	}

	before, err := fetchServerStats(lc.hc, srv.base)
	if err != nil {
		return nil, err
	}
	var latMs []float64
	for i, idx := range seq.measure {
		seg, samples, err := lc.measureSegment(idx, srv.pid())
		if err != nil {
			return nil, err
		}
		res.Segments = append(res.Segments, seg)
		for _, sm := range samples {
			latMs = append(latMs, float64(sm.latency)/float64(time.Millisecond))
		}
		if i < boots-1 {
			c, err := boot()
			if err != nil {
				return nil, err
			}
			c.stop()
		}
	}
	after, err := fetchServerStats(lc.hc, srv.base)
	if err != nil {
		return nil, err
	}
	hwm, err := procStatusKB(srv.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}

	bootCol := func(f func(bootSample) float64) float64 {
		xs := make([]float64, len(res.Boots))
		for i, b := range res.Boots {
			xs[i] = f(b)
		}
		return median(xs)
	}
	setupS := bootCol(func(b bootSample) float64 { return b.Seconds })
	layer["server.boot_cpu_s"] = bootCol(func(b bootSample) float64 { return b.CPUSec })
	layer["server.rss_boot_mb"] = bootCol(func(b bootSample) float64 { return b.RSSMB })

	e2e, clientLayer := segmentMedians(res.Segments)
	e2e["setup_s"] = setupS
	e2e["rss_mb"] = float64(hwm) / 1024
	merge(layer, clientLayer)
	merge(layer, statsDelta(before, after))
	layer["http.transport_mean_ms"] = mean(latMs) - layer["server.e2e_mean_ms"]
	for _, seg := range res.Segments {
		res.Attempted += seg.Operations
		res.Failed += seg.Failed
	}
	res.Correct = res.Failed == 0

	if share := layer["client.cpu_share"]; share > maxClientCPUShare {
		return nil, fmt.Errorf("generator-bound run: client.cpu_share %.2f > %.2f", share, maxClientCPUShare)
	}
	if spread := layer["client.segment_spread"]; spread > maxSegmentSpread {
		return nil, fmt.Errorf("unsteady run: client.segment_spread %.2f > %.2f", spread, maxSegmentSpread)
	}
	if served := int(after.Served - before.Served); res.Correct && served != res.Attempted {
		return nil, fmt.Errorf("server counted %d served queries, client verified %d", served, res.Attempted)
	}

	if traced {
		ledger, err := tracedReplay(s, seed, bin, dataPath, lc, slice)
		if err != nil {
			return nil, err
		}
		merge(layer, ledger)
		layer["boot.unattributed_s"] = setupS
		for _, phase := range bootPhases(s) {
			layer["boot.unattributed_s"] -= layer[phase]
		}
		printBootLedger(os.Stderr, s, layer, setupS)
	}
	if res.EndToEnd, err = tabulate(endToEnd, e2e); err != nil {
		return nil, err
	}
	if traced {
		if res.PerLayer, err = tabulate(perLayer, layer); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// bootPhases names the timed public calls a boot of this workload's
// server makes: a single-graph rdfserve parses, builds the graph, and
// warms the encoded view and the statistics; a sharded one parses and
// builds the shard set (which encodes as it goes).
func bootPhases(s spec) []string {
	if s.shards > 0 {
		return []string{"rdf.parse_s", "shard.build_s"}
	}
	return []string{"rdf.parse_s", "rdf.graph_build_s", "rdf.encode_s", "rdf.stats_s"}
}

// printBootLedger prints the boot ledger: the timed phases plus
// unattributed equal the measured whole (the median boot).
func printBootLedger(w *os.File, s spec, layer map[string]float64, setupS float64) {
	fmt.Fprintf(w, "\nboot ledger (%s): in-process phase timings against the median child boot\n", s.name)
	sum := 0.0
	for _, k := range bootPhases(s) {
		fmt.Fprintf(w, "   %-24s %9.4f s\n", k, layer[k])
		sum += layer[k]
	}
	fmt.Fprintf(w, "   %-24s %9.4f s\n", "boot.unattributed_s", layer["boot.unattributed_s"])
	fmt.Fprintf(w, "   %-24s %9.4f s   (parts + unattributed = %.4f)\n", "setup_s (whole)", setupS, sum+layer["boot.unattributed_s"])
}
