//go:build linux

package main

import (
	"bufio"
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// writeDataset generates the run's dataset and writes it as the
// N-Triples file the child server will boot from.
func writeDataset(s spec, seed int64) ([]rdf.Triple, string, error) {
	triples := workload.GenerateUniversity(s.datasetConfig(seed))
	dir := filepath.Join(buildDir, "data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	path, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("%s-seed%d.nt", s.name, seed)))
	if err != nil {
		return nil, "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := rdf.WriteNTriples(w, triples); err != nil {
		f.Close()
		return nil, "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, "", err
	}
	return triples, path, f.Close()
}

// answer is the oracle's record of one query text: the FNV-64a hash
// and the length of the exact response body.
type answer struct {
	hash  uint64
	bytes int64
}

// hashingWriter is the http.ResponseWriter the oracle serves into: it
// hashes the body instead of buffering it (responses reach megabytes).
type hashingWriter struct {
	header http.Header
	status int
	h      hash.Hash64
	n      int64
}

func (w *hashingWriter) Header() http.Header { return w.header }
func (w *hashingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *hashingWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += int64(len(p))
	return w.h.Write(p)
}

// sparqlRequest builds the POST every request of the bench uses: the
// query text as an application/sparql-query body.
func sparqlRequest(base, text, requestID string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	return req, nil
}

// buildOracle answers every distinct query text through a serial,
// single-graph, in-process server and records each body's hash. Every
// response the child server sends — sharded and replicated included —
// must match byte for byte: the doc.go determinism contract, enforced
// over a real socket.
func buildOracle(g *rdf.Graph, texts []string) ([]answer, error) {
	h := server.New(g, server.Config{QueryParallelism: 1}).Handler()
	out := make([]answer, len(texts))
	for i, text := range texts {
		req, err := sparqlRequest("http://oracle", text, "")
		if err != nil {
			return nil, err
		}
		w := &hashingWriter{header: http.Header{}, h: fnv.New64a()}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return nil, fmt.Errorf("oracle: query %d answered %d: %s", i, w.status, text)
		}
		out[i] = answer{hash: w.h.Sum64(), bytes: w.n}
	}
	return out, nil
}

// heapAlloc is the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

const mb = 1 << 20

// bootLedger times the public calls rdfserve's boot makes — parse,
// graph build, encode, stats — on the same dataset file, with the live
// heap each one adds. Layer names map to "rdf.*" metrics.
func bootLedger(path string) (*rdf.Graph, map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	h0 := heapAlloc()
	t := time.Now()
	triples, err := rdf.ParseNTriples(f)
	if err != nil {
		return nil, nil, err
	}
	parseS := time.Since(t).Seconds()
	h1 := heapAlloc()
	t = time.Now()
	g := rdf.NewGraph(triples)
	graphS := time.Since(t).Seconds()
	h2 := heapAlloc()
	t = time.Now()
	view := g.Encoded()
	encodeS := time.Since(t).Seconds()
	h3 := heapAlloc()
	t = time.Now()
	g.Stats()
	statsS := time.Since(t).Seconds()
	runtime.KeepAlive(triples) // rdfserve keeps the parsed slice too
	return g, map[string]float64{
		"rdf.parse_s":          parseS,
		"rdf.graph_build_s":    graphS,
		"rdf.encode_s":         encodeS,
		"rdf.stats_s":          statsS,
		"rdf.parse_heap_mb":    float64(h1-h0) / mb,
		"rdf.graph_heap_mb":    float64(h2-h1) / mb,
		"rdf.encoded_heap_mb":  float64(h3-h2) / mb,
		"rdf.bytes_per_triple": ratio(float64(h3-h0), float64(g.Len())),
		"rdf.triples":          float64(g.Len()),
		"rdf.dict_terms":       float64(view.Dict().Len()),
	}, nil
}

// evaluatorLedger times the evaluator's public calls over the traced
// slice in-process: Prepare, and Run at parallelism 1 and GOMAXPROCS.
// Each value is the mean per request of the slice (a text requested
// twice counts twice). The timed runs follow one untimed run, as a
// served query's plan is compiled once and then cached.
func evaluatorLedger(g *rdf.Graph, texts []string, slice []int) (map[string]float64, error) {
	ctx := context.Background()
	weight := map[int]time.Duration{}
	for _, ti := range slice {
		weight[ti]++
	}
	run := func(prep *sparql.Prepared, par int) (time.Duration, error) {
		t := time.Now()
		_, err := prep.RunSolutions(ctx, g, sparql.WithParallelism(par))
		return time.Since(t), err
	}
	var prepare, serial, parallel time.Duration
	for _, ti := range slice {
		w := weight[ti]
		if w == 0 {
			continue // a repeat of a text already timed
		}
		weight[ti] = 0
		t := time.Now()
		prep, err := sparql.Prepare(texts[ti])
		if err != nil {
			return nil, err
		}
		prepare += time.Since(t) * w
		if _, err := run(prep, 1); err != nil {
			return nil, err
		}
		s, err := run(prep, 1)
		if err != nil {
			return nil, err
		}
		p, err := run(prep, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		serial += s * w
		parallel += p * w
	}
	perQueryUs := func(d time.Duration) float64 { return ratio(d.Seconds()*1e6, float64(len(slice))) }
	return map[string]float64{
		"sparql.prepare_us":       perQueryUs(prepare),
		"sparql.run_serial_us":    perQueryUs(serial),
		"sparql.run_parallel_us":  perQueryUs(parallel),
		"sparql.parallel_speedup": ratio(serial.Seconds(), parallel.Seconds()),
	}, nil
}

// shardLedger builds the sharded, replicated store in-process the way
// rdfserve -shards does, timing the build and its live heap, and runs
// the nine shaped queries on it and on the single graph: the ratio is
// the ROADMAP's ShardedLinear gap at this workload's scale.
func shardLedger(g *rdf.Graph, shards, replicas int) (map[string]float64, error) {
	ctx := context.Background()
	h0 := heapAlloc()
	t := time.Now()
	sg, err := shard.BuildReplicatedByName(g.Triples(), "hash-subject", shards, replicas)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t).Seconds()
	h1 := heapAlloc()
	var single, sharded time.Duration
	for _, nq := range workload.UniversityQueries() {
		sp, gp := sg.PrepareQuery(nq.Query), sparql.PrepareQuery(nq.Query)
		for i := 0; i < 2; i++ { // the first round compiles the plans
			t = time.Now()
			if _, err := gp.Run(ctx, g); err != nil {
				return nil, err
			}
			d := time.Since(t)
			t = time.Now()
			if _, err := sp.Run(ctx); err != nil {
				return nil, err
			}
			if i == 1 {
				single += d
				sharded += time.Since(t)
			}
		}
	}
	return map[string]float64{
		"shard.build_s":         buildS,
		"shard.heap_mb":         float64(h1-h0) / mb,
		"shard.vs_single_ratio": ratio(sharded.Seconds(), single.Seconds()),
	}, nil
}
