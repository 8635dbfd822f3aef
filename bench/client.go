//go:build linux

package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// numClients is the closed-loop width: callers that each wait for a
// reply before sending the next request. Never more than nproc, so the
// generator cannot oversubscribe the box it shares with the server.
func numClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// loadClient drives one server over keep-alive loopback connections.
type loadClient struct {
	hc      *http.Client
	base    string
	clients int
	texts   []string
	oracle  []answer
}

func newLoadClient(base string, texts []string, oracle []answer) *loadClient {
	n := numClients()
	return &loadClient{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: n,
			MaxConnsPerHost:     n,
			DisableCompression:  true,
		}},
		base: base, clients: n, texts: texts, oracle: oracle,
	}
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }

// sample is one request's outcome: client-observed latency from send
// to last body byte, and whether the response was status 200 with
// exactly the oracle's bytes.
type sample struct {
	latency time.Duration
	ok      bool
}

// send issues the requests idx (indexes into texts) closed-loop over
// the client goroutines, each pulling the next position off a shared
// cursor, and returns one sample per position. ids, when non-nil,
// names each request's X-Request-ID (the traced replay's handle on its
// span tree).
func (lc *loadClient) send(idx []int, ids []string) []sample {
	out := make([]sample, len(idx))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < lc.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(idx) {
					return
				}
				id := ""
				if ids != nil {
					id = ids[i]
				}
				out[i] = lc.one(idx[i], id)
			}
		}()
	}
	wg.Wait()
	return out
}

func (lc *loadClient) one(ti int, id string) sample {
	req, err := sparqlRequest(lc.base, lc.texts[ti], id)
	if err != nil {
		return sample{}
	}
	start := time.Now()
	resp, err := lc.hc.Do(req)
	if err != nil {
		return sample{latency: time.Since(start)}
	}
	h := fnv.New64a()
	n, err := io.Copy(h, resp.Body)
	resp.Body.Close()
	want := lc.oracle[ti]
	return sample{
		latency: time.Since(start),
		ok:      err == nil && resp.StatusCode == http.StatusOK && n == want.bytes && h.Sum64() == want.hash,
	}
}

// measureSegment sends one measured segment and reads, around it, the
// server's CPU clock (from /proc, so generator cycles never count) and
// the generator's own.
func (lc *loadClient) measureSegment(idx []int, serverPID int) (segmentRaw, []sample, error) {
	cpu0, err := procCPU(serverPID)
	if err != nil {
		return segmentRaw{}, nil, err
	}
	self0 := selfCPU()
	start := time.Now()
	samples := lc.send(idx, nil)
	wall := time.Since(start)
	self1 := selfCPU()
	cpu1, err := procCPU(serverPID)
	if err != nil {
		return segmentRaw{}, nil, fmt.Errorf("server gone after segment: %w", err)
	}
	var bytes int64
	for _, ti := range idx {
		bytes += lc.oracle[ti].bytes
	}
	seg := summarize(samples, wall, cpu1-cpu0, self1-self0)
	seg.BytesPerReq = ratio(float64(bytes), float64(len(idx)))
	return seg, samples, nil
}

// summarize reduces one segment's samples to its raw reading.
// Throughput counts verified-correct operations only; latency
// percentiles are over every attempted operation.
func summarize(samples []sample, wall, serverCPU, clientCPU time.Duration) segmentRaw {
	lat := make([]float64, len(samples))
	ok := 0
	for i, s := range samples {
		lat[i] = float64(s.latency) / float64(time.Millisecond)
		if s.ok {
			ok++
		}
	}
	sort.Float64s(lat)
	return segmentRaw{
		Operations: len(samples),
		Failed:     len(samples) - ok,
		WallS:      wall.Seconds(),
		ServerCPUS: serverCPU.Seconds(),
		ClientCPUS: clientCPU.Seconds(),
		QPS:        ratio(float64(ok), wall.Seconds()),
		P50Ms:      percentile(lat, 50),
		P95Ms:      percentile(lat, 95),
		P99Ms:      percentile(lat, 99),
		MaxMs:      percentile(lat, 100),
		CPUMsPerQ:  ratio(serverCPU.Seconds()*1000, float64(len(samples))),
		BeyondP95:  samplesBeyond(len(samples), 95),
	}
}

// segmentMedians folds the per-segment readings into the end-to-end
// values: every one is the median of the five per-segment values, so
// a segment that caught a GC cycle or a noisy neighbour cannot move
// the reported number on its own.
func segmentMedians(segs []segmentRaw) (e2e, layer map[string]float64) {
	col := func(f func(segmentRaw) float64) []float64 {
		out := make([]float64, len(segs))
		for i, s := range segs {
			out[i] = f(s)
		}
		return out
	}
	qps := col(func(s segmentRaw) float64 { return s.QPS })
	var ops, failed, serverCPU, clientCPU float64
	for _, s := range segs {
		ops += float64(s.Operations)
		failed += float64(s.Failed)
		serverCPU += s.ServerCPUS
		clientCPU += s.ClientCPUS
	}
	e2e = map[string]float64{
		"throughput_qps":   median(qps),
		"latency_p50_ms":   median(col(func(s segmentRaw) float64 { return s.P50Ms })),
		"latency_p95_ms":   median(col(func(s segmentRaw) float64 { return s.P95Ms })),
		"cpu_ms_per_query": median(col(func(s segmentRaw) float64 { return s.CPUMsPerQ })),
	}
	layer = map[string]float64{
		"client.latency_p99_ms":  median(col(func(s segmentRaw) float64 { return s.P99Ms })),
		"client.latency_max_ms":  median(col(func(s segmentRaw) float64 { return s.MaxMs })),
		"client.bytes_per_query": median(col(func(s segmentRaw) float64 { return s.BytesPerReq })),
		"client.segment_spread":  relSpread(qps),
		"client.cpu_share":       ratio(clientCPU, clientCPU+serverCPU),
		"client.error_share":     ratio(failed, ops),
	}
	return e2e, layer
}
