// Command rdfserve runs the SPARQL query service: it loads an RDF
// dataset (from a file, or a generated benchmark dataset), warms the
// evaluator's shared structures, and serves the SPARQL protocol over
// HTTP with a prepared-plan cache, bounded concurrency, per-query
// deadlines, and streaming JSON/TSV results. The contracts behind every
// flag below — determinism, typed failure, the execution, straggler
// and resource models — are written once, in the repo's doc.go.
//
// Usage:
//
//	rdfserve -data data.nt -addr :8080
//	rdfserve -dataset university -scale medium     # generated data
//	rdfserve -data data.ttl -engine S2RDF          # surveyed engine
//	rdfserve -dataset university -shards 4 -partition hash-subject
//	rdfserve -dataset university -shards 4 -replicas 2
//
// With -shards N the dataset is split into N shard graphs around a
// shared dictionary (the -partition strategy decides placement) and
// queries execute through the distributed evaluator: subject-star
// queries push down whole to subject-co-located shards, everything
// else runs scatter-gather — a per-pattern bind join with shard
// pruning (the repo's doc.go, "Sharded execution"). Results are
// byte-identical to unsharded serving; /stats gains a sharding block.
//
// With -replicas R each shard is materialized R times and per-shard
// work fails over between replicas (circuit breakers, retry with
// backoff) without changing results; -chaos-fail-replica I fails
// replica I of every shard through an injected fault plan, the live
// demonstration that serving survives a downed replica (watch the
// /stats faults block).
//
// Tail-latency flags: -hedge-delay launches each shard scan on a
// second replica once the first runs past the delay (negative picks
// an adaptive per-operation p95 delay), and -breaker-trip /
// -breaker-cooldown tune the replica circuit breakers;
// -chaos-slow-replica delays one replica index of every shard by
// -chaos-slow-delay, the live straggler demonstration (watch the hedges
// counters in /stats and /metrics).
//
// The process drains gracefully: on SIGTERM/SIGINT it stops accepting
// connections, lets in-flight queries finish within the default query
// deadline, and exits 0.
//
// Endpoints: /sparql (GET ?query=..., POST form or
// application/sparql-query), /healthz, /stats, /metrics (Prometheus
// text exposition), /debug/queries (retained trace index; append a
// request id for one span tree), /debug/shapes (plan-fingerprint
// registry), /debug/dash (live HTML dashboard). Useful /sparql
// parameters: format=json|tsv, timeout=500ms, explain=analyze (answer
// with the EXPLAIN ANALYZE span tree instead of results).
//
// Observability flags: -debug-addr serves the pprof profiling
// endpoints on a separate listener (kept off the query port);
// -slow-query-threshold arms per-query tracing and logs queries
// slower than the threshold as JSON lines to -slow-query-log
// (default stderr); -trace-sample N traces 1 in N queries and parks
// their span trees in the -trace-ring sized history behind
// /debug/queries; -max-shapes bounds the fingerprint registry.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/spark"
	"repro/internal/systems"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataPath := flag.String("data", "", "RDF input file (.nt N-Triples, .ttl Turtle)")
	dataset := flag.String("dataset", "", "generate a dataset instead: university | shop")
	scale := flag.String("scale", "small", "generated dataset scale: small | medium")
	engineName := flag.String("engine", "reference", "engine name or 'reference'")
	shards := flag.Int("shards", 0, "split the graph into N shards (0 = unsharded)")
	replicas := flag.Int("replicas", 1, "copies of each shard (failover targets; needs -shards)")
	partitionName := flag.String("partition", "hash-subject", "shard placement strategy (see internal/partition)")
	maxConcurrent := flag.Int("max-concurrent", 8, "queries evaluating at once")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested timeouts")
	cacheSize := flag.Int("plan-cache", 256, "prepared-plan LRU capacity (negative disables)")
	maxResultRows := flag.Int("max-result-rows", 0, "abort queries producing more rows than this (0 = unlimited)")
	maxQueryBytes := flag.Int64("max-query-bytes", 0, "per-query memory budget in bytes; over-budget queries abort with 413 (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "queries that may wait for a worker before new arrivals are shed (0 = 4x max-concurrent, negative disables shedding)")
	chaosReplica := flag.Int("chaos-fail-replica", -1, "fail this replica index of every shard (chaos demo; needs -replicas > 1)")
	chaosSlowReplica := flag.Int("chaos-slow-replica", -1, "slow this replica index of every shard (chaos demo; needs -replicas > 1)")
	chaosSlowDelay := flag.Duration("chaos-slow-delay", 50*time.Millisecond, "added latency for -chaos-slow-replica")
	hedgeDelay := flag.Duration("hedge-delay", 0, "hedge shard operations after this delay (>0 fixed, <0 adaptive p95, 0 off; needs -replicas > 1)")
	breakerTrip := flag.Int("breaker-trip", 0, "consecutive replica failures that trip its circuit breaker (0 = default)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long a tripped replica breaker stays open (0 = default)")
	debugAddr := flag.String("debug-addr", "", "serve pprof profiling endpoints on this separate address (empty disables)")
	slowThreshold := flag.Duration("slow-query-threshold", 0, "trace every query and log ones slower than this as JSON lines (0 disables)")
	slowLogPath := flag.String("slow-query-log", "", "slow-query log file, appended (default stderr; needs -slow-query-threshold)")
	traceSample := flag.Int("trace-sample", 128, "trace 1 in N queries and retain their span trees for /debug/queries (0 disables sampling)")
	traceRing := flag.Int("trace-ring", 64, "completed traces retained for /debug/queries (newest evicts oldest)")
	maxShapes := flag.Int("max-shapes", 512, "distinct query shapes tracked by the fingerprint registry (LRU beyond)")
	flag.Parse()

	cfg := server.Config{
		MaxConcurrent:        *maxConcurrent,
		DefaultTimeout:       *timeout,
		MaxTimeout:           *maxTimeout,
		PlanCacheSize:        *cacheSize,
		MaxResultRows:        *maxResultRows,
		MaxQueryBytes:        *maxQueryBytes,
		MaxQueue:             *maxQueue,
		SlowQueryThreshold:   *slowThreshold,
		HedgeDelay:           *hedgeDelay,
		BreakerTripThreshold: *breakerTrip,
		BreakerCooldown:      *breakerCooldown,
		TraceSampleRate:      *traceSample,
		TraceRingSize:        *traceRing,
		MaxShapes:            *maxShapes,
	}
	if *slowLogPath != "" {
		if *slowThreshold <= 0 {
			fail("-slow-query-log needs -slow-query-threshold > 0")
		}
		f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fail(err.Error())
		}
		defer f.Close()
		cfg.SlowQueryLog = f
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}
	if *chaosReplica >= 0 {
		if *shards <= 0 || *replicas < 2 {
			fail("-chaos-fail-replica needs -shards > 0 and -replicas > 1 (a lone replica would lose every query)")
		}
		if *chaosReplica >= *replicas {
			fail(fmt.Sprintf("-chaos-fail-replica %d out of range (replicas 0..%d)", *chaosReplica, *replicas-1))
		}
		plan := fault.NewPlan(1)
		for s := 0; s < *shards; s++ {
			plan.FailAlways(fault.ReplicaPoint(s, *chaosReplica))
		}
		cfg.FaultPlan = plan
	}
	if *chaosSlowReplica >= 0 {
		if *shards <= 0 || *replicas < 2 {
			fail("-chaos-slow-replica needs -shards > 0 and -replicas > 1 (with a lone replica there is nowhere to hedge)")
		}
		if *chaosSlowReplica >= *replicas {
			fail(fmt.Sprintf("-chaos-slow-replica %d out of range (replicas 0..%d)", *chaosSlowReplica, *replicas-1))
		}
		if *chaosSlowDelay <= 0 {
			fail("-chaos-slow-delay must be > 0")
		}
		if cfg.FaultPlan == nil {
			cfg.FaultPlan = fault.NewPlan(1)
		}
		for s := 0; s < *shards; s++ {
			cfg.FaultPlan.SlowReplica(s, *chaosSlowReplica, *chaosSlowDelay)
		}
	}

	// Each backend is built by a function that returns only the store:
	// main blocks in serve for the life of the process, and the parsed
	// []rdf.Triple must not stay reachable from its frame.
	bootStart := time.Now()
	var srv *server.Server
	switch {
	case *shards > 0:
		if *engineName != "reference" {
			fail("-shards requires the reference engine")
		}
		sg, err := buildSharded(*dataPath, *dataset, *scale, *partitionName, *shards, *replicas)
		if err != nil {
			fail(err.Error())
		}
		srv = server.NewSharded(sg, cfg)
		log.Printf("rdfserve: %d triples, %d dictionary terms, built in %v, sharded %d-way by %s (replicas %d, sizes %v, subject-colocated %v), serving on %s",
			sg.Len(), sg.Dict().Len(), time.Since(bootStart).Round(time.Millisecond),
			sg.NumShards(), sg.Strategy(), sg.Replicas(), sg.ShardSizes(), sg.SubjectColocated(), *addr)
	case *replicas != 1:
		fail("-replicas needs -shards > 0")
	default:
		var eng core.Engine
		if *engineName != "reference" {
			if eng = findEngine(*engineName); eng == nil {
				fail("unknown engine " + *engineName + " (see rdfquery -engines)")
			}
		}
		g, err := buildGraph(*dataPath, *dataset, *scale, eng)
		if err != nil {
			fail(err.Error())
		}
		if eng == nil {
			srv = server.New(g, cfg)
		} else {
			srv = server.NewWithEngine(g, eng, cfg)
		}
		log.Printf("rdfserve: %d triples, %d dictionary terms, built in %v, engine=%s, serving on %s",
			g.Len(), g.Encoded().Dict().Len(), time.Since(bootStart).Round(time.Millisecond), *engineName, *addr)
	}
	serve(*addr, srv.Handler(), cfg.DefaultTimeout, *maxTimeout)
}

// buildSharded loads the dataset and splits it into the sharded store.
func buildSharded(dataPath, dataset, scale, partitionName string, shards, replicas int) (*shard.ShardedGraph, error) {
	triples, err := loadTriples(dataPath, dataset, scale)
	if err != nil {
		return nil, err
	}
	return shard.BuildReplicatedByName(triples, partitionName, shards, replicas)
}

// buildGraph loads the dataset into a graph. An N-Triples file streams
// from the parser straight into the store, so the document never
// exists as a []rdf.Triple; the other sources (and a surveyed engine,
// which loads from a slice) produce one that dies with this call.
func buildGraph(dataPath, dataset, scale string, eng core.Engine) (*rdf.Graph, error) {
	g := rdf.NewGraph(nil)
	add := func(t rdf.Triple) error {
		_, err := g.TryAdd(t)
		return err
	}
	if eng == nil && dataPath != "" && !strings.HasSuffix(dataPath, ".ttl") {
		f, err := os.Open(dataPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return g, rdf.ReadNTriples(f, add)
	}
	triples, err := loadTriples(dataPath, dataset, scale)
	if err != nil {
		return nil, err
	}
	for _, t := range triples {
		if err := add(t); err != nil {
			return nil, err
		}
	}
	if eng != nil {
		if err := eng.Load(triples); err != nil {
			return nil, fmt.Errorf("loading engine: %w", err)
		}
	}
	return g, nil
}

// serve runs the HTTP server until SIGTERM/SIGINT, then drains
// gracefully: the listener closes immediately (no new queries), queries
// already in flight get up to drain to finish, and the process exits 0.
//
// The server carries protective timeouts so one slow or stalled client
// cannot pin a connection goroutine forever: header and body reads are
// bounded, idle keep-alive connections are reaped, and the write
// deadline leaves maxTimeout (the cap on any query's deadline) plus
// streaming slack before a wedged response is cut off.
func serve(addr string, h http.Handler, drain, maxTimeout time.Duration) {
	hs := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      maxTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errCh:
		// Listener died without a signal (port in use, ...).
		fail(err.Error())
	case sig := <-sigCh:
		log.Printf("rdfserve: %v received, draining in-flight queries (up to %v)", sig, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("rdfserve: drain incomplete: %v", err)
			hs.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err.Error())
		}
		log.Printf("rdfserve: drained, bye")
	}
}

// serveDebug exposes the pprof profiling endpoints on their own
// listener and mux, deliberately separate from the query port so
// profiling is never reachable through whatever fronts /sparql (and so
// nothing here registers on http.DefaultServeMux).
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("rdfserve: pprof on http://%s/debug/pprof/", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("rdfserve: debug listener: %v", err)
	}
}

// loadTriples reads the dataset from a file or generates a synthetic
// one (exactly the rdfgen datasets, handy for smoke tests).
func loadTriples(dataPath, dataset, scale string) ([]rdf.Triple, error) {
	switch {
	case dataPath != "":
		f, err := os.Open(dataPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(dataPath, ".ttl") {
			return rdf.ParseTurtle(f)
		}
		return rdf.ParseNTriples(f)
	case dataset == "university":
		cfg := workload.SmallUniversity()
		if scale == "medium" {
			cfg = workload.MediumUniversity()
		}
		return workload.GenerateUniversity(cfg), nil
	case dataset == "shop":
		cfg := workload.SmallShop()
		if scale == "medium" {
			cfg = workload.MediumShop()
		}
		return workload.GenerateShop(cfg), nil
	default:
		return nil, fmt.Errorf("need -data FILE or -dataset university|shop")
	}
}

func findEngine(name string) core.Engine {
	for _, e := range systems.AllEngines(spark.DefaultConfig()) {
		if e.Info().Name == name {
			return e
		}
	}
	return nil
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "rdfserve:", msg)
	os.Exit(1)
}
