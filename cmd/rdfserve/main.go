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
// With -replicas R each shard gets R replicas — routing identities
// over the shard's one view, each with its own health score — and
// per-shard work goes to the replica with the best score and fails
// over between them (retry with backoff) without changing results;
// -chaos-fail-replica I fails replica I of every shard through an
// injected fault plan, the live demonstration that serving survives a
// downed replica (watch the /stats faults block).
//
// Tail latency: -chaos-slow-replica delays one replica index of every
// shard by 50ms, the live straggler demonstration — once each replica
// has answered, the health scores steer shard work off the slow one
// (watch rdf_replica_latency_ewma_ms on /metrics).
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

	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataPath := flag.String("data", "", "RDF input file (.nt N-Triples, .ttl Turtle)")
	dataset := flag.String("dataset", "", "generate a dataset instead: university | shop")
	scale := flag.String("scale", "small", "generated dataset scale: small | medium")
	shards := flag.Int("shards", 0, "split the graph into N shards (0 = unsharded)")
	replicas := flag.Int("replicas", 1, "replicas of each shard: failover targets over the shard's one view, ordered by health (needs -shards)")
	partitionName := flag.String("partition", "hash-subject", "shard placement strategy (see internal/partition; needs -shards > 0)")
	maxConcurrent := flag.Int("max-concurrent", 8, "queries evaluating at once")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested timeouts")
	cacheSize := flag.Int("plan-cache", 256, "prepared-plan LRU capacity (negative disables)")
	maxQueryBytes := flag.Int64("max-query-bytes", 0, "per-query memory budget in bytes; over-budget queries abort with 413 (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "queries that may wait for a worker before new arrivals are shed (0 = 4x max-concurrent, negative disables shedding)")
	chaosReplica := flag.Int("chaos-fail-replica", -1, "fail this replica index of every shard (chaos demo; needs -replicas > 1)")
	chaosSlowReplica := flag.Int("chaos-slow-replica", -1, "slow this replica index of every shard by 50ms (chaos demo; needs -replicas > 1)")
	debugAddr := flag.String("debug-addr", "", "serve pprof profiling endpoints on this separate address (empty disables)")
	slowThreshold := flag.Duration("slow-query-threshold", 0, "trace every query and log ones slower than this as JSON lines (0 disables)")
	slowLogPath := flag.String("slow-query-log", "", "slow-query log file, appended (default stderr; needs -slow-query-threshold)")
	traceSample := flag.Int("trace-sample", 128, "trace 1 in N queries and retain their span trees for /debug/queries (0 disables sampling)")
	traceRing := flag.Int("trace-ring", 64, "completed traces retained for /debug/queries (newest evicts oldest)")
	maxShapes := flag.Int("max-shapes", 512, "distinct query shapes tracked by the fingerprint registry (LRU beyond)")
	flag.Parse()

	cfg := server.Config{
		MaxConcurrent:      *maxConcurrent,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		PlanCacheSize:      *cacheSize,
		MaxQueryBytes:      *maxQueryBytes,
		MaxQueue:           *maxQueue,
		SlowQueryThreshold: *slowThreshold,
		TraceSampleRate:    *traceSample,
		TraceRingSize:      *traceRing,
		MaxShapes:          *maxShapes,
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
	if err := checkReplicaFlags(*shards, *replicas, *chaosReplica, *chaosSlowReplica); err != nil {
		fail(err.Error())
	}
	if *chaosReplica >= 0 || *chaosSlowReplica >= 0 {
		cfg.FaultPlan = fault.NewPlan(1)
		for s := 0; s < *shards; s++ {
			if *chaosReplica >= 0 {
				cfg.FaultPlan.FailAlways(fault.ReplicaPoint(s, *chaosReplica))
			}
			if *chaosSlowReplica >= 0 {
				cfg.FaultPlan.SlowReplica(s, *chaosSlowReplica, chaosSlowDelay)
			}
		}
	}

	// Both backends boot through readDataset: an N-Triples file streams
	// from the parser into the store's id space, so the document never
	// exists as a []rdf.Triple. The placement strategy is resolved before
	// any data is read, so a bad -partition fails at once.
	partitionSet := false
	flag.Visit(func(f *flag.Flag) { partitionSet = partitionSet || f.Name == "partition" })
	strat, err := resolvePartition(*partitionName, partitionSet, *shards)
	if err != nil {
		fail(err.Error())
	}
	bootStart := time.Now()
	var srv *server.Server
	switch {
	case *shards > 0:
		sg, err := shard.Read(func(add func(rdf.Triple) error) error {
			return readDataset(*dataPath, *dataset, *scale, add)
		}, strat, *shards, *replicas)
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
		g, err := buildGraph(*dataPath, *dataset, *scale)
		if err != nil {
			fail(err.Error())
		}
		srv = server.New(g, cfg)
		log.Printf("rdfserve: %d triples, %d dictionary terms, built in %v, serving on %s",
			g.Len(), g.Encoded().Dict().Len(), time.Since(bootStart).Round(time.Millisecond), *addr)
	}
	serve(*addr, srv.Handler(), cfg.DefaultTimeout, *maxTimeout)
}

// chaosSlowDelay is the latency -chaos-slow-replica adds to every
// attempt on the slowed replica.
const chaosSlowDelay = 50 * time.Millisecond

// checkReplicaFlags rejects the replica flags that would silently do
// nothing (or lose every query): the chaos demos need -shards > 0 and
// -replicas > 1, and a chaos replica index must exist.
func checkReplicaFlags(shards, replicas, failReplica, slowReplica int) error {
	replicated := shards > 0 && replicas > 1
	switch {
	case failReplica >= 0 && !replicated:
		return errors.New("-chaos-fail-replica needs -shards > 0 and -replicas > 1 (a lone replica would lose every query)")
	case failReplica >= 0 && failReplica >= replicas:
		return fmt.Errorf("-chaos-fail-replica %d out of range (replicas 0..%d)", failReplica, replicas-1)
	case slowReplica >= 0 && !replicated:
		return errors.New("-chaos-slow-replica needs -shards > 0 and -replicas > 1 (with a lone replica there is nowhere to steer)")
	case slowReplica >= 0 && slowReplica >= replicas:
		return fmt.Errorf("-chaos-slow-replica %d out of range (replicas 0..%d)", slowReplica, replicas-1)
	}
	return nil
}

// resolvePartition returns the -partition strategy, refusing a name
// the registry does not hold and an explicitly set -partition that
// would silently do nothing (no -shards).
func resolvePartition(name string, explicit bool, shards int) (partition.Strategy, error) {
	if explicit && shards <= 0 {
		return nil, errors.New("-partition needs -shards > 0 (an unsharded graph has nothing to place)")
	}
	strat, err := partition.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("-partition needs a registered strategy: %w", err)
	}
	return strat, nil
}

// buildGraph loads the dataset into a graph.
func buildGraph(dataPath, dataset, scale string) (*rdf.Graph, error) {
	g := rdf.NewGraph(nil)
	err := readDataset(dataPath, dataset, scale, func(t rdf.Triple) error {
		_, err := g.TryAdd(t)
		return err
	})
	if err != nil {
		return nil, err
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

// readDataset hands every triple of the dataset to add: a file's, or
// a generated one's (exactly the rdfgen datasets, handy for smoke
// tests). An N-Triples file streams from the parser; a Turtle file and
// a generated dataset are a slice first.
func readDataset(dataPath, dataset, scale string, add func(rdf.Triple) error) error {
	var triples []rdf.Triple
	switch {
	case dataPath != "":
		f, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if !strings.HasSuffix(dataPath, ".ttl") {
			return rdf.ReadNTriples(f, add)
		}
		if triples, err = rdf.ParseTurtle(f); err != nil {
			return err
		}
	case dataset == "university":
		cfg := workload.SmallUniversity()
		if scale == "medium" {
			cfg = workload.MediumUniversity()
		}
		triples = workload.GenerateUniversity(cfg)
	case dataset == "shop":
		cfg := workload.SmallShop()
		if scale == "medium" {
			cfg = workload.MediumShop()
		}
		triples = workload.GenerateShop(cfg)
	default:
		return fmt.Errorf("need -data FILE or -dataset university|shop")
	}
	for _, t := range triples {
		if err := add(t); err != nil {
			return err
		}
	}
	return nil
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "rdfserve:", msg)
	os.Exit(1)
}
