// Package repro reproduces "RDF Query Answering Using Apache Spark:
// Review and Assessment" (Agathangelos, Troullinou, Kondylakis,
// Stefanidis, Plexousakis — ICDE Workshops 2018) as a working Go
// library: a simulated Spark substrate (RDD, DataFrames, Spark SQL,
// GraphX, GraphFrames), a full RDF + SPARQL stack, and from-scratch
// implementations of all nine systems the survey covers, plus the
// assessment harness that measures them against each other.
//
// # Execution-path architecture
//
// Two hot paths carry every benchmark and conformance test:
//
//   - The shuffle path (internal/spark). PartitionBy scatters in
//     parallel — one map-side task per source partition writes
//     per-destination buckets, merged deterministically in source
//     order — and meters shuffle bytes by structurally sampling a few
//     boundary records (internal/spark/sizer.go), never by collecting
//     the dataset to the driver. Join and CoGroup skip the shuffle for
//     sides that are already key-partitioned with the matching
//     partition count, and SortBy performs a range-partitioned merge:
//     sampled splits, one scatter shuffle, parallel per-range sorts.
//     Aggregating shuffles go through CombineByKey's combiner-aware
//     scatter: values fold into per-destination combiner maps while
//     records are being placed, so exactly one combined record per
//     (source partition, key) crosses the shuffle, combined records
//     are materialized once at their destination, and destinations
//     merge source buckets in source order (deterministic key order).
//     ReduceByKey, CountByKey, Distinct, and the DataFrame aggregates
//     all ride this path; GroupByKey deliberately keeps shuffling the
//     raw dataset (the survey's reduceByKey-vs-groupByKey contrast)
//     but folds scattered buckets straight into groups with no merged
//     intermediate.
//     What an engine does with whole term-space solution sequences at
//     the driver is not part of that path and belongs to no surveyed
//     design — the Group and OPTIONAL arms of the BGP+ walker HAQWA,
//     S2RDF and S2X share (solutions.EvalPattern over each engine's
//     own evalBGP, S2X passing its RDD filter), SPARQLGX's OPTIONAL
//     against its broadcast right side, Spar(k)ql's component joins,
//     GX-Subgraph's disconnected-pattern join — so it goes through one
//     helper (internal/systems/solutions: Join, LeftJoin and the Table
//     both are made of). The build side is indexed on one variable
//     bound in every build row (rdf.Term is the map key; nothing is
//     rendered), a probe row that binds it visits its bucket and one
//     that does not (possible below OPTIONAL) scans, every candidate is
//     re-verified with Binding.Compatible, a build side under eight
//     rows is scanned, and the output is row for row the nested loop's
//     — left-major, right in slice order — which stays in the tree as
//     the property test's reference. The metered joins (KeyBy + Join,
//     Cartesian, broadcast) are each engine's own strategy and stay in
//     its package, keyed by the one solutions.Key: the helper moves no
//     Activity counter (TestAssessActivityPinned holds every cell of
//     the assessment to a table generated before it existed).
//
//   - The reference evaluator (internal/sparql over internal/rdf).
//     Queries are slot-compiled: a Var→slot table is built once per
//     query and every partial solution is a []rdf.TermID row over the
//     graph's dictionary-encoded triples (rdf.Graph.Encoded), the
//     HAQWA-style integer encoding. BGP patterns are reordered by
//     estimated selectivity from the SPARQLGX-style rdf.Stats, rows
//     are bump-allocated from arenas, and solution modifiers
//     (projection, DISTINCT, ORDER BY, LIMIT, ASK) run in id space so
//     only surviving rows are decoded back to terms. Graph lookups
//     (WithSubject/WithPredicate/WithObject) return zero-copy index
//     views. A pattern scan writes each output row once: the candidate
//     filter (patternScan.matches) compares every position the input
//     row binds and every variable the pattern repeats, so the row is
//     a copy of its input with the unbound positions stored straight
//     from the candidate, in an output sized from the candidate count;
//     cancellation is polled per run of candidates, the runs still
//     adding up to one poll per 1024 candidates visited. Joins (Group
//     folds and OPTIONAL, on one graph or above sharded BGPs) run as
//     one id-space hash join (sparql/eval.go hashJoin): the join key is
//     the slots bound in every row of both sides, the smaller side is
//     hashed on it, and the other side probes it — verifying candidates
//     with the full compatibility check, counting its matches to size
//     the output and the arena exactly (O(1) allocations beyond the
//     result rows), then emitting in left-major order. OPTIONAL is the
//     same body keeping the left rows nothing matched. The table's
//     int32 links and cursors fail with a typed *rdf.CapacityError past
//     2³¹−1 build or output rows instead of wrapping. Sides sharing no
//     slots (cartesian) or only partially bound on the key fall back to
//     the nested loop, which stays the semantic baseline.
//     Allocation-regression tests pin all of these invariants.
//
// # Query service
//
// internal/server wraps the reference evaluator in the thing the
// survey frames these systems as: a concurrent query-answering
// service. The serving contract is built on a compile-once/run-many
// split in internal/sparql:
//
//   - sparql.Prepare(text) parses once and builds the Var→slot table;
//     the resulting Prepared is goroutine-safe — any number of
//     (*Prepared).Run(ctx, g) calls may execute concurrently, each on
//     its own arena. Run honors context cancellation with an amortized
//     check (one poll per 1024 rows) inside the scan and join loops,
//     so deadlines and client disconnects abort long joins promptly
//     without costing the pinned allocations per operation. A context
//     that can never be cancelled costs the hot loops one nil check.
//   - Prepared memoizes, per BGP, the compiled patterns (constants
//     resolved to dictionary ids, selectivity-ordered) for one
//     snapshot, identified by (EncodedView pointer, triple count) or
//     by the shard set:
//     re-running on an unchanged graph skips constant encoding,
//     estimation, and join ordering; an Add invalidates by changing
//     the count. Published plans are immutable and shared lock-free by
//     concurrent runs. (*Prepared).RunSolutions returns id-space rows
//     whose terms decode on access, for streaming serializers.
//
// # Parallelism
//
// A Run on one graph is serial: it evaluates on the calling goroutine,
// and the server gets its concurrency from running queries side by
// side. Parallelism inside a query means shard fan-out — the surveyed
// systems get theirs from Spark's partitions — and that is all
// sparql.WithParallelism (server.Config.QueryParallelism) sets: how
// many shards one shard operation runs on at once (Sharded execution,
// below). The morsel-driven pool the single-graph evaluator carried
// until PR 25 (Leis et al., SIGMOD 2014) never measured a gain here: on
// a 2-vCPU box a 65k-row seed scan took 1.04–1.22 ms serially against
// 1.40–1.56 at width 2 and 1.33–1.46 at width 4, at 3.85 against 2.10
// MB/op, and eight alternating bench pairs with the pool never
// dispatched moved every `analytic`, `sharded` and `lookup` median
// inside the parent's quartile spread or in the serial side's favour
// (ROADMAP item 2 has the table). A 2-vCPU box cannot prove
// intra-query parallelism useless at 16 cores; a revival starts from
// item 2's Fix design — each worker writes its disjoint range of one
// pre-sized output, no private buffers and no merge copy, engaged only
// while in_flight < GOMAXPROCS. LIMIT pushes below the modifier
// pipeline: ORDER BY + LIMIT selects its K rows with a bounded heap
// (stable-sort-identical ties, BenchmarkEvalTopK) and LIMIT without
// ORDER BY stops the last pattern's scan as soon as OFFSET+LIMIT
// leading rows exist.
//
// # Sharded execution
//
// internal/shard turns the partitioning strategies of
// internal/partition into a live execution substrate. A ShardedGraph
// splits one dataset into N shards under any partition.Strategy —
// selected by name through the partition.ByName registry — each shard
// (and each replica) an rdf.EncodedView built straight from its bucket
// of ids around one shared rdf.Dictionary, so TermIDs are globally
// consistent and all cross-shard work stays in id space. The distributed executor
// (sparql.RunSharded) routes each prepared query by placement, and on
// both routes moves bindings to the data, never relations to a join —
// the survey's verdict on distributed BGP evaluation (S2RDF's ExtVP,
// SPARQLGX's and the hybrid engine's broadcast-vs-partitioned choice,
// HAQWA's star-local allocation).
//
// Pushdown: a WHERE clause that is one BGP whose patterns share one
// subject — a variable, or a constant (a point lookup) — evaluates
// whole on each shard when the placement co-located subjects (verified
// at build time, not assumed), with no cross-shard step; only the
// shards holding candidates for every pattern are asked, which for a
// constant subject is the one shard that holds it.
//
// Bind join (the "scatter-gather" route of /stats and ShardStats):
// every other BGP runs pattern by pattern in the global plan's order,
// as on one graph, starting from the empty row. For each pattern the
// whole batch of rows bound so far goes to each shard that can
// contribute, in one shard operation — replica choice, breaker, hedge,
// deadline slice, fault point and retry are per (pattern, shard), never
// per row. The shard probes its own view once per input row (the
// single-graph scan kernel; a row whose bound subject the shard does
// not hold costs one offset read) and answers each extension keyed by
// (input-row index, global position of the matched triple), packed in
// one uint64, ascending. The driver k-way merges the shards' runs on
// that key. A triple lives on exactly one shard and positions ascend
// within any index range of a view, so the merged sequence is, row for
// row, what the single-graph loop "for each row, match the pattern"
// emits: determinism by construction. No pattern's match set is ever
// materialized and no join runs inside a BGP; the id-space hash join
// remains above it, for OPTIONAL, groups and UNION, with FILTER and
// the modifier pipeline unchanged on top. LIMIT without ORDER BY (and
// ASK) reaches the last pattern of a sole BGP as on one graph: each
// shard's run is a subsequence of the merged order, so a shard stops
// at its own max-th row. A batch past the key's 31-bit row index fails
// with a typed *rdf.CapacityError. At WithParallelism > 1 the shards of
// one operation run concurrently, the driver itself taking the last, so
// an operation that pruning leaves one shard for starts no goroutine.
// What this stage does not do: a shard still receives every row of the
// batch, including rows whose subject lives elsewhere; routing rows by
// the placement function is ROADMAP item 3's next stage.
//
// Shards whose indexes cannot contribute a candidate to a pattern are
// pruned unscanned (the vertical/semantic payoff), reported through
// ExplainShards and the /stats sharding block. Determinism contract:
// shards preserve dataset insertion order, every triple's global
// position is the low half of the merge key — an int32 column each
// shard view stores beside its triples in every order it keeps them,
// so a scan reads a match's key from the array it is walking (no
// per-triple hash, map or dictionary lookup; sparql/dist.go has the
// invariant) — and the plan compiles from the summed global statistics
// — so sharded output is byte-identical (rows and order) to the serial
// single-graph run at any shard count, replica count and fan-out width
// (the WithParallelism axis: it exists on sharded runs only), pinned by
// the cross-strategy determinism suite under the race detector and by
// TestShardedMatchesReferenceProperty (internal/shard), which holds
// generated queries on generated graphs to the single graph as a
// sequence — also at two replicas with one down and a quarter of the
// scatter attempts failing — and to a nested-loop reference as a
// multiset.
// rdfserve -shards N -partition <name> serves it;
// rdfbench -shards compares strategies by end-to-end query latency.
//
// Storage and concurrency. There is one store, and it is in id space.
// An rdf.Graph owns a dictionary, its distinct triples as 12-byte
// EncodedTriples in insertion order, and a set of them; Add builds
// nothing else, and rdfserve streams an N-Triples file from the parser
// straight into it (rdf.ReadNTriples), the dictionary cloning each
// term's strings once so no entry pins its input line. Everything else
// is derived on first use and cached under one mutex (encMu): the flat
// EncodedView every query runs on — per position one contiguous copy of
// the triples grouped by id with a stable counting sort (insertion
// order within a key, which every byte-identical contract rides on)
// plus a dense uint32 offset table, so a lookup is two array reads, the
// view holds no Go map and no pointer, and the collector never scans it
// — the statistics, and the term-space face (Triples, WithSubject, …)
// that only the RDFS closure, the surveyed engines' harness, and tests
// read; nothing on the serving path, DESCRIBE included, touches it. A
// Graph is single-writer/many-reader: any number of goroutines may race
// into a cold Encoded, Stats, or term-space accessor; after an Add the
// next Encoded or Stats rebuilds from the encoded list in O(n), while
// the term-space face only decodes what was added since it was last
// read. Sharded stores skip rdf.Graph altogether (rdf.NewPositionedView
// per replica). The layout's fixed widths — uint32 ids below the
// evaluator's unbound sentinel, int32 positions, uint32 offsets — fail
// with a typed *rdf.CapacityError at build time, never wrap. The live
// footprint is ≈ 150 B/triple (dictionary included), pinned at ≤ 256 by
// TestStoreFootprintPin and BenchmarkStoreBuild in CI.
//
// The server itself holds one such read-only rdf.Graph (or one
// shard.ShardedGraph), an LRU plan cache keyed by exact query
// text (a hit returns the shared Prepared and skips parse + compile
// entirely — BenchmarkServeCachedQuery measures the gap), a bounded
// worker pool whose admission queue charges waiting time against the
// query's deadline, and streaming SPARQL JSON / TSV / N-Triples writers
// that decode each surviving row straight into a response window, never
// materializing []Binding. The window is a pooled 64 KiB []byte
// (internal/server/stream.go): rows are appended to it in place and
// each full window is handed to the http.ResponseWriter in one Write,
// which net/http passes through as one chunk — one user-space copy per
// byte and about one write(2) per window. What a disconnected client
// can still cost is bounded by the context poll every streamFlushEvery
// (512) rows and by at most one window in flight; a failure after the
// first window (cancellation, a failed Write) truncates the response,
// because written rows cannot be unwritten. /healthz and /stats
// (plan-cache counters, in-flight gauge, latency histogram) expose the
// service's state.
//
// Rendered terms. Solutions stay in id space until the writer and the
// dictionary does not change while the server runs, so the bytes a
// term renders to are a function of (dictionary, id, format) and the
// server keeps them: one table per result format (SPARQL-JSON objects;
// N-Triples terms for TSV), beside its one dictionary, allocated by the
// first response in that format (internal/server/terms.go). A cell
// whose id has an entry is one atomic load and one copy of the finished
// bytes into the window; any other cell is rendered in place as before
// and, if it has an id, published — once, under a fill mutex, the index
// word stored only after the bytes it points at, into chunks that never
// move, so readers never lock and never see a change. Decoded solutions
// (aggregates, -engine results) and graph results carry no ids and are
// rendered per cell. The footprint is bounded by three constants, not
// configured: a term is stored at most once, a rendering over 4 KiB is
// not stored, and filling stops for good at 32 B per dataset triple.
// Full, oversized or late means render-per-cell, never an error and
// never different bytes. /stats (rendered_terms, rendered_bytes) and
// /metrics (rdf_rendered_terms, rdf_rendered_bytes, by format) read
// the tables' own counters.
//
// # Fault model
//
// The surveyed Spark systems inherit lineage-based fault tolerance
// from the platform: a lost task re-runs from its lineage and the job's
// answer never changes. The native engine reproduces that contract
// in-process, per shard operation: a panicking or fault-injected op is
// recovered and failed over to another replica, and only a lost shard
// fails the query — never the process — with a typed
// sparql.PartialFailureError (a panic on a shard with nowhere to fail
// over surfaces as a sparql.PanicError). Per-shard ops run against
// replica views (shard.BuildReplicated):
// every replica encodes the same triples in the same order through the
// shared dictionary, so scans are byte-identical from any replica and
// failover is invisible in the output. Replica selection steers by
// per-replica circuit breakers (consecutive failures trip a breaker
// open; a cooled-down breaker admits a half-open probe) but never
// denies: an op retries across replicas with capped exponential
// backoff charged against the context deadline, and only after
// genuinely attempting every replica for the whole retry budget does
// the query fail, with a sparql.PartialFailureError naming the lost
// shards. Cancellation is never retried. Determinism under faults is
// the pinned contract: the chaos suite runs every workload query with
// one replica of each shard failed and latency injected on every
// scatter attempt, and requires output byte-identical to a clean
// single-graph run, under the race detector, across seeds
// (internal/fault seeds all injected randomness). The HTTP layer
// completes the fault boundary: a recovery middleware turns any
// handler panic — a panicking evaluation on one graph included — into
// a 500 while the process keeps serving (TestEveryExit's panic rows),
// PartialFailureError maps to 502, the
// Config.MaxResultRows overload guard maps to 413, /stats exposes the
// fault counters and breaker states, and rdfserve drains in-flight
// queries gracefully on SIGTERM.
//
// # Straggler model
//
// Failures are not the only tail risk the surveyed platform defends
// against: Spark's speculative execution re-runs tasks that merely run
// slow. The native engine reproduces that straggler defense per shard
// operation, under the fault model's contract — recovery actions never
// change output. Replica selection
// steers by health: each replica carries an EWMA of its
// successful-attempt latency and a decayed error rate
// (sparql.ReplicaHealth), unsampled replicas are warmed round-robin,
// and among closed breakers the lowest score wins, so stragglers shed
// traffic without being declared dead. A run armed with
// sparql.WithHedge races stubborn stragglers instead of waiting them
// out: a shard op that outlives the hedge delay — fixed, or adaptive
// from the op class's observed p95 (scatter scans and pushdowns keep
// separate windows) — launches on the next-best replica, the first
// success wins, and the loser is stopped through its private
// cancellation flag; byte-identical replica scans make the race
// invisible in the output. Retried and hedged passes each get a
// bounded slice of the remaining context deadline, so one straggling
// replica cannot consume the whole budget that later attempts would
// have used. The chaos suite extends the fault matrix with stragglers:
// one replica of every shard slowed ~100×, hedging armed, output
// pinned byte-identical to a clean single-graph run across placement
// strategies, shard counts, replica counts, and fan-out width, raced
// and seed-swept; hedge launches and wins surface in
// sparql.FaultStats, /stats, /metrics, and the slow-query log.
//
// # Resource model
//
// Spark kills or spills a task that outgrows its executor's memory;
// one pathological job cannot take a worker down. The native engine
// reproduces that governance at query granularity. A run armed with
// sparql.WithMemoryBudget charges one shared atomic byte counter at
// every evaluator-owned allocation site — row-arena chunk growth,
// hash-join tables, probe cursors and output batches, the sharded
// gather's merge buffers — and aborts
// with a typed sparql.BudgetError the moment the charges exceed the
// budget. The abort rides the same latched-error machinery as
// cancellation, so a budgeted query either returns output
// byte-identical to an unbudgeted run or fails typed — never partial
// rows — and an unarmed run pays one nil check per charge site,
// leaving the allocation pins intact. In front of the worker pool, the
// server's admission controller watches the queue depth and each
// query's planner cost estimate (Prepared.EstimateCost — connected
// components sum, cartesian components multiply) and sheds, before the
// deadline is armed: past half the queue expensive queries get an
// immediate 503 instead of burning their deadline in a hopeless queue,
// and a full queue sheds everything; an admitted query runs exactly as
// it would uncontended. Config.MaxQueryBytes maps budget aborts to
// 413, http.MaxBytesReader caps request bodies, and the /stats
// resources block reports bytes charged, the peak single-query charge,
// budget aborts, and shed query counts.
//
// # Observability
//
// internal/obs is the engine's observability layer, built under one
// contract: observing a run never steers it. A run armed with
// sparql.WithTrace records a span tree down the whole execution path —
// parse (plan-cache hit/miss), each BGP with its join order and
// per-pattern selectivity estimates next to actual row counts, each
// hash join's build side and inputs/output, shard scatter/gather with
// per-shard row counts and pruned/retried/failed-over shards, the
// modifier pipeline, and response serialization; the span tree is
// driver-only, and the run-wide counters (fan-out width, fault
// counters, bytes charged) land on the root once the run quiesces.
// Traced output is byte-identical to an untraced run (pinned across
// fan-out widths 1/4 and shards 1/3 under the race detector), and a
// disarmed run pays one nil check per trace
// site, leaving every allocation pin intact. Three surfaces consume
// the trace: explain=analyze on /sparql (and rdfquery -explain)
// answers with the span tree as JSON or indented text instead of
// results; GET /stats (JSON) and GET /metrics (Prometheus text
// exposition format) are two renderings of one list — a server series
// is one line of declareMetrics (internal/server/stats.go) carrying its
// /metrics family, its dotted /stats path and its help text, and both
// documents render from that obs.Registry; the counters and histogram
// buckets are atomics the request path moves in place, so a scrape is
// exact per series, not a snapshot across them; and the
// slow-query log (Config.SlowQueryThreshold; rdfserve
// -slow-query-threshold) emits one JSON line per slow query — request
// id, query hash (never the text), route, shard fan-out, and the
// top-3 spans by self time. Every response carries an X-Request-ID
// (inbound ids are honored, error bodies quote it), and rdfserve
// -debug-addr serves pprof on a separate listener off the query port.
//
// # Workload observability
//
// Where EXPLAIN describes one query, the workload observatory
// describes what the server has been serving — always on, bounded in
// memory. Its key is the plan fingerprint (sparql.FingerprintQuery,
// memoized on every Prepared plan): a hash of the query's structure
// under canonical variable numbering — join graph, predicate
// identities, filter shapes, modifiers — with literal values, entity
// constants, and LIMIT/OFFSET arguments erased, so ten thousand
// instantiations of one template are one workload entry. The server
// folds every request into a per-fingerprint aggregate
// (obs.ShapeRegistry: count, latency/rows/bytes histograms, route
// mix, cache hits, errors, sheds, hedges),
// LRU-bounded at Config.MaxShapes distinct shapes and served at
// GET /debug/shapes and in the /stats workload block.
// Config.TraceSampleRate arms always-on sampled tracing — one in N
// requests runs traced, deterministically off the request counter —
// and finished span trees (sampled, slow, and EXPLAIN captures) are
// retained in a bounded ring (obs.TraceRing, Config.TraceRingSize)
// behind GET /debug/queries and /debug/queries/<request-id>. Sampling
// inherits the observe-don't-steer contract: sampled responses are
// byte-identical and unsampled requests keep the one-nil-check fast
// path. /metrics adds labeled series — per-replica breaker state,
// latency EWMA, and error rate keyed {shard,replica}; per-shape query/
// error/cache-hit counters and p95 keyed {fingerprint,class} — and
// slow-query log lines carry plan_fingerprint so a slow line joins
// against its shape's history. GET /debug/dash serves a
// self-contained HTML dashboard (no external assets) over these
// endpoints, and rdfbench -json writes the same fingerprint-keyed
// per-query results as a machine-readable benchmark document.
//
// Run the micro-benchmarks tracking these paths with
//
//	go test -run xxx -bench 'BenchmarkEval|BenchmarkPartitionBy|BenchmarkReduceByKey' -benchmem ./...
//
// and the full assessment suite with go test -bench . -benchmem.
//
// See README.md for the system inventory and bench/README.md for the
// acceptance benchmark that drives rdfserve over a socket. The
// benchmarks in this package (bench_test.go) regenerate every artifact
// of the paper.
package repro
