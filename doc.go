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
//     the dataset to the driver. Join skips the shuffle for sides that
//     are already hash-partitioned with the matching partition count,
//     and BroadcastJoin ships the small side to every executor instead
//     of shuffling the large one; the Spark SQL and GraphFrames
//     DataFrame joins ride both, and Cartesian is the cross-product
//     fallback. That, with the narrow transformations and broadcast
//     variables, is all the nine engines run: the substrate holds
//     nothing else but the survey's reduceByKey-vs-groupByKey
//     contrast, which its own tests exercise (combine_test.go).
//     ReduceByKey goes through CombineByKey's combiner-aware scatter —
//     values fold into per-destination combiner maps while records are
//     being placed, so exactly one combined record per (source
//     partition, key) crosses the shuffle — while GroupByKey
//     deliberately shuffles the raw dataset but folds scattered
//     buckets straight into groups with no merged intermediate. CI
//     fails on a substrate function no engine, CLI, example or bench
//     test enters.
//     The engines of one assessment (systems.AllEngines) encode the
//     dataset once: the first Load dedupes and encodes the slice it is
//     handed into one solutions.Dataset — one rdf.Dictionary, the
//     distinct rdf.EncodedTriples in first-occurrence order, their
//     rdf.Stats and each term's N-Triples rendering (the encode-and-
//     dedupe body is rdf.EncodeDistinct, the sharded boot's too) — and
//     every other Load handed the same slice builds its layout from
//     that (solutions.Source; an engine built alone encodes for
//     itself). A GraphX vertex id is a TermID, and SparkRDF's indexes
//     and SPARQLGX's vertical files are keyed by ids; S2RDF's and
//     GraphFrames' DataFrame cells stay rendered terms, decoded through
//     the dataset's one rendering table. The dictionary is read-only
//     once loaded: a query's constants are looked up, and one the data
//     does not hold matches nothing. Every engine's one solution
//     representation is solutions.Row: a query's variables get slots
//     once per Execute (solutions.Schema, in sorted variable order),
//     and a solution is one rdf.TermID per slot, the reserved top id
//     where it binds none, so a row holds no pointer — the engines'
//     RDDs, GraphX messages and match tables all carry rows, and
//     solutions.Merge is the one SPARQL merge, comparing ids. A row is
//     the reference evaluator's own row type ([]rdf.TermID), so rows
//     pass between the two uncopied, and a FILTER reads slots through
//     the dictionary's term table and decodes nothing. FILTER has one
//     evaluator for the reference, the sharded route and every engine:
//     sparql.CompileFilter resolves a condition's variables to slots
//     once per query, and sparql.Holds evaluates it three-valued (true,
//     false or error, SPARQL 1.1 §17.2 and §17.3; FilterExpr names the
//     subset) over any row that gives a slot's term and its numeric
//     value, keeping the row only on true; two numeric operands compare
//     by value, with no term read. ORDER BY is another order,
//     sparql.CompareTerms (§15.1), which MIN, MAX and the assessment's
//     tie check share: one order over all terms, numeric literals
//     first among literals, by value, then lexical form, datatype and
//     language — so a sort's result does not depend on its input's.
//     What an engine does with whole solution sequences at the driver
//     belongs to no surveyed design, so it is the reference evaluator's
//     code, of which there is one copy. HAQWA, S2RDF and S2X answer
//     through sparql.EvalRows: the reference's walker calls each
//     engine's own BGP evaluation (and S2X's RDD filter) in the order
//     the pattern is written, and joins, left-joins, unions and
//     filters the rows above them exactly as it does its own. SPARQLGX,
//     which translates OPTIONAL and UNION into RDD operations itself,
//     and the five BGP-only engines hand their rows to sparql.Answer.
//     Both finish through the reference's one id-space answer tail
//     (the aggregate, ORDER BY before projection, then DISTINCT and the
//     slice, §18.2.5) and answer its surviving id rows, undecoded
//     (sparql.Results, below). Spar(k)ql's component
//     joins, GX-Subgraph's disconnected-pattern join and each task of
//     SPARQLGX's OPTIONAL against its broadcast right side call the
//     reference's join kernel, sparql.JoinRows, whose output is row for
//     row the nested loop's. The metered joins (KeyBy + Join,
//     Cartesian, broadcast) are each engine's own strategy and stay in
//     its package, keyed by the one Schema.Key, whose bytes are the
//     ones a Binding-keyed shuffle rendered, copied from the dataset's
//     renderings: the driver-side algebra moves no integer Activity
//     counter (TestAssessActivityPinned holds every cell of the
//     assessment; its ShuffleBytes moved when rows replaced bindings,
//     and again when ids replaced terms in rows).
//
//   - The reference evaluator (internal/sparql over internal/rdf).
//     Queries are slot-compiled: a Var→slot table is built once per
//     query and every partial solution is a []rdf.TermID row over the
//     graph's dictionary-encoded triples (rdf.Graph.Encoded), the
//     HAQWA-style integer encoding. BGP patterns are reordered by
//     estimated selectivity from the SPARQLGX-style rdf.Stats, rows
//     are bump-allocated from arenas. Every query form has one answer
//     tail, in id space, on one graph, on a shard set and in the nine
//     engines: the aggregate (groups keyed on ids; a computed value the
//     dictionary lacks takes an id past its end, one per distinct
//     value of the run), then the solution modifiers (ORDER BY,
//     projection, DISTINCT, OFFSET / LIMIT in §18.2.5's order; the
//     projection copies no row: it is the answer's column map, each
//     selected variable's slot, which DISTINCT keys on — through the
//     join kernel's chained table, charged to the budget — and every
//     reader goes through), then
//     the form's output — the surviving rows for SELECT, a template
//     instantiated over them for CONSTRUCT, their subjects' triples for
//     DESCRIBE (§16.4: the slice bounds the targets). An answer is its
//     id rows: sparql.Results and Solutions share the surviving rows,
//     the run's environment (its dictionary snapshot and the values an
//     aggregate computed past it) and each column's slot, and a caller
//     reads a cell by position (Term), decoding that one term; nothing
//     decodes an answer into maps. Results.Equal compares two answers in
//     id space even when each holds ids over a dictionary of its own —
//     an engine's solutions.Dataset against the oracle's rdf.Graph: it
//     packs one side's rows into keys of its ids and translates each
//     distinct id of the other side once, through its term, into that
//     space (a term the first side lacks makes the answers unequal).
//     The encoded view's lookups
//     (WithSubject/WithPredicate/WithObject, by TermID) return
//     zero-copy index views. A pattern scan resolves in two steps: once
//     per shard operation, the pattern's constants (their ids, a
//     constant the dictionary lacks, the smallest range they select);
//     then per input row only the positions that row binds, each
//     narrowing the range, a row binding a term with an empty range
//     skipping its scan. Every range lists its triples in insertion
//     order, so the range chosen changes no row and no order. The one
//     scan loop (bindShard, on a graph as on every shard route) writes
//     each output row once: the candidate
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
//     2³¹−1 build or output rows instead of wrapping; so does a BGP's
//     row batch, whose index is the upper half of the bind join's merge
//     key (maxBindRows) — on one graph too, which runs that bind join
//     over its one view. Sides sharing no
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
//     snapshot, identified by the set's first EncodedView pointer and
//     its triple count (a graph is wrapped anew on every run, its view
//     is not):
//     re-running on an unchanged graph skips constant encoding,
//     estimation, and join ordering; an Add invalidates by changing
//     the count. Published plans are immutable and shared lock-free by
//     concurrent runs. (*Prepared).RunSolutions returns id-space rows
//     whose terms decode on access, for streaming serializers.
//
// # Parallelism
//
// A Run on one graph is serial: it evaluates on the calling goroutine
// (route local: the bind join over the graph's one view, below), and
// the server gets its concurrency from running queries side by side. Parallelism inside a query means shard fan-out — the surveyed
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
// one rdf.EncodedView built straight from its bucket of ids around one
// shared rdf.Dictionary, however many replicas serve it, so TermIDs are globally
// consistent and all cross-shard work stays in id space. It boots the
// way one graph does: shard.Read takes the triples as a stream (rdfserve
// hands it an N-Triples file through rdf.ReadNTriples) and encodes and
// deduplicates each as it arrives, and the strategy places the encoded
// triples, hashing a term once per TermID — no []rdf.Triple of the
// dataset is ever built. The executor (sparql.RunSharded) is the one
// BGP evaluator: one graph is its one-shard case — Run wraps the
// graph's view as sparql.GraphSet, whose route "local" is the bind
// join below over one view, serial, with no fault points, no shard
// report and the single-graph span names (bgp, seed_scan, match). It
// routes each prepared query by placement, and on
// both routes moves bindings to the data, never relations to a join —
// the survey's verdict on distributed BGP evaluation (S2RDF's ExtVP,
// SPARQLGX's and the hybrid engine's broadcast-vs-partitioned choice,
// HAQWA's star-local allocation).
//
// Pushdown: a WHERE clause that is one BGP whose patterns share one
// subject — a variable, or a constant (a point lookup) — evaluates
// whole on each shard when the placement co-located subjects (verified
// at build time, not assumed), with no cross-shard step: the shard
// operation is the bind join below run whole, every pattern in plan
// order from the empty row, each later row keeping the merge key of
// the seed row it extends. Only the shards holding candidates for
// every pattern are asked, which for a constant subject is the one
// shard that holds it. There is one scan loop (sparql/dist.go
// bindShard) on every route: local, scatter and pushdown.
//
// Bind join (the "scatter-gather" route of /stats and ShardStats):
// every other BGP runs pattern by pattern in the global plan's order,
// as on one graph, starting from the empty row. For each pattern the
// whole batch of rows bound so far goes to each shard that can
// contribute, in one shard operation — replica choice, fault point
// and retry are per (pattern, shard), never per row. The shard resolves
// the pattern's constants on its view once per operation and probes
// the view once per input row (the single-graph scan kernel; a row
// binding a term the shard does not hold at that position costs one
// offset read) and answers each extension keyed by
// (input-row index, global position of the matched triple), packed in
// one uint64, ascending. The driver k-way merges the shards' runs on
// that key. A triple lives on exactly one shard and positions ascend
// within any index range of a view, so the merged sequence is, row for
// row, what one view's pass "for each row, match the pattern"
// emits: determinism by construction. No pattern's match set is ever
// materialized and no join runs inside a BGP; the id-space hash join
// remains above it, for OPTIONAL, groups and UNION, with FILTER and
// the modifier pipeline unchanged on top. LIMIT without ORDER BY (and
// ASK) reaches the last pattern of a sole BGP as on one graph: each
// shard's run is a subsequence of the merged order, so a shard stops
// at its own max-th row. A batch past the key's 31-bit row index fails
// with a typed *rdf.CapacityError, on one graph as on a shard set. An
// operation pruning leaves one shard for — and every operation on one
// graph — runs on the driver, builds no merge keys and merges nothing:
// its run is the answer. At WithParallelism > 1 the shards of a wider
// operation run concurrently, the driver itself taking the last.
// What this stage does not do: a shard still receives every row of the
// batch, including rows whose subject lives elsewhere; routing rows by
// the placement function is ROADMAP item 3's next stage.
//
// Shards whose indexes cannot contribute a candidate to a pattern are
// pruned unscanned (the vertical/semantic payoff), reported through
// ShardStats and the /stats sharding block. Determinism contract:
// shards preserve dataset insertion order, every triple's global
// position is the low half of the merge key — an int32 column each
// shard view stores beside its triples in every order it keeps them,
// so a scan reads a match's key from the array it is walking (no
// per-triple hash, map or dictionary lookup; sparql/dist.go has the
// invariant) — and the plan compiles from the summed global statistics
// — so sharded output is byte-identical (rows and order) to the serial
// single-graph run at any shard count, replica count and fan-out width
// (the WithParallelism axis: it exists on shard sets only), pinned by
// the cross-strategy determinism suite under the race detector and by
// TestShardedMatchesReferenceProperty (internal/shard), which holds
// generated queries on generated graphs to the single graph as a
// sequence — also at two replicas with one down and a quarter of the
// scatter attempts failing — and to a nested-loop reference as a
// multiset.
// rdfserve -shards N -partition <name> serves it, and
// go run ./bench -workload sharded measures it end to end.
//
// Storage and concurrency. There is one store, and it is in id space.
// An rdf.Graph owns a dictionary, its distinct triples as 12-byte
// EncodedTriples in insertion order, and a dedupe set of their
// positions; Add builds nothing else. Both lookup structures are
// pointer-free open-addressing []uint32 tables kept at most half full
// — the dictionary's of id+1 hashed over the whole term (hash/maphash,
// a per-dictionary seed), the set's of position+1 hashed over
// (S, P, O) — so the collector scans neither, and the dictionary's
// []Term with its cloned strings is the only pointerful layer left.
// The dictionary's table is probed under its read lock and grown under
// its write lock; TryEncodeTriple probes all three terms under one read
// lock and takes the write lock only for a new term. rdfserve streams
// an N-Triples file straight into the graph (rdf.ReadNTriples): one
// goroutine scans and parses the lines and hands batches of 512
// triples to the caller's, which adds them serially in document order,
// so parsing runs on the second core; the parser has exited before
// ReadNTriples returns, and a parse error keeps its line number. The
// dictionary clones each new term's strings once, so no entry pins its
// input line. Two things are derived on first use and cached under one
// mutex (encMu): the flat EncodedView every query and the RDFS closure
// run on — per position one contiguous copy of the triples grouped by
// id with a stable counting sort (insertion order within a key, which every
// byte-identical contract rides on) plus a dense uint32 offset table,
// so a lookup is two array reads, the view holds no Go map and no
// pointer, and the collector never scans it — and the statistics, whose
// per-predicate counts are keyed by TermID. Graph.Triples decodes the
// whole list on each call and caches nothing; the closure's output,
// evolve's base snapshot, HAQWA's Allocate, tests and the bench call
// it, never the serving path. A Graph is
// single-writer/many-reader: any number of goroutines may race into a
// cold Encoded or Stats; after an Add the next one rebuilds from the
// encoded list in O(n). Building a view ends loading, so it drops the
// append slack of the encoded list and of the dictionary's term table
// and numeric column (up to a growth step each, live for the process's
// life otherwise). The dictionary also keeps a numeric column
// (rdf.Numbers, after HDT's per-id dictionary columns): each term's
// value when it is a numeric literal, parsed once as its id is
// assigned, pointer-free at 8 B a term (a NaN no parse returns marks a
// term that is not numeric). A run snapshots it beside the term table,
// so FILTER comparisons and ORDER BY keys read a float per id instead
// of parsing the lexical form per row. Sharded stores skip rdf.Graph altogether (one
// rdf.NewPositionedView per shard). The layout's fixed widths — uint32 ids below the
// evaluator's unbound sentinel, int32 positions, uint32 offsets — fail
// with a typed *rdf.CapacityError at build time, never wrap. The live
// footprint is ≈ 100 B/triple (dictionary included; ≈ 153 while the
// two tables were Go maps), pinned at ≤ 110 by TestStoreFootprintPin
// and BenchmarkStoreBuild in CI.
//
// The server itself holds one read-only sparql.ShardSet — one graph's
// GraphSet, or a shard.ShardedGraph's set (whose graph it keeps only
// for the /stats sharding block) — behind one constructor body that
// server.New and server.NewSharded wrap, an LRU plan cache keyed by exact query
// text (a hit returns the shared Prepared and skips parse + compile
// entirely — BenchmarkServeCachedQuery measures the gap), a bounded
// worker pool whose admission queue charges waiting time against the
// query's deadline, and streaming SPARQL JSON / TSV / N-Triples writers
// that decode each surviving row straight into a response window, never
// materializing a decoded row. The window is a pooled 64 KiB []byte
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
// move, so readers never lock and never see a change. An aggregate's
// value past the dictionary and graph results carry no key and are
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
// over surfaces as a sparql.PanicError). A replica
// (shard.BuildReplicated) is a routing identity, not a copy: every
// replica of a shard scans the shard's one view, so failover is
// invisible in the output by construction, while faults
// (fault.ReplicaPoint) and health scores stay keyed by (shard,
// replica). Replica selection steers by the health scores of the
// Straggler model — a replica that has only ever failed ranks after
// every replica that has answered — but never denies: an op fails
// over at once to the next replica and retries across replicas with
// capped exponential backoff charged against the context deadline,
// and only after genuinely attempting every replica for the whole
// retry budget does the query fail, with a sparql.PartialFailureError
// naming the lost shards. Cancellation is never retried. Determinism under faults is
// the pinned contract: the chaos suite runs every workload query with
// one replica of each shard failed and latency injected on every
// scatter attempt, and requires output byte-identical to a clean
// single-graph run, under the race detector, across seeds
// (internal/fault seeds all injected randomness). The HTTP layer
// completes the fault boundary: a recovery middleware turns any
// handler panic — a panicking evaluation on one graph included — into
// a 500 while the process keeps serving (TestEveryExit's panic rows),
// PartialFailureError maps to 502, /stats exposes the fault counters
// and every replica's health, and rdfserve drains in-flight
// queries gracefully on SIGTERM.
//
// # Straggler model
//
// Failures are not the only tail risk the surveyed platform defends
// against: Spark's speculative execution re-runs tasks that merely run
// slow. The native engine defends per shard operation by steering,
// under the fault model's contract — recovery actions never change
// output. Each replica carries an EWMA of its successful-attempt
// latency and a decayed error rate (sparql.ReplicaHealth); replicas
// never attempted are warmed round-robin, then the lowest score wins,
// so a straggler sheds traffic once it is sampled slow, without being
// declared dead. That is the one replica policy: no breaker, no
// hedge. A replica here is a routing identity over its shard's one
// view in one process, so only an injected fault plan makes one
// replica slower than another, and a fixed straggler
// (rdfserve -chaos-slow-replica) costs only the warm-up attempts that
// sample it. Racing a second attempt pays off when replicas fail
// independently (Dean & Barroso, "The Tail at Scale", CACM 2013);
// here it won only against a straggler that moves every query, which
// no flag injects, and cost every op its delay against a fixed one,
// so no op races. Attempts run under the query's own deadline,
// unsliced. The chaos
// suite extends the fault matrix with stragglers: one replica of every
// shard slowed ~100×, its index moving per query, output pinned
// byte-identical to a clean single-graph run across placement
// strategies, shard counts, replica counts, and fan-out width, raced
// and seed-swept; TestHealthSteersOffSlowReplica pins by count that a
// fixed straggler stops being attempted once sampled, and each
// replica's scores surface in /stats (faults.replica_health) and on
// /metrics.
//
// # Resource model
//
// Spark kills or spills a task that outgrows its executor's memory;
// one pathological job cannot take a worker down. The native engine
// reproduces that governance at query granularity. A run armed with
// sparql.WithMemoryBudget charges one shared atomic byte counter at
// every evaluator-owned allocation site — row-arena chunk growth,
// hash-join tables, probe cursors and output batches, the bind join's
// output batches, DISTINCT's key table, the sharded gather's merge
// buffers — and aborts
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
// 413 and is the one limit on a query's size: an id-space result's
// rows live in the charged row arena, so there is no second, post-hoc
// row cap. http.MaxBytesReader caps request bodies, and the /stats
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
// (obs.ShapeRegistry: count, a latency histogram, rows and bytes
// totals, route mix, cache hits, errors, sheds),
// LRU-bounded at Config.MaxShapes distinct shapes and served at
// GET /debug/shapes and in the /stats workload block.
// Config.TraceSampleRate arms always-on sampled tracing — one in N
// requests runs traced, deterministically off the request counter —
// and finished span trees (sampled, slow, and EXPLAIN captures) are
// retained in a bounded ring (obs.TraceRing, Config.TraceRingSize)
// behind GET /debug/queries and /debug/queries/<request-id>. Sampling
// inherits the observe-don't-steer contract: sampled responses are
// byte-identical and unsampled requests keep the one-nil-check fast
// path. /metrics adds labeled series — per-replica latency EWMA and
// error rate keyed {shard,replica}; per-shape query/
// error/cache-hit counters and p95 keyed {fingerprint,class} — and
// slow-query log lines carry plan_fingerprint so a slow line joins
// against its shape's history. GET /debug/dash serves a
// self-contained HTML dashboard (no external assets) over these
// endpoints.
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
