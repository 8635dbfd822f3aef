// Package hybrid reproduces the SPARQL graph-pattern processing study
// of Naacke, Amann and Curé (GRADES@SIGMOD 2017, survey ref [21]):
// five ways of evaluating BGPs on Spark, distilled here into four
// selectable strategies over subject-hash-partitioned data:
//
//   - StrategySparkSQL: the naive Spark SQL translation, which uses
//     broadcast joins but degenerates to Cartesian products when a
//     query has more than one triple pattern — the significant
//     drawback the paper calls out;
//   - StrategyRDD: each join becomes a partitioned (shuffle) join in
//     the input pattern order, and every triple pattern re-reads the
//     whole dataset;
//   - StrategyDataFrame: cost-based broadcast-vs-partitioned selection
//     on size alone, ignoring existing data partitioning;
//   - StrategyHybrid: the paper's contribution — a greedy optimizer
//     that combines broadcast joins with partitioned joins and
//     exploits the subject-hash partitioning, so subject-subject
//     (star) joins run co-partitioned with no shuffle.
//
// Supported fragment (Table II): BGP.
package hybrid

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// Strategy selects the join planning mode.
type Strategy int

// Strategies of the study.
const (
	StrategyHybrid Strategy = iota
	StrategyRDD
	StrategyDataFrame
	StrategySparkSQL
)

func (s Strategy) String() string {
	switch s {
	case StrategyRDD:
		return "rdd-partitioned"
	case StrategyDataFrame:
		return "dataframe-broadcast"
	case StrategySparkSQL:
		return "sparksql-cartesian"
	default:
		return "hybrid"
	}
}

// Engine is the hybrid-study system.
type Engine struct {
	solutions.Source
	ctx *spark.Context
	// Mode selects the join strategy; the zero value is the hybrid
	// planner.
	Mode Strategy
	// parts is keyed and hash-partitioned by subject rendering.
	parts *spark.RDD[spark.Pair[string, rdf.EncodedTriple]]
	data  *solutions.Dataset
}

// New creates an unloaded engine on ctx (hybrid mode).
func New(ctx *spark.Context) *Engine { return &Engine{ctx: ctx} }

// NewWithStrategy creates an engine pinned to one strategy, for the
// join-strategy ablation.
func NewWithStrategy(ctx *spark.Context, s Strategy) *Engine {
	return &Engine{ctx: ctx, Mode: s}
}

// Info implements core.Engine.
func (e *Engine) Info() core.SystemInfo {
	return core.SystemInfo{
		Name:            "Hybrid",
		Citation:        "[21]",
		Model:           core.TripleModel,
		Abstractions:    []core.Abstraction{core.RDDAbstraction, core.DataFramesAbstraction},
		QueryProcessing: "Hybrid",
		Optimized:       true,
		Partitioning:    "Hash-sbj",
		SPARQL:          core.FragmentBGP,
	}
}

// Context implements core.Engine.
func (e *Engine) Context() *spark.Context { return e.ctx }

// Load hash-partitions the dataset on the subject value.
func (e *Engine) Load(triples []rdf.Triple) error {
	d, err := e.Dataset(triples)
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	keyed := spark.KeyBy(spark.Parallelize(e.ctx, d.Triples), func(t rdf.EncodedTriple) string { return d.Rendered(t.S) })
	e.parts = spark.PartitionBy(keyed, spark.NewHashPartitioner[string](e.ctx.DefaultParallelism()))
	e.data = d
	return nil
}

// Execute implements core.Engine. Only BGP queries are supported,
// matching the study's scope.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	s, err := e.data.Schema("hybrid", q, true)
	if err != nil {
		return nil, err
	}
	bgp, _ := q.BGPOf()
	var rows []solutions.Row
	switch e.Mode {
	case StrategySparkSQL:
		rows = e.evalCartesian(s, bgp)
	case StrategyRDD:
		rows = e.evalPartitionedOrder(s, bgp)
	case StrategyDataFrame:
		rows = e.evalSizeBased(s, bgp)
	default:
		rows = e.evalHybrid(s, bgp)
	}
	return sparql.Answer(q, s.Vars, e.data.Dict, rows)
}

// scan matches one triple pattern over the partitioned dataset. The
// result stays keyed (and partitioned) by subject, so subject-subject
// joins can run without a shuffle. Every scan reads the full dataset
// (there is no predicate index in this system).
func (e *Engine) scan(s *solutions.Schema, tp sparql.TriplePattern) *spark.RDD[spark.Pair[string, solutions.Row]] {
	e.ctx.AddRead(e.data.Stats.Triples)
	pat := s.Pattern(tp)
	return spark.MapValues(e.parts.Filter(func(p spark.Pair[string, rdf.EncodedTriple]) bool {
		return pat.Matches(p.Value)
	}), pat.Bind)
}

// estimate returns the expected match count of a pattern from the
// per-predicate statistics.
func (e *Engine) estimate(tp sparql.TriplePattern) int {
	stats := &e.data.Stats
	var card int
	if !tp.P.IsVar {
		card = stats.PredicateCounts[e.data.ID(tp.P.Term)]
	} else {
		card = stats.Triples
	}
	if !tp.S.IsVar && stats.DistinctSubjects > 0 {
		card = card/stats.DistinctSubjects + 1
	}
	if !tp.O.IsVar && stats.DistinctObjects > 0 {
		card = card/stats.DistinctObjects + 1
	}
	return card
}

// --- strategy: Spark SQL (cartesian products) ---

// evalCartesian reproduces the naive Spark SQL behaviour the study
// criticizes: multi-pattern queries combine via Cartesian products and
// filter afterwards.
func (e *Engine) evalCartesian(s *solutions.Schema, bgp sparql.BGP) []solutions.Row {
	if len(bgp.Patterns) == 0 {
		return []solutions.Row{s.Row()}
	}
	cur := spark.Values(e.scan(s, bgp.Patterns[0]))
	for _, tp := range bgp.Patterns[1:] {
		cur = solutions.MergeCross(spark.Cartesian(cur, spark.Values(e.scan(s, tp))))
	}
	return cur.Collect()
}

// --- strategy: RDD partitioned joins in input order ---

func (e *Engine) evalPartitionedOrder(s *solutions.Schema, bgp sparql.BGP) []solutions.Row {
	return e.evalSequence(s, bgp.Patterns, func(left, right *spark.RDD[solutions.Row], shared []int, _, _ int) *spark.RDD[solutions.Row] {
		return joinPartitioned(s, left, right, shared)
	})
}

// --- strategy: DataFrame size-based broadcast ---

func (e *Engine) evalSizeBased(s *solutions.Schema, bgp sparql.BGP) []solutions.Row {
	threshold := e.ctx.Conf().BroadcastThreshold
	return e.evalSequence(s, bgp.Patterns, func(left, right *spark.RDD[solutions.Row], shared []int, leftEst, rightEst int) *spark.RDD[solutions.Row] {
		if rightEst < threshold || leftEst < threshold {
			return joinBroadcast(s, left, right, shared, leftEst, rightEst)
		}
		return joinPartitioned(s, left, right, shared)
	})
}

// evalSequence folds patterns in input order with the provided join.
func (e *Engine) evalSequence(s *solutions.Schema, tps []sparql.TriplePattern, join func(l, r *spark.RDD[solutions.Row], shared []int, le, re int) *spark.RDD[solutions.Row]) []solutions.Row {
	if len(tps) == 0 {
		return []solutions.Row{s.Row()}
	}
	cur := spark.Values(e.scan(s, tps[0]))
	curVars := solutions.VarSet(tps[0].Vars())
	curEst := e.estimate(tps[0])
	for _, tp := range tps[1:] {
		next := spark.Values(e.scan(s, tp))
		shared := s.Slots(solutions.SharedVars(curVars, tp.Vars()))
		cur = join(cur, next, shared, curEst, e.estimate(tp))
		for _, v := range tp.Vars() {
			curVars[v] = true
		}
		if est := e.estimate(tp); est < curEst {
			curEst = est
		}
	}
	return cur.Collect()
}

// --- strategy: hybrid greedy planner ---

// evalHybrid implements the study's dynamic greedy optimization: group
// patterns into subject stars first (their joins are co-partitioned,
// costing nothing), order groups by estimated cardinality, and pick
// broadcast vs partitioned per cross-group join based on statistics.
func (e *Engine) evalHybrid(s *solutions.Schema, bgp sparql.BGP) []solutions.Row {
	if len(bgp.Patterns) == 0 {
		return []solutions.Row{s.Row()}
	}
	groups := solutions.Stars(bgp.Patterns)
	type evaluatedGroup struct {
		rdd  *spark.RDD[solutions.Row]
		vars map[sparql.Var]bool
		est  int
	}
	evaluated := make([]evaluatedGroup, len(groups))
	for i, g := range groups {
		// Within a star group, all joins share the subject key: keep the
		// subject-keyed pair RDDs and join co-partitioned (no shuffle).
		cur := e.scan(s, g[0])
		est := e.estimate(g[0])
		for _, tp := range g[1:] {
			joined := spark.Join(cur, e.scan(s, tp))
			cur = spark.MapPartitions(joined, func(part []spark.Pair[string, spark.Tuple2[solutions.Row, solutions.Row]]) []spark.Pair[string, solutions.Row] {
				var out []spark.Pair[string, solutions.Row]
				for _, p := range part {
					if m, ok := solutions.Merge(p.Value.A, p.Value.B); ok {
						out = append(out, spark.Pair[string, solutions.Row]{Key: p.Key, Value: m})
					}
				}
				return out
			})
			if te := e.estimate(tp); te < est {
				est = te
			}
		}
		evaluated[i] = evaluatedGroup{rdd: spark.Values(cur), vars: solutions.PatternVars(g), est: est}
	}
	// Greedy: start from the smallest group; repeatedly join the
	// smallest connected group, broadcast when cheap.
	sort.SliceStable(evaluated, func(i, j int) bool { return evaluated[i].est < evaluated[j].est })
	cur := evaluated[0]
	rest := evaluated[1:]
	threshold := e.ctx.Conf().BroadcastThreshold
	for len(rest) > 0 {
		pick := -1
		for i, cand := range rest {
			if len(solutions.SharedVars(cur.vars, slices.Collect(maps.Keys(cand.vars)))) == 0 {
				continue
			}
			if pick < 0 || cand.est < rest[pick].est {
				pick = i
			}
		}
		if pick < 0 {
			pick = 0
		}
		next := rest[pick]
		rest = append(rest[:pick], rest[pick+1:]...)
		shared := s.Slots(solutions.SharedVars(cur.vars, slices.Collect(maps.Keys(next.vars))))
		var joined *spark.RDD[solutions.Row]
		switch {
		case len(shared) == 0:
			joined = solutions.MergeCross(spark.Cartesian(cur.rdd, next.rdd))
		case next.est < threshold || cur.est < threshold:
			joined = joinBroadcast(s, cur.rdd, next.rdd, shared, cur.est, next.est)
		default:
			joined = joinPartitioned(s, cur.rdd, next.rdd, shared)
		}
		merged := maps.Clone(cur.vars)
		maps.Copy(merged, next.vars)
		est := cur.est
		if next.est < est {
			est = next.est
		}
		cur = evaluatedGroup{rdd: joined, vars: merged, est: est}
	}
	return cur.rdd.Collect()
}

// --- shared join helpers ---

func joinPartitioned(s *solutions.Schema, left, right *spark.RDD[solutions.Row], shared []int) *spark.RDD[solutions.Row] {
	if len(shared) == 0 {
		return solutions.MergeCross(spark.Cartesian(left, right))
	}
	return solutions.MergeJoined(spark.Join(s.KeyBy(left, shared), s.KeyBy(right, shared)))
}

func joinBroadcast(s *solutions.Schema, left, right *spark.RDD[solutions.Row], shared []int, leftEst, rightEst int) *spark.RDD[solutions.Row] {
	ka, kb := s.KeyBy(left, shared), s.KeyBy(right, shared)
	var joined *spark.RDD[spark.Pair[string, spark.Tuple2[solutions.Row, solutions.Row]]]
	if rightEst <= leftEst {
		joined = spark.BroadcastJoin(ka, kb)
	} else {
		swapped := spark.BroadcastJoin(kb, ka)
		joined = spark.MapValues(swapped, func(t spark.Tuple2[solutions.Row, solutions.Row]) spark.Tuple2[solutions.Row, solutions.Row] {
			return spark.Tuple2[solutions.Row, solutions.Row]{A: t.B, B: t.A}
		})
	}
	return solutions.MergeJoined(joined)
}
