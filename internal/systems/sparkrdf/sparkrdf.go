// Package sparkrdf reproduces SparkRDF (Chen et al., WI-IAT 2015,
// survey ref [5]): an elastic discreted RDF graph processing engine
// built directly on Spark RDDs (no graph API). Its storage model is
// the Multi-layer Elastic Sub-Graph (MESG), three index levels:
//
//	level 1: a class index (rdf:type triples, filed by object class)
//	         and a relation index (other triples, filed by predicate);
//	level 2: CR (class-relation) and RC (relation-class) indexes that
//	         split each predicate file by the subject's class or the
//	         object's class;
//	level 3: CRC (class-relation-class) combining all three.
//
// Queries load only the smallest applicable sub-graph of each triple
// pattern into the distributed memory model (RDSG) and join variables
// in selectivity order. The class of a variable (from its rdf:type
// patterns) is pushed into the other patterns' index lookups, so
// rdf:type patterns with constant classes are removed from the join
// entirely — the paper's class-message pruning. Before each
// distributed join, the candidate sub-graphs are pre-partitioned
// on-demand by the join variable so matching records co-locate.
//
// Supported fragment (Table II): BGP.
package sparkrdf

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// IndexLevel selects how deep the MESG index is consulted, for the
// index ablation (level 3 = CRC, the full design).
type IndexLevel int

// MESG index levels.
const (
	Level1 IndexLevel = 1 // class + relation indexes only
	Level2 IndexLevel = 2 // + CR and RC
	Level3 IndexLevel = 3 // + CRC
)

// Engine is the SparkRDF system. Its indexes are keyed by TermID.
type Engine struct {
	solutions.Source
	ctx *spark.Context
	// Level caps the MESG depth (default Level3).
	Level IndexLevel

	data      *solutions.Dataset
	relation  map[rdf.TermID][]rdf.EncodedTriple                // predicate -> triples (level 1)
	class     map[rdf.TermID][]rdf.EncodedTriple                // class -> type triples (level 1)
	cr        map[rdf.TermID]map[rdf.TermID][]rdf.EncodedTriple // subjClass -> predicate -> triples (level 2)
	rc        map[rdf.TermID]map[rdf.TermID][]rdf.EncodedTriple // predicate -> objClass -> triples (level 2)
	crc       map[[3]rdf.TermID][]rdf.EncodedTriple             // subjClass, pred, objClass -> triples (level 3)
	classesOf map[rdf.TermID][]rdf.TermID                       // entity -> classes
	typeID    rdf.TermID                                        // rdf:type's id

	// ScannedTriples accumulates the candidate-set sizes read by
	// queries — the I/O the MESG index is designed to prune.
	ScannedTriples int64
}

// New creates an unloaded engine on ctx with the full index.
func New(ctx *spark.Context) *Engine { return &Engine{ctx: ctx, Level: Level3} }

// NewWithLevel creates an engine with a capped index depth.
func NewWithLevel(ctx *spark.Context, level IndexLevel) *Engine {
	return &Engine{ctx: ctx, Level: level}
}

// Info implements core.Engine.
func (e *Engine) Info() core.SystemInfo {
	return core.SystemInfo{
		Name:            "SparkRDF",
		Citation:        "[5]",
		Model:           core.GraphModel,
		Abstractions:    []core.Abstraction{core.RDDAbstraction},
		QueryProcessing: "Custom",
		Optimized:       true,
		Partitioning:    "Hash-sbj",
		SPARQL:          core.FragmentBGP,
	}
}

// Context implements core.Engine.
func (e *Engine) Context() *spark.Context { return e.ctx }

// Load builds the MESG indexes.
func (e *Engine) Load(triples []rdf.Triple) error {
	d, err := e.Dataset(triples)
	if err != nil {
		return fmt.Errorf("sparkrdf: %w", err)
	}
	e.data = d
	e.relation = map[rdf.TermID][]rdf.EncodedTriple{}
	e.class = map[rdf.TermID][]rdf.EncodedTriple{}
	e.cr = map[rdf.TermID]map[rdf.TermID][]rdf.EncodedTriple{}
	e.rc = map[rdf.TermID]map[rdf.TermID][]rdf.EncodedTriple{}
	e.crc = map[[3]rdf.TermID][]rdf.EncodedTriple{}
	e.classesOf = map[rdf.TermID][]rdf.TermID{}
	e.typeID = d.ID(rdf.NewIRI(rdf.RDFType))
	e.ScannedTriples = 0

	for _, t := range d.Triples {
		if t.P == e.typeID {
			e.class[t.O] = append(e.class[t.O], t)
			e.classesOf[t.S] = append(e.classesOf[t.S], t.O)
		}
	}
	for _, t := range d.Triples {
		if t.P == e.typeID {
			continue
		}
		e.relation[t.P] = append(e.relation[t.P], t)
		for _, sc := range e.classesOf[t.S] {
			if e.cr[sc] == nil {
				e.cr[sc] = map[rdf.TermID][]rdf.EncodedTriple{}
			}
			e.cr[sc][t.P] = append(e.cr[sc][t.P], t)
			for _, oc := range e.classesOf[t.O] {
				key := [3]rdf.TermID{sc, t.P, oc}
				e.crc[key] = append(e.crc[key], t)
			}
		}
		for _, oc := range e.classesOf[t.O] {
			if e.rc[t.P] == nil {
				e.rc[t.P] = map[rdf.TermID][]rdf.EncodedTriple{}
			}
			e.rc[t.P][oc] = append(e.rc[t.P][oc], t)
		}
	}
	return nil
}

// Execute implements core.Engine. Only BGP queries are supported.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	s, err := e.data.Schema("sparkrdf", q, true)
	if err != nil {
		return nil, err
	}
	bgp, _ := q.BGPOf()
	return sparql.Answer(q, s.Vars, e.data.Dict, e.evalBGP(s, bgp))
}

func (e *Engine) evalBGP(s *solutions.Schema, bgp sparql.BGP) []solutions.Row {
	if len(bgp.Patterns) == 0 {
		return []solutions.Row{s.Row()}
	}
	// Class-message pruning: collect class constraints from rdf:type
	// patterns with variable subject and constant class; those
	// patterns leave the join set when the variable occurs elsewhere.
	classOfVar := map[sparql.Var][]rdf.TermID{}
	var joinTPs []sparql.TriplePattern
	var typeTPs []sparql.TriplePattern
	for _, tp := range bgp.Patterns {
		if !tp.P.IsVar && tp.P.Term.Value == rdf.RDFType && tp.S.IsVar && !tp.O.IsVar {
			typeTPs = append(typeTPs, tp)
			continue
		}
		joinTPs = append(joinTPs, tp)
	}
	occursElsewhere := func(v sparql.Var) bool {
		for _, tp := range joinTPs {
			for _, tv := range tp.Vars() {
				if tv == v {
					return true
				}
			}
		}
		return false
	}
	for _, tp := range typeTPs {
		if occursElsewhere(tp.S.Var) && e.Level >= Level2 {
			classOfVar[tp.S.Var] = append(classOfVar[tp.S.Var], e.data.ID(tp.O.Term))
			continue
		}
		// Keep as a join pattern over the class index.
		joinTPs = append(joinTPs, tp)
	}

	// RDSG generation: load the candidate sub-graph of each pattern
	// from the deepest applicable index.
	type candSet struct {
		tp  sparql.TriplePattern
		rdd *spark.RDD[solutions.Row]
		n   int
	}
	sets := make([]candSet, len(joinTPs))
	for i, tp := range joinTPs {
		triples := e.candidates(tp, classOfVar)
		e.ScannedTriples += int64(len(triples))
		e.ctx.AddRead(len(triples))
		pat := s.Pattern(tp)
		var rows []solutions.Row
		for _, t := range triples {
			if r, ok := pat.Match(t); ok {
				rows = append(rows, r)
			}
		}
		sets[i] = candSet{tp: tp, rdd: spark.Parallelize(e.ctx, rows), n: len(rows)}
	}

	// Optimal query plan: join variables in ascending candidate size,
	// staying connected.
	sort.SliceStable(sets, func(i, j int) bool { return sets[i].n < sets[j].n })
	cur := sets[0].rdd
	curVars := solutions.VarSet(sets[0].tp.Vars())
	remaining := sets[1:]
	for len(remaining) > 0 {
		pick := -1
		for i, s := range remaining {
			if len(solutions.SharedVars(curVars, s.tp.Vars())) == 0 {
				continue
			}
			if pick < 0 || s.n < remaining[pick].n {
				pick = i
			}
		}
		if pick < 0 {
			pick = 0
		}
		next := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		shared := s.Slots(solutions.SharedVars(curVars, next.tp.Vars()))
		if len(shared) == 0 {
			cur = solutions.MergeCross(spark.Cartesian(cur, next.rdd))
		} else {
			// On-demand dynamic pre-partitioning: both sides are placed
			// by the join variable before the local join.
			p := spark.NewHashPartitioner[string](e.ctx.DefaultParallelism())
			ka := spark.PartitionBy(s.KeyBy(cur, shared), p)
			kb := spark.PartitionBy(s.KeyBy(next.rdd, shared), p)
			cur = solutions.MergeJoined(spark.Join(ka, kb))
		}
		for _, v := range next.tp.Vars() {
			curVars[v] = true
		}
	}
	rows := cur.Collect()

	// Re-check class constraints for variables that only occur in
	// removed type patterns... they were kept as join patterns, so the
	// remaining obligation is variables constrained via classOfVar but
	// whose candidate lookups could not use the class (variable in
	// object position of a predicate the index has no class for).
	var out []solutions.Row
	for _, r := range rows {
		ok := true
		for v, classes := range classOfVar {
			t := r[s.Slot(v)]
			if !solutions.Bound(t) {
				ok = false
				break
			}
			for _, c := range classes {
				if !hasClass(e.classesOf[t], c) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// candidates selects the smallest index entry applicable to a pattern
// under the engine's index level and the variables' class constraints.
func (e *Engine) candidates(tp sparql.TriplePattern, classOfVar map[sparql.Var][]rdf.TermID) []rdf.EncodedTriple {
	// Variable predicate: full scan.
	if tp.P.IsVar {
		return e.data.Triples
	}
	pred := e.data.ID(tp.P.Term)
	if tp.P.Term.Value == rdf.RDFType {
		if !tp.O.IsVar {
			return e.class[e.data.ID(tp.O.Term)]
		}
		// All type triples.
		var all []rdf.EncodedTriple
		for _, ts := range e.class {
			all = append(all, ts...)
		}
		return all
	}
	var sClass, oClass []rdf.TermID
	if tp.S.IsVar {
		sClass = classOfVar[tp.S.Var]
	}
	if tp.O.IsVar {
		oClass = classOfVar[tp.O.Var]
	}
	if e.Level >= Level3 && len(sClass) > 0 && len(oClass) > 0 {
		return e.crc[[3]rdf.TermID{sClass[0], pred, oClass[0]}]
	}
	if e.Level >= Level2 {
		if len(sClass) > 0 {
			if m := e.cr[sClass[0]]; m != nil {
				return m[pred]
			}
			return nil
		}
		if len(oClass) > 0 {
			if m := e.rc[pred]; m != nil {
				return m[oClass[0]]
			}
			return nil
		}
	}
	return e.relation[pred]
}

func hasClass(classes []rdf.TermID, c rdf.TermID) bool {
	for _, x := range classes {
		if x == c {
			return true
		}
	}
	return false
}
