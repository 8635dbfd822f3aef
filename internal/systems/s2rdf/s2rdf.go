// Package s2rdf reproduces S2RDF (Schätzle et al., PVLDB 2016, survey
// ref [24]): SPARQL on Spark SQL over an extended vertical
// partitioning scheme, ExtVP. Besides one VP table per predicate
// (columns s, o), the loader pre-computes semi-join reductions between
// every correlated pair of VP tables:
//
//	SS  p1|p2: rows of VP(p1) whose subject also appears as subject of p2
//	OS  p1|p2: rows of VP(p1) whose object appears as subject of p2
//	SO  p1|p2: rows of VP(p1) whose subject appears as object of p2
//
// At query time each triple pattern picks the smallest applicable
// ExtVP table (falling back to the VP table), so joins touch a
// fraction of the data. A selectivity-factor threshold bounds the
// storage overhead: ExtVP tables with SF above the threshold are not
// materialized. Queries are translated to SQL text and run through the
// simulated Spark SQL session with its Catalyst-style optimizer —
// mirroring S2RDF's Jena-ARQ-to-Spark-SQL pipeline.
package s2rdf

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	sparksql "repro/internal/spark/sql"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// DefaultSelectivityThreshold is the SF cut-off used when none is
// configured (the paper's recommended 0.25).
const DefaultSelectivityThreshold = 0.25

// extVPKind names the three semi-join directions.
type extVPKind string

const (
	kindSS extVPKind = "ss"
	kindOS extVPKind = "os"
	kindSO extVPKind = "so"
)

type extVPTable struct {
	table string
	rows  int
	sf    float64
}

// Engine is the S2RDF system.
type Engine struct {
	solutions.Source
	ctx     *spark.Context
	session *sparksql.Session
	// SFThreshold is the selectivity-factor cut-off for materializing
	// ExtVP tables. Set before Load; zero means the default.
	SFThreshold float64

	vpTables map[string]string // predicate IRI -> VP table name
	vpSizes  map[string]int
	extvp    map[string]extVPTable // "kind|p1|p2" -> table
	data     *solutions.Dataset    // cells are its terms' renderings
	preds    []string
	// StorageRows counts all materialized rows (VP + ExtVP), for the
	// storage-overhead experiment.
	StorageRows int
	baseRows    int
}

// New creates an unloaded engine on ctx.
func New(ctx *spark.Context) *Engine {
	return &Engine{ctx: ctx, session: sparksql.NewSession(ctx)}
}

// Info implements core.Engine.
func (e *Engine) Info() core.SystemInfo {
	return core.SystemInfo{
		Name:            "S2RDF",
		Citation:        "[24]",
		Model:           core.TripleModel,
		Abstractions:    []core.Abstraction{core.SparkSQLAbstraction},
		QueryProcessing: "Spark SQL",
		Optimized:       true,
		Partitioning:    "Extended Vertical",
		SPARQL:          core.FragmentBGPPlus,
	}
}

// Context implements core.Engine.
func (e *Engine) Context() *spark.Context { return e.ctx }

// Session exposes the SQL session (used by the examples to EXPLAIN).
func (e *Engine) Session() *sparksql.Session { return e.session }

// Load builds the VP tables and materializes the ExtVP tables under
// the selectivity threshold.
func (e *Engine) Load(triples []rdf.Triple) error {
	d, err := e.Dataset(triples)
	if err != nil {
		return fmt.Errorf("s2rdf: %w", err)
	}
	threshold := e.SFThreshold
	if threshold <= 0 {
		threshold = DefaultSelectivityThreshold
	}
	e.vpTables = map[string]string{}
	e.vpSizes = map[string]int{}
	e.extvp = map[string]extVPTable{}
	e.data = d
	e.StorageRows = 0
	e.baseRows = len(d.Triples)

	byPred := map[string][]vpRow{}
	for _, t := range d.Triples {
		p := d.Term(t.P).Value
		byPred[p] = append(byPred[p], vpRow{t.S, t.O})
	}
	e.preds = e.preds[:0]
	for p := range byPred {
		e.preds = append(e.preds, p)
	}
	sort.Strings(e.preds)

	// VP tables.
	for _, p := range e.preds {
		rows := make([]sparksql.Row, len(byPred[p]))
		for i, r := range byPred[p] {
			rows[i] = sparksql.Row{d.Rendered(r.s), d.Rendered(r.o)}
		}
		df, err := sparksql.NewDataFrame(e.ctx, sparksql.Schema{"s", "o"}, rows)
		if err != nil {
			return fmt.Errorf("s2rdf: %w", err)
		}
		name := "vp_" + sanitize(p)
		e.session.RegisterTable(name, df)
		e.vpTables[p] = name
		e.vpSizes[p] = len(rows)
		e.StorageRows += len(rows)
	}

	// Full triples table for variable-predicate patterns.
	allRows := make([]sparksql.Row, len(d.Triples))
	for i, t := range d.Triples {
		allRows[i] = sparksql.Row{d.Rendered(t.S), d.Rendered(t.P), d.Rendered(t.O)}
	}
	allDF, err := sparksql.NewDataFrame(e.ctx, sparksql.Schema{"s", "p", "o"}, allRows)
	if err != nil {
		return err
	}
	e.session.RegisterTable("triples", allDF)

	// ExtVP tables: semi-join reductions for every correlated pair.
	subjectSets := map[string]map[rdf.TermID]bool{}
	objectSets := map[string]map[rdf.TermID]bool{}
	for _, p := range e.preds {
		ss := map[rdf.TermID]bool{}
		os := map[rdf.TermID]bool{}
		for _, r := range byPred[p] {
			ss[r.s] = true
			os[r.o] = true
		}
		subjectSets[p] = ss
		objectSets[p] = os
	}
	for _, p1 := range e.preds {
		for _, p2 := range e.preds {
			if p1 == p2 {
				continue
			}
			e.buildExtVP(kindSS, p1, p2, byPred[p1], func(r vpRow) bool { return subjectSets[p2][r.s] }, threshold)
			e.buildExtVP(kindOS, p1, p2, byPred[p1], func(r vpRow) bool { return subjectSets[p2][r.o] }, threshold)
			e.buildExtVP(kindSO, p1, p2, byPred[p1], func(r vpRow) bool { return objectSets[p2][r.s] }, threshold)
		}
	}
	return nil
}

// vpRow is one row of a VP table, in id space.
type vpRow struct{ s, o rdf.TermID }

// buildExtVP materializes one semi-join reduction when its selectivity
// factor is useful (SF < 1) and under the threshold.
func (e *Engine) buildExtVP(kind extVPKind, p1, p2 string, rows []vpRow, keep func(vpRow) bool, threshold float64) {
	var kept []sparksql.Row
	for _, r := range rows {
		if keep(r) {
			kept = append(kept, sparksql.Row{e.data.Rendered(r.s), e.data.Rendered(r.o)})
		}
	}
	if len(rows) == 0 {
		return
	}
	sf := float64(len(kept)) / float64(len(rows))
	if sf > threshold || sf == 1 {
		return
	}
	df, err := sparksql.NewDataFrame(e.ctx, sparksql.Schema{"s", "o"}, kept)
	if err != nil {
		return
	}
	name := fmt.Sprintf("extvp_%s_%s__%s", kind, sanitize(p1), sanitize(p2))
	e.session.RegisterTable(name, df)
	e.extvp[extVPKey(kind, p1, p2)] = extVPTable{table: name, rows: len(kept), sf: sf}
	e.StorageRows += len(kept)
}

func extVPKey(kind extVPKind, p1, p2 string) string { return string(kind) + "|" + p1 + "|" + p2 }

// StorageOverhead returns materialized rows relative to the raw
// dataset (1.0 = no overhead) — the quantity the SF threshold bounds.
func (e *Engine) StorageOverhead() float64 {
	if e.baseRows == 0 {
		return 0
	}
	return float64(e.StorageRows) / float64(e.baseRows)
}

// ExtVPTableCount returns the number of materialized ExtVP tables.
func (e *Engine) ExtVPTableCount() int { return len(e.extvp) }

// Execute implements core.Engine.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	s, err := e.data.Schema("s2rdf", q, false)
	if err != nil {
		return nil, err
	}
	bgp := func(b sparql.BGP) ([]solutions.Row, error) { return e.evalBGP(s, b) }
	return sparql.EvalRows(q, s.Vars, e.data.Dict, bgp, nil)
}

// evalBGP translates the BGP to SQL text over VP/ExtVP tables, runs it
// through the Spark SQL session, and decodes the answer.
func (e *Engine) evalBGP(s *solutions.Schema, bgp sparql.BGP) ([]solutions.Row, error) {
	if len(bgp.Patterns) == 0 {
		return []solutions.Row{s.Row()}, nil
	}
	sqlText, vars, err := e.TranslateBGP(bgp)
	if err != nil {
		return nil, err
	}
	df, err := e.session.Query(sqlText)
	if err != nil {
		return nil, fmt.Errorf("s2rdf: executing %q: %w", sqlText, err)
	}
	colSlot := make(map[string]int, len(vars))
	for _, v := range vars {
		colSlot[varCol(v)] = s.Slot(v)
	}
	slots := make([]int, len(df.Schema()))
	for i, col := range df.Schema() {
		if slot, isVar := colSlot[col]; isVar {
			slots[i] = slot
		} else {
			slots[i] = -1
		}
	}
	var out []solutions.Row
	for _, row := range df.Collect() {
		r := s.Row()
		for i, slot := range slots {
			if slot < 0 {
				continue
			}
			val, _ := row[i].(string)
			if id, ok := e.data.Parse(val); ok {
				r[slot] = id
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// TranslateBGP compiles a BGP to a single SQL statement: one subquery
// per triple pattern over its chosen VP/ExtVP table, natural-joined in
// the optimized order. It returns the SQL and the projected variables.
func (e *Engine) TranslateBGP(bgp sparql.BGP) (string, []sparql.Var, error) {
	ordered := e.orderPatterns(bgp.Patterns)
	subqueries := make([]string, len(ordered))
	for i, tp := range ordered {
		sub, err := e.patternSubquery(tp, ordered)
		if err != nil {
			return "", nil, err
		}
		subqueries[i] = sub
	}
	var allVars []sparql.Var
	seen := map[sparql.Var]bool{}
	for _, tp := range ordered {
		for _, v := range tp.Vars() {
			if !seen[v] {
				seen[v] = true
				allVars = append(allVars, v)
			}
		}
	}
	cols := make([]string, len(allVars))
	for i, v := range allVars {
		cols[i] = varCol(v)
	}
	text := "SELECT " + strings.Join(cols, ", ") + " FROM " + strings.Join(subqueries, " JOIN ")
	return text, allVars, nil
}

// orderPatterns applies the S2RDF ordering: patterns with more bound
// positions first; ties broken by smaller chosen-table size.
func (e *Engine) orderPatterns(tps []sparql.TriplePattern) []sparql.TriplePattern {
	out := append([]sparql.TriplePattern{}, tps...)
	boundCount := func(tp sparql.TriplePattern) int {
		n := 0
		for _, el := range []sparql.TPElem{tp.S, tp.P, tp.O} {
			if !el.IsVar {
				n++
			}
		}
		return n
	}
	size := func(tp sparql.TriplePattern) int {
		_, rows := e.chooseTable(tp, tps)
		return rows
	}
	sort.SliceStable(out, func(i, j int) bool {
		bi, bj := boundCount(out[i]), boundCount(out[j])
		if bi != bj {
			return bi > bj
		}
		return size(out[i]) < size(out[j])
	})
	return out
}

// chooseTable picks the smallest applicable table for tp given its
// correlations with the other patterns — the heart of ExtVP.
func (e *Engine) chooseTable(tp sparql.TriplePattern, all []sparql.TriplePattern) (string, int) {
	if tp.P.IsVar {
		return "triples", e.baseRows
	}
	p1 := tp.P.Term.Value
	best, bestRows := e.vpTables[p1], e.vpSizes[p1]
	if best == "" {
		return "", 0
	}
	for _, other := range all {
		if other == tp || other.P.IsVar {
			continue
		}
		p2 := other.P.Term.Value
		// Determine the correlation type through each shared variable.
		try := func(kind extVPKind, applies bool) {
			if !applies {
				return
			}
			if t, ok := e.extvp[extVPKey(kind, p1, p2)]; ok && t.rows < bestRows {
				best, bestRows = t.table, t.rows
			}
		}
		try(kindSS, shareVar(tp.S, other.S))
		try(kindOS, shareVar(tp.O, other.S))
		try(kindSO, shareVar(tp.S, other.O))
	}
	return best, bestRows
}

func shareVar(a, b sparql.TPElem) bool {
	return a.IsVar && b.IsVar && a.Var == b.Var
}

// patternSubquery renders one triple pattern as a SQL subquery over its
// chosen table, renaming s/o columns to variable names and filtering
// constants.
func (e *Engine) patternSubquery(tp sparql.TriplePattern, all []sparql.TriplePattern) (string, error) {
	table, _ := e.chooseTable(tp, all)
	if table == "" {
		// Unknown predicate: no VP table exists, so the pattern can have
		// no matches — emit a rowless subquery that still projects the
		// pattern's variable columns.
		var sel []string
		if tp.S.IsVar {
			sel = append(sel, "s AS "+varCol(tp.S.Var))
		}
		if tp.O.IsVar && (!tp.S.IsVar || tp.O.Var != tp.S.Var) {
			sel = append(sel, "o AS "+varCol(tp.O.Var))
		}
		if len(sel) == 0 {
			sel = append(sel, "s AS "+freshCol(tp, "c"))
		}
		return "(SELECT " + strings.Join(sel, ", ") + " FROM triples WHERE p = 'none')", nil
	}
	var sel []string
	var conds []string
	scol, ocol, pcol := "s", "o", "p"
	if table != "triples" {
		pcol = "" // VP/ExtVP tables have no p column
	}
	if tp.S.IsVar {
		sel = append(sel, scol+" AS "+varCol(tp.S.Var))
	} else {
		conds = append(conds, scol+" = '"+escape(tp.S.Term.String())+"'")
	}
	if tp.P.IsVar {
		if pcol == "" {
			return "", fmt.Errorf("s2rdf: internal: variable predicate requires triples table")
		}
		sel = append(sel, pcol+" AS "+varCol(tp.P.Var))
	} else if pcol != "" {
		conds = append(conds, pcol+" = '"+escape(tp.P.Term.String())+"'")
	}
	if tp.O.IsVar {
		if tp.S.IsVar && tp.O.Var == tp.S.Var {
			conds = append(conds, scol+" = "+ocol)
		} else if tp.P.IsVar && tp.O.Var == tp.P.Var {
			conds = append(conds, pcol+" = "+ocol)
		} else {
			sel = append(sel, ocol+" AS "+varCol(tp.O.Var))
		}
	} else {
		conds = append(conds, ocol+" = '"+escape(tp.O.Term.String())+"'")
	}
	if len(sel) == 0 {
		// All positions bound: project a constant-ish column so the
		// subquery has a schema; use s with a throwaway alias.
		sel = append(sel, scol+" AS "+freshCol(tp, "c"))
	}
	q := "(SELECT " + strings.Join(sel, ", ") + " FROM " + table
	if len(conds) > 0 {
		q += " WHERE " + strings.Join(conds, " AND ")
	}
	return q + ")", nil
}

// varCol maps a SPARQL variable to a SQL column name.
func varCol(v sparql.Var) string { return "v_" + sanitize(string(v)) }

// freshCol derives a collision-free helper column name from a pattern.
func freshCol(tp sparql.TriplePattern, suffix string) string {
	return "h_" + sanitize(tp.String()) + "_" + suffix
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }
