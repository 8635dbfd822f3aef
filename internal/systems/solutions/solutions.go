// Package solutions holds what the surveyed engines share of their
// solution sequences: the dataset every engine of one assessment builds
// its layout from, encoded once (Dataset, Source); the row a solution
// is, pointer-free TermIDs over one variable schema per query; the
// compiled triple pattern and FILTER test over those rows; and the
// merge and shuffle key a distributed join runs on inside an engine's
// Spark plan. What an engine runs above its BGPs at the driver belongs
// to no surveyed design: there the rows go to the reference evaluator
// (sparql.EvalRows, Answer, JoinRows), the algebra's one copy.
package solutions

import (
	"slices"
	"sort"

	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
)

// unbound is the id of a slot a row does not bind: the top id, which
// a dictionary never assigns (it is sparql's unbound-slot sentinel too).
const unbound = ^rdf.TermID(0)

// Bound reports whether id is a term, not unbound.
func Bound(id rdf.TermID) bool { return id != unbound }

// Row is one solution: the id each slot of its query's Schema is bound
// to, unbound where it is not. A row holds no pointer, so a sequence of
// them costs the collector nothing to scan; it is not written once it
// is built, so sequences and tasks share rows freely. It is the
// reference evaluator's row type, so rows cross into it uncopied.
type Row = []rdf.TermID

// Schema maps the variables of one query to row slots over one
// dataset's dictionary. The slots follow sorted variable order, so the
// ascending slots of a variable set are that set's sorted variables —
// the order a shuffle key renders them in.
type Schema struct {
	Vars  []sparql.Var
	slot  map[sparql.Var]int
	empty Row
	data  *Dataset
}

// NewSchema returns the schema of the variables p mentions, over d.
func NewSchema(p sparql.GraphPattern, d *Dataset) *Schema {
	vars := p.PatternVars()
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	s := &Schema{Vars: vars, slot: make(map[sparql.Var]int, len(vars)), empty: make(Row, len(vars)), data: d}
	for i, v := range vars {
		s.slot[v] = i
		s.empty[i] = unbound
	}
	return s
}

// Slots returns the slot of each of vs, -1 for a variable the query
// does not mention.
func (s *Schema) Slots(vs []sparql.Var) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = s.Slot(v)
	}
	return out
}

// Slot returns v's slot, -1 when the query does not mention v.
func (s *Schema) Slot(v sparql.Var) int {
	if slot, ok := s.slot[v]; ok {
		return slot
	}
	return -1
}

// Row returns a row that binds nothing.
func (s *Schema) Row() Row { return slices.Clone(s.empty) }

// Keep returns cond as a test on rows: cond compiled to the schema's
// slots once, then sparql.Holds on each row's slots, read through the
// dictionary's term table in place — nothing is decoded or copied.
func (s *Schema) Keep(cond sparql.FilterExpr) func(Row) bool {
	c := sparql.CompileFilter(cond, s.slot)
	terms := s.data.terms
	return func(r Row) bool { return sparql.Holds(c, termsOf{r, terms}) }
}

// termsOf is a row as FILTER reads it (a sparql.Terms): each slot's
// term from the table, sparql.Unbound where the row binds none.
type termsOf struct {
	row   Row
	terms []rdf.Term
}

func (t termsOf) Term(slot int) rdf.Term {
	if id := t.row[slot]; Bound(id) {
		return t.terms[id]
	}
	return sparql.Unbound
}

func (t termsOf) Numeric(slot int) (float64, bool) { return rdf.NumericValue(t.Term(slot)) }

// Pattern is a triple pattern compiled against a schema: the slot each
// of its positions binds, -1 at a constant, and each constant's id. A
// constant the dataset does not hold makes the pattern match nothing.
type Pattern struct {
	ids    [3]rdf.TermID
	slots  [3]int
	none   bool
	schema *Schema
}

// Pattern compiles tp, whose variables s must hold.
func (s *Schema) Pattern(tp sparql.TriplePattern) *Pattern {
	p := &Pattern{schema: s}
	for i, el := range [3]sparql.TPElem{tp.S, tp.P, tp.O} {
		p.slots[i] = -1
		if el.IsVar {
			p.slots[i] = s.slot[el.Var]
			continue
		}
		p.ids[i] = s.data.ID(el.Term)
		p.none = p.none || !Bound(p.ids[i])
	}
	return p
}

// Matches reports whether t matches the pattern: its constants, and one
// term wherever a variable repeats.
func (p *Pattern) Matches(t rdf.EncodedTriple) bool {
	if p.none {
		return false
	}
	ids := [3]rdf.TermID{t.S, t.P, t.O}
	for i, slot := range p.slots {
		if slot < 0 {
			if p.ids[i] != ids[i] {
				return false
			}
			continue
		}
		for j := 0; j < i; j++ {
			if p.slots[j] == slot && ids[j] != ids[i] {
				return false
			}
		}
	}
	return true
}

// Bind returns the row t binds the pattern's variables to; t must match.
func (p *Pattern) Bind(t rdf.EncodedTriple) Row {
	r := p.schema.Row()
	for i, id := range [3]rdf.TermID{t.S, t.P, t.O} {
		if p.slots[i] >= 0 {
			r[p.slots[i]] = id
		}
	}
	return r
}

// Match is Bind for a t that Matches, and false for any other.
func (p *Pattern) Match(t rdf.EncodedTriple) (Row, bool) {
	if !p.Matches(t) {
		return nil, false
	}
	return p.Bind(t), true
}

// Merge is the SPARQL merge of two rows of one schema: every slot
// either binds. It is false when a slot is bound to a different id in
// each — the rows are not compatible. A row that binds every slot the
// other does is the merge itself, so it is returned rather than copied.
func Merge(a, b Row) (Row, bool) {
	aAdds, bAdds := false, false
	for i, t := range b {
		switch {
		case !Bound(t):
			aAdds = aAdds || Bound(a[i])
		case !Bound(a[i]):
			bAdds = true
		case a[i] != t:
			return nil, false
		}
	}
	if !bAdds {
		return a, true
	}
	if !aAdds {
		return b, true
	}
	m := make(Row, len(a))
	for i, t := range a {
		if !Bound(t) {
			t = b[i]
		}
		m[i] = t
	}
	return m, true
}

// MergeCross keeps the compatible pairs of a Cartesian product, merged.
func MergeCross(prod *spark.RDD[spark.Tuple2[Row, Row]]) *spark.RDD[Row] {
	return mergeEach(prod, func(t spark.Tuple2[Row, Row]) (Row, Row) { return t.A, t.B })
}

// MergeJoined keeps the compatible pairs of a keyed join, merged: the
// key narrows the pairs, it does not decide the join.
func MergeJoined(joined *spark.RDD[spark.Pair[string, spark.Tuple2[Row, Row]]]) *spark.RDD[Row] {
	return mergeEach(joined, func(p spark.Pair[string, spark.Tuple2[Row, Row]]) (Row, Row) { return p.Value.A, p.Value.B })
}

// mergeEach merges the two rows of every record of r, dropping the
// incompatible ones: one narrow transformation, one task per partition.
func mergeEach[T any](r *spark.RDD[T], pair func(T) (Row, Row)) *spark.RDD[Row] {
	return spark.MapPartitions(r, func(part []T) []Row {
		var out []Row
		for _, rec := range part {
			if m, ok := Merge(pair(rec)); ok {
				out = append(out, m)
			}
		}
		return out
	})
}

// Key renders the terms r binds slots to, for use as a shuffle join key
// (an unbound slot renders empty): the N-Triples terms joined by NUL
// bytes, copied from the dataset's renderings into one buffer.
func (s *Schema) Key(r Row, slots []int) string {
	var buf [256]byte
	key := buf[:0]
	for i, slot := range slots {
		if i > 0 {
			key = append(key, 0)
		}
		if Bound(r[slot]) {
			key = append(key, s.data.rendered[r[slot]]...)
		}
	}
	return string(key)
}

// KeyBy keys every row of r by its Key over slots.
func (s *Schema) KeyBy(r *spark.RDD[Row], slots []int) *spark.RDD[spark.Pair[string, Row]] {
	return spark.KeyBy(r, func(x Row) string { return s.Key(x, slots) })
}

// VarSet returns vs as a set.
func VarSet(vs []sparql.Var) map[sparql.Var]bool {
	out := map[sparql.Var]bool{}
	for _, v := range vs {
		out[v] = true
	}
	return out
}

// PatternVars returns the variables of tps as a set.
func PatternVars(tps []sparql.TriplePattern) map[sparql.Var]bool {
	out := map[sparql.Var]bool{}
	for _, tp := range tps {
		for _, v := range tp.Vars() {
			out[v] = true
		}
	}
	return out
}

// SharedVars returns the variables of vs in have, sorted: the columns a
// pattern's rows join the solutions binding have on.
func SharedVars(have map[sparql.Var]bool, vs []sparql.Var) []sparql.Var {
	var out []sparql.Var
	for _, v := range vs {
		if have[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stars partitions tps into star groups, the patterns that share a
// subject element, in first-occurrence order.
func Stars(tps []sparql.TriplePattern) [][]sparql.TriplePattern {
	var out [][]sparql.TriplePattern
	at := map[sparql.TPElem]int{}
	for _, tp := range tps {
		i, ok := at[tp.S]
		if !ok {
			i, at[tp.S] = len(out), len(out)
			out = append(out, nil)
		}
		out[i] = append(out[i], tp)
	}
	return out
}

// ConnectedOrder orders tps so that each pattern after the first shares
// a variable with those before it where one can: the first unused
// pattern that does, else the first unused one.
func ConnectedOrder(tps []sparql.TriplePattern) []int {
	order := make([]int, 0, len(tps))
	used := make([]bool, len(tps))
	bound := map[sparql.Var]bool{}
	for len(order) < len(tps) {
		pick := -1
		for i, tp := range tps {
			if used[i] {
				continue
			}
			if pick < 0 {
				pick = i
			}
			if len(order) == 0 || slices.ContainsFunc(tp.Vars(), func(v sparql.Var) bool { return bound[v] }) {
				pick = i
				break
			}
		}
		used[pick] = true
		order = append(order, pick)
		for _, v := range tps[pick].Vars() {
			bound[v] = true
		}
	}
	return order
}
