// Package solutions holds what the surveyed engines do with solution
// sequences at the driver, once: the dataset every engine of one
// assessment builds its layout from, encoded once (Dataset, Source);
// the row a solution is, pointer-free TermIDs over one variable schema
// per query; the SPARQL join and left join of two sequences; the BGP+
// algebra walked over an engine's own BGP evaluator; the shuffle key a
// row is joined on, over the variables two sequences share; and the one
// decode to sparql.Binding, of the answer rows. None of it is part of
// any surveyed design — the engines' metered strategies (their KeyBy /
// Cartesian / broadcast RDD joins) stay in their own packages — so it
// is shared, and it costs what a hash join costs.
package solutions

import (
	"fmt"
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
// is built, so sequences and tasks share rows freely.
type Row []rdf.TermID

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

// Results decodes the answer rows, once, through the dictionary, and
// applies q's solution modifiers. A plain SELECT or ASK decodes only
// the variables it projects, so Project keeps each Binding as it is; an
// aggregate or a CONSTRUCT decodes every variable.
func (s *Schema) Results(q *sparql.Query, rows []Row) *sparql.Results {
	vars := s.Vars
	if (q.Form == sparql.FormSelect || q.Form == sparql.FormAsk) && q.Agg == nil {
		vars = q.SelectedVars()
	}
	slots := s.Slots(vars)
	terms := s.data.terms
	out := make([]sparql.Binding, len(rows))
	for i, r := range rows {
		out[i] = make(sparql.Binding, len(vars))
		for j, slot := range slots {
			if slot >= 0 && Bound(r[slot]) {
				out[i][vars[j]] = terms[r[slot]]
			}
		}
	}
	return sparql.ApplySolutionModifiers(q, out)
}

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

// scanBelow is the build-side length under which a map is not worth
// building: every probe walks the few rows there are.
const scanBelow = 8

// Table is the build side of a join: an immutable sequence of rows
// indexed, when it pays, on one slot bound in every one of them. Probes
// only read it, so tasks may share one.
type Table struct {
	rows []Row
	// key is the indexed slot (-1: none); head maps each id it takes
	// to the first build row holding it and next chains the rest in
	// slice order (-1 ends a chain). A nil head means every probe scans.
	key  int
	head map[rdf.TermID]int
	next []int
}

// NewTable prepares build for probing by rows like those of probe (the
// whole probe side, or a sample of it). The key is the slot, among
// those bound in every build row, that the most probe rows bind; of
// several bound equally often, the one taking the most distinct terms
// in build, then the lowest. A short build side, or one no probe row
// can be keyed into, gets no index.
func NewTable(build, probe []Row) *Table {
	t := &Table{rows: build, key: -1}
	if len(build) < scanBelow {
		return t
	}
	best := 0
	for slot, id := range build[0] {
		if !Bound(id) {
			continue
		}
		n := binding(probe, slot)
		if n == 0 || n < best || binding(build, slot) < len(build) {
			continue
		}
		head, next := index(build, slot)
		if n > best || len(head) > len(t.head) {
			best, t.key, t.head, t.next = n, slot, head, next
		}
	}
	return t
}

// binding counts the rows that bind slot.
func binding(rows []Row, slot int) int {
	n := 0
	for _, r := range rows {
		if Bound(r[slot]) {
			n++
		}
	}
	return n
}

// index chains the rows by the id slot holds in them. It walks the
// rows backwards so each chain runs forwards.
func index(rows []Row, slot int) (head map[rdf.TermID]int, next []int) {
	head = make(map[rdf.TermID]int, len(rows))
	next = make([]int, len(rows))
	for i := len(rows) - 1; i >= 0; i-- {
		id := rows[i][slot]
		if j, ok := head[id]; ok {
			next[i] = j
		} else {
			next[i] = -1
		}
		head[id] = i
	}
	return head, next
}

// Probe appends to out the merge of l with every build row compatible
// with it, in build order — and, when outer is set and there is none, l
// itself (OPTIONAL). A row that binds the key visits its bucket; one
// that does not (possible below OPTIONAL) is compatible with any key
// and visits every row. Every candidate is merged with Merge: the key
// narrows the search, it does not decide the join.
func (t *Table) Probe(l Row, outer bool, out []Row) []Row {
	start := len(out)
	candidates := t.rows
	if t.head != nil && Bound(l[t.key]) {
		candidates = nil
		i, found := t.head[l[t.key]]
		for ; found && i >= 0; i = t.next[i] {
			if m, ok := Merge(l, t.rows[i]); ok {
				out = append(out, m)
			}
		}
	}
	for _, r := range candidates {
		if m, ok := Merge(l, r); ok {
			out = append(out, m)
		}
	}
	if outer && len(out) == start {
		out = append(out, l)
	}
	return out
}

// Join is the SPARQL join of two row sequences: every compatible pair
// merged, left-major with the right side in slice order — row for row
// what the nested loop over both emits.
func Join(left, right []Row) []Row {
	return join(left, right, false)
}

// LeftJoin is Join that keeps a left row with no compatible right row
// (OPTIONAL), in its place.
func LeftJoin(left, right []Row) []Row {
	return join(left, right, true)
}

func join(left, right []Row, outer bool) []Row {
	t := NewTable(right, left)
	var out []Row
	for _, l := range left {
		out = t.Probe(l, outer, out)
	}
	return out
}

// EvalPattern evaluates the BGP+ algebra at the driver for an engine
// that answers BGPs itself: groups join, OPTIONAL left-joins, UNION
// concatenates, and FILTER keeps the rows Keep passes — through filter
// when the engine runs the test itself (nil runs it here). engine names
// the engine in the error for a pattern outside the fragment.
func (s *Schema) EvalPattern(p sparql.GraphPattern, engine string,
	evalBGP func(*Schema, sparql.BGP) ([]Row, error),
	filter func(rows []Row, keep func(Row) bool) []Row,
) ([]Row, error) {
	eval := func(p sparql.GraphPattern) ([]Row, error) {
		return s.EvalPattern(p, engine, evalBGP, filter)
	}
	both := func(l, r sparql.GraphPattern) (left, right []Row, err error) {
		if left, err = eval(l); err == nil {
			right, err = eval(r)
		}
		return left, right, err
	}
	switch n := p.(type) {
	case sparql.BGP:
		return evalBGP(s, n)
	case sparql.Group:
		rows := []Row{s.Row()}
		for _, part := range n.Parts {
			sub, err := eval(part)
			if err != nil {
				return nil, err
			}
			rows = Join(rows, sub)
		}
		return rows, nil
	case sparql.Filter:
		rows, err := eval(n.Inner)
		if err != nil {
			return nil, err
		}
		keep := s.Keep(n.Cond)
		if filter != nil {
			return filter(rows, keep), nil
		}
		var kept []Row
		for _, r := range rows {
			if keep(r) {
				kept = append(kept, r)
			}
		}
		return kept, nil
	case sparql.Optional:
		left, right, err := both(n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return LeftJoin(left, right), nil
	case sparql.Union:
		left, right, err := both(n.Left, n.Right)
		if err != nil {
			return nil, err
		}
		return append(left, right...), nil
	default:
		return nil, fmt.Errorf("%s: unsupported pattern %T", engine, p)
	}
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
