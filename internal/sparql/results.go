package sparql

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Results is a query's answer. A SELECT answer is its id rows over Vars,
// as the run left them: every cell an id of the run's environment — its
// dictionary snapshot, or a value an aggregate computed past it — read
// by position (Term) and never decoded into a map. All engines return
// this type, so answers compare across systems (Equal) even when each
// holds its ids over a dictionary of its own.
type Results struct {
	Vars []Var
	// Ask holds the answer of an ASK query; there are no rows then.
	Ask bool
	// IsAsk marks ASK results.
	IsAsk bool
	// Triples holds the constructed graph of a CONSTRUCT query;
	// IsGraph marks such results.
	Triples []rdf.Triple
	IsGraph bool

	idRows
}

// idRows is a SELECT answer in id space, shared by Results and
// Solutions: the rows, the environment whose ids they hold, and each
// column's slot. It is read-only and safe for concurrent readers.
type idRows struct {
	env  *evalEnv
	rows []slotRow
	cols []int // column → slot, -1 when the column's variable never binds
}

// Len returns the number of solution rows.
func (a *idRows) Len() int { return len(a.rows) }

// Term returns the term bound to column col of row, decoding it from
// the id-space row on the fly; ok is false for unbound positions. It
// allocates nothing and may be called from concurrent readers.
func (a *idRows) Term(row, col int) (rdf.Term, bool) {
	id, ok := a.id(row, col)
	if !ok {
		return rdf.Term{}, false
	}
	return a.env.term(id), true
}

// id is the id bound to column col of row.
func (a *idRows) id(row, col int) (rdf.TermID, bool) {
	slot := a.cols[col]
	if slot < 0 {
		return 0, false
	}
	id := a.rows[row][slot]
	return id, id != unboundID
}

// CanonicalRow renders row i canonically: its terms over Vars in
// N-Triples syntax, tab-separated, UNBOUND where the row binds none.
// Two answers' renderings compare equal exactly when their rows do,
// whatever dictionaries they were encoded over.
func (r *Results) CanonicalRow(i int) string {
	var stack [256]byte
	buf := stack[:0]
	for c := range r.Vars {
		if c > 0 {
			buf = append(buf, '\t')
		}
		if t, ok := r.Term(i, c); ok {
			buf = t.AppendTo(buf)
		} else {
			buf = append(buf, "UNBOUND"...)
		}
	}
	return string(buf)
}

// Canonical returns the solutions as sorted canonical strings — a
// multiset fingerprint used to compare engines against the reference
// evaluator.
func (r *Results) Canonical() []string {
	out := r.OrderedCanonical()
	sort.Strings(out)
	return out
}

// OrderedCanonical returns the solutions in result order (for ORDER BY
// comparisons).
func (r *Results) OrderedCanonical() []string {
	out := make([]string, r.Len())
	for i := range out {
		out[i] = r.CanonicalRow(i)
	}
	return out
}

// Equal reports whether two result sets hold the same multiset of
// solutions, column by column (or, for ASK/CONSTRUCT, the same answer /
// the same graph).
//
// Rows are compared as their ids packed into keys, in other's id space:
// each distinct id of r is translated once, through its term, into the
// id other's environment holds that term under. A term other's
// environment lacks is in no row of other, so the answers differ.
func (r *Results) Equal(other *Results) bool {
	if r.IsAsk != other.IsAsk || r.IsGraph != other.IsGraph {
		return false
	}
	if r.IsAsk {
		return r.Ask == other.Ask
	}
	if r.IsGraph {
		if len(r.Triples) != len(other.Triples) {
			return false
		}
		in := make(map[rdf.Triple]bool, len(other.Triples))
		for _, t := range other.Triples {
			in[t] = true
		}
		for _, t := range r.Triples {
			if !in[t] {
				return false
			}
		}
		return true
	}
	if r.Len() != other.Len() || r.Len() > 0 && len(r.Vars) != len(other.Vars) {
		return false
	}
	// memo[id] is 0 until r's id is translated, then 1<<32 | other's id,
	// unboundID standing for a term other's environment lacks.
	var memo []uint64
	if r.Len() > 0 {
		memo = make([]uint64, len(r.env.terms)+len(r.env.overflow))
	}
	translate := func(id rdf.TermID) rdf.TermID {
		if memo[id] == 0 {
			to, ok := other.env.lookup(r.env.term(id))
			if !ok {
				to = unboundID
			}
			memo[id] = 1<<32 | uint64(to)
		}
		return rdf.TermID(memo[id])
	}
	// Counting other's row keys and taking r's off them compares the two
	// multisets exactly in one pass each; the keys share one buffer, and
	// a lookup by string(key) copies nothing, so a row costs an
	// allocation only as the first of its key in other.
	var key []byte
	keyOf := func(res *Results, i int, tr func(rdf.TermID) rdf.TermID) bool {
		key = key[:0]
		for c := range res.Vars {
			id, ok := res.id(i, c)
			switch {
			case !ok:
				id = unboundID
			case tr != nil:
				if id = tr(id); id == unboundID {
					return false
				}
			}
			key = binary.LittleEndian.AppendUint32(key, uint32(id))
		}
		return true
	}
	index := make(map[string]int, other.Len())
	var counts []int
	for i := range other.rows {
		keyOf(other, i, nil)
		k, ok := index[string(key)]
		if !ok {
			k = len(counts)
			index[string(key)] = k
			counts = append(counts, 0)
		}
		counts[k]++
	}
	for i := range r.rows {
		if !keyOf(r, i, translate) {
			return false
		}
		k, ok := index[string(key)]
		if !ok || counts[k] == 0 {
			return false
		}
		counts[k]--
	}
	return true
}

// String renders a small results table for CLIs and examples.
func (r *Results) String() string {
	if r.IsAsk {
		return fmt.Sprintf("ASK => %v\n", r.Ask)
	}
	if r.IsGraph {
		var b strings.Builder
		for _, t := range r.Triples {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	var b strings.Builder
	for i, v := range r.Vars {
		if i > 0 {
			b.WriteString("\t")
		}
		b.WriteString("?" + string(v))
	}
	b.WriteByte('\n')
	for i := range r.rows {
		b.WriteString(r.CanonicalRow(i))
		b.WriteByte('\n')
	}
	return b.String()
}

// aggregate evaluates the query's one aggregate over rows in id space:
// one output row per group, in order of first appearance. Groups are
// keyed on their group variables' ids. An output row is an ordinary
// slot row of the env: the group variables keep their slots and the
// alias takes one past the pattern's, so the modifier pipeline, decoding
// and Solutions read it unchanged. Without GROUP BY the whole sequence
// is one group, an empty one too (SPARQL 1.1 §18.2.4.1).
func (env *evalEnv) aggregate(agg *Aggregate, rows []slotRow) []slotRow {
	var group []int
	for _, v := range agg.Group {
		if s, ok := env.slots[v]; ok {
			group = append(group, s)
		}
	}
	arg, argBound := env.slots[agg.Var]
	as, ok := env.slots[agg.As]
	if !ok {
		as = len(env.vars)
		env.vars = append(env.vars[:as:as], agg.As)
		env.slots = maps.Clone(env.slots)
		env.slots[agg.As] = as
	}
	type acc struct {
		first    slotRow // the group's first row: its group variables' ids
		count    int
		sum      float64
		integral bool // every value an xsd:integer so far
		err      bool // a value op:numeric-add is not defined on (§18.5.1)
		min, max rdf.TermID
	}
	newAcc := func(first slotRow) acc { return acc{first: first, integral: true, min: unboundID, max: unboundID} }
	index := map[string]int{}
	var accs []acc
	var key []byte
	for _, row := range rows {
		key = key[:0]
		for _, s := range group {
			key = binary.LittleEndian.AppendUint32(key, uint32(row[s]))
		}
		i, ok := index[string(key)]
		if !ok {
			i = len(accs)
			index[string(key)] = i
			accs = append(accs, newAcc(row))
		}
		a := &accs[i]
		if agg.Var == "" { // COUNT(*)
			a.count++
			continue
		}
		if !argBound || row[arg] == unboundID {
			continue
		}
		id := row[arg]
		t := env.term(id)
		a.count++
		if f, ok := env.numeric(id); ok {
			a.sum += f
		} else {
			a.err = true
		}
		a.integral = a.integral && t.Datatype == rdf.XSDInteger
		if a.min == unboundID || CompareTerms(t, env.term(a.min)) < 0 {
			a.min = id
		}
		if a.max == unboundID || CompareTerms(t, env.term(a.max)) > 0 {
			a.max = id
		}
	}
	if len(accs) == 0 && len(agg.Group) == 0 {
		accs = append(accs, newAcc(nil))
	}
	num := func(f float64, datatype string) rdf.TermID {
		return env.intern(rdf.NewTypedLiteral(strconv.FormatFloat(f, 'f', -1, 64), datatype))
	}
	out := make([]slotRow, len(accs))
	for i, a := range accs {
		row := env.newRow(nil)
		for _, s := range group {
			row[s] = a.first[s]
		}
		value := unboundID
		switch agg.Fn {
		case "COUNT":
			value = num(float64(a.count), rdf.XSDInteger)
		case "SUM": // §18.5.1: a value that is not numeric is an error, left unbound
			switch {
			case a.err:
			case a.integral:
				value = num(a.sum, rdf.XSDInteger)
			default:
				value = num(a.sum, rdf.XSDDecimal)
			}
		case "AVG": // the same, and the average of nothing is the integer 0
			switch {
			case a.err:
			case a.count == 0:
				value = num(0, rdf.XSDInteger)
			default:
				value = num(a.sum/float64(a.count), rdf.XSDDecimal)
			}
		case "MIN":
			value = a.min
		case "MAX":
			value = a.max
		}
		if value != unboundID {
			row[as] = value
		}
		out[i] = row
	}
	return out
}

// intern returns t's id in this run: the dictionary's when the run's
// term snapshot holds t, otherwise an id past the snapshot's end, held
// in the run's overflow slice and shared by every equal value, so ids
// stay injective over terms and DISTINCT on ids stays exact.
func (env *evalEnv) intern(t rdf.Term) rdf.TermID {
	if id, ok := env.lookup(t); ok {
		return id
	}
	if env.overflowIDs == nil {
		env.overflowIDs = map[rdf.Term]rdf.TermID{}
	}
	id := rdf.TermID(len(env.terms) + len(env.overflow))
	env.overflow = append(env.overflow, t)
	env.overflowIDs[t] = id
	return id
}

// lookup returns t's id in this run as intern gives it, without
// interning: ok is false when no row of the run can hold t.
func (env *evalEnv) lookup(t rdf.Term) (rdf.TermID, bool) {
	if id, ok := env.dict.Lookup(t); ok && int(id) < len(env.terms) {
		return id, true
	}
	id, ok := env.overflowIDs[t]
	return id, ok
}

// construct builds the CONSTRUCT output graph: the template
// instantiated under every row, dropping instances with an unbound
// variable or a term in a position it may not take, deduplicated (a
// CONSTRUCT answer is a graph, i.e. a set).
func (env *evalEnv) construct(template []TriplePattern, rows []slotRow) []rdf.Triple {
	resolve := func(el TPElem, row slotRow) (rdf.Term, bool) {
		if !el.IsVar {
			return el.Term, true
		}
		s, ok := env.slots[el.Var]
		if !ok || row[s] == unboundID {
			return rdf.Term{}, false
		}
		return env.term(row[s]), true
	}
	var out []rdf.Triple
	seen := map[rdf.Triple]bool{}
	for _, row := range rows {
		for _, tp := range template {
			s, ok := resolve(tp.S, row)
			if !ok {
				continue
			}
			p, ok := resolve(tp.P, row)
			if !ok {
				continue
			}
			o, ok := resolve(tp.O, row)
			if !ok {
				continue
			}
			t := rdf.Triple{S: s, P: p, O: o}
			if t.Validate() != nil || seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// describe builds the DESCRIBE output graph: for each element of
// targets in order — a constant, or the bindings of a variable in row
// order — every triple with that resource as subject, in dataset order
// (a simplified concise bounded description). No triple has a literal
// subject, so a literal target describes nothing; distinct targets share
// no triple, so nothing is deduplicated past the targets.
func (env *evalEnv) describe(targets []TPElem, rows []slotRow) []rdf.Triple {
	seen := map[rdf.TermID]bool{}
	var out []rdf.Triple
	add := func(id rdf.TermID) {
		if seen[id] {
			return
		}
		seen[id] = true
		for _, e := range env.subjectTriples(id) {
			out = append(out, rdf.Triple{S: env.terms[e.S], P: env.terms[e.P], O: env.terms[e.O]})
		}
	}
	for _, el := range targets {
		if !el.IsVar {
			if id, ok := env.dict.Lookup(el.Term); ok && int(id) < len(env.terms) {
				add(id)
			}
			continue
		}
		if s, ok := env.slots[el.Var]; ok {
			for _, row := range rows {
				if row[s] != unboundID {
					add(row[s])
				}
			}
		}
	}
	return out
}

// subjectTriples returns the triples with subject id in dataset order:
// the view's subject index on a one-shard set, every shard's merged by
// global position on more.
func (env *evalEnv) subjectTriples(id rdf.TermID) []rdf.EncodedTriple {
	if len(env.ss.Views) == 1 {
		return env.ss.Views[0].WithSubject(id)
	}
	type posTriple struct {
		pos int32
		t   rdf.EncodedTriple
	}
	var found []posTriple
	for _, view := range env.ss.Views {
		ts, positions := view.ScanSubject(id)
		for i, t := range ts {
			found = append(found, posTriple{positions[i], t})
		}
	}
	slices.SortFunc(found, func(a, b posTriple) int { return cmp.Compare(a.pos, b.pos) })
	out := make([]rdf.EncodedTriple, len(found))
	for i, f := range found {
		out[i] = f.t
	}
	return out
}
