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

// Binding maps variables to the terms they are bound to; absent
// variables are unbound (possible under OPTIONAL).
type Binding map[Var]rdf.Term

// Term returns v's term in b, Unbound when b does not bind v.
func (b Binding) Term(v Var) rdf.Term {
	if t, ok := b[v]; ok {
		return t
	}
	return Unbound
}

// Results is a solution sequence: an ordered list of bindings projected
// over Vars. All engines return this type, so results are directly
// comparable across systems.
type Results struct {
	Vars []Var
	Rows []Binding
	// Ask holds the answer of an ASK query; Rows is empty then.
	Ask bool
	// IsAsk marks ASK results.
	IsAsk bool
	// Triples holds the constructed graph of a CONSTRUCT query;
	// IsGraph marks such results.
	Triples []rdf.Triple
	IsGraph bool
}

// Len returns the number of solutions.
func (r *Results) Len() int { return len(r.Rows) }

// rowKey renders one binding canonically over the result variables.
func (r *Results) rowKey(b Binding) string {
	var buf [256]byte
	return string(r.appendRowKey(buf[:0], b))
}

// appendRowKey appends b's canonical rendering to buf: its terms over
// the result variables, tab-separated, UNBOUND where b binds none.
func (r *Results) appendRowKey(buf []byte, b Binding) []byte {
	for i, v := range r.Vars {
		if i > 0 {
			buf = append(buf, '\t')
		}
		if t, ok := b[v]; ok {
			buf = t.AppendTo(buf)
		} else {
			buf = append(buf, "UNBOUND"...)
		}
	}
	return buf
}

// Canonical returns the solutions as sorted canonical strings — a
// multiset fingerprint used to compare engines against the reference
// evaluator.
func (r *Results) Canonical() []string {
	out := make([]string, len(r.Rows))
	for i, b := range r.Rows {
		out[i] = r.rowKey(b)
	}
	sort.Strings(out)
	return out
}

// OrderedCanonical returns the solutions in result order (for ORDER BY
// comparisons).
func (r *Results) OrderedCanonical() []string {
	out := make([]string, len(r.Rows))
	for i, b := range r.Rows {
		out[i] = r.rowKey(b)
	}
	return out
}

// Equal reports whether two result sets hold the same multiset of
// solutions over the same variables (or, for ASK/CONSTRUCT, the same
// answer / the same graph).
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
		g := rdf.NewGraph(other.Triples)
		for _, t := range r.Triples {
			if !g.Has(t) {
				return false
			}
		}
		return true
	}
	// Counting r's row keys and taking other's off them compares the two
	// multisets exactly in one pass each; the keys share one buffer, and
	// a lookup by string(buf) copies nothing, so a row costs an
	// allocation only as the first of its key in r.
	if len(r.Rows) != len(other.Rows) {
		return false
	}
	index := make(map[string]int, len(r.Rows))
	var counts []int
	var buf []byte
	for _, b := range r.Rows {
		buf = r.appendRowKey(buf[:0], b)
		i, ok := index[string(buf)]
		if !ok {
			i = len(counts)
			index[string(buf)] = i
			counts = append(counts, 0)
		}
		counts[i]++
	}
	for _, b := range other.Rows {
		buf = other.appendRowKey(buf[:0], b)
		i, ok := index[string(buf)]
		if !ok || counts[i] == 0 {
			return false
		}
		counts[i]--
	}
	return true
}

// String renders a small results table for CLIs and examples.
func (r *Results) String() string {
	if r.IsAsk {
		return fmt.Sprintf("ASK => %v", r.Ask)
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
	for _, row := range r.Rows {
		b.WriteString(r.rowKey(row))
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
		if f, ok := numericValue(t); ok {
			a.sum += f
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
		case "SUM":
			if a.integral {
				value = num(a.sum, rdf.XSDInteger)
			} else {
				value = num(a.sum, rdf.XSDDecimal)
			}
		case "AVG": // §18.5.1: the average of nothing is the integer 0
			if a.count == 0 {
				value = num(0, rdf.XSDInteger)
			} else {
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
	if id, ok := env.dict.Lookup(t); ok && int(id) < len(env.terms) {
		return id
	}
	if id, ok := env.overflowIDs[t]; ok {
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
// the view's subject index on one graph, every shard's merged by global
// position on a shard set.
func (env *evalEnv) subjectTriples(id rdf.TermID) []rdf.EncodedTriple {
	if env.ss == nil {
		return env.view.WithSubject(id)
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
