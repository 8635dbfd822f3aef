package sparql

import (
	"fmt"
	"sort"
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

// Clone copies the binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
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

// SortRows orders rows by the given keys (stable) in CompareTerms'
// order, used by engines to apply ORDER BY uniformly.
func (r *Results) SortRows(keys []OrderKey) {
	sort.SliceStable(r.Rows, func(i, j int) bool {
		for _, k := range keys {
			if c := CompareTerms(r.Rows[i].Term(k.Var), r.Rows[j].Term(k.Var)); c != 0 {
				return (c < 0) == k.Asc
			}
		}
		return false
	})
}

// applySolutionModifiers is the term-space tail of the aggregate and
// CONSTRUCT forms: the aggregate, then DISTINCT / ORDER BY / OFFSET /
// LIMIT. Neither needs a projection: an aggregate's rows bind only its
// group variables and its alias, and CONSTRUCT selects every variable.
func applySolutionModifiers(q *Query, rows []Binding) *Results {
	if q.Agg != nil {
		rows = aggregateRows(q.Agg, rows)
	}
	res := &Results{Vars: q.SelectedVars(), Rows: rows}
	if q.Distinct {
		seen := map[string]bool{}
		var kept []Binding
		for _, b := range res.Rows {
			k := res.rowKey(b)
			if !seen[k] {
				seen[k] = true
				kept = append(kept, b)
			}
		}
		res.Rows = kept
	}
	if len(q.OrderBy) > 0 {
		res.SortRows(q.OrderBy)
	}
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
	if q.Form == FormAsk {
		return &Results{IsAsk: true, Ask: len(rows) > 0}
	}
	if q.Form == FormConstruct {
		return &Results{IsGraph: true, Triples: InstantiateTemplate(q.Template, res.Rows)}
	}
	return res
}

// InstantiateTemplate builds the CONSTRUCT output graph: the template
// patterns instantiated under every solution, dropping instantiations
// with unbound variables or invalid positions, deduplicated (a SPARQL
// CONSTRUCT result is a graph, i.e. a set).
func InstantiateTemplate(template []TriplePattern, rows []Binding) []rdf.Triple {
	var out []rdf.Triple
	seen := map[rdf.Triple]bool{}
	resolve := func(el TPElem, b Binding) (rdf.Term, bool) {
		if !el.IsVar {
			return el.Term, true
		}
		t, ok := b[el.Var]
		return t, ok
	}
	for _, b := range rows {
		for _, tp := range template {
			s, ok := resolve(tp.S, b)
			if !ok {
				continue
			}
			p, ok := resolve(tp.P, b)
			if !ok {
				continue
			}
			o, ok := resolve(tp.O, b)
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

// aggregateRows evaluates the single supported aggregate over rows.
func aggregateRows(agg *Aggregate, rows []Binding) []Binding {
	type acc struct {
		group Binding
		count int
		sum   float64
		min   rdf.Term // Unbound until a value is seen
		max   rdf.Term
	}
	groups := map[string]*acc{}
	var order []string
	for _, b := range rows {
		parts := make([]string, len(agg.Group))
		for i, g := range agg.Group {
			if t, ok := b[g]; ok {
				parts[i] = t.String()
			}
		}
		key := strings.Join(parts, "\t")
		a, ok := groups[key]
		if !ok {
			gb := Binding{}
			for _, g := range agg.Group {
				if t, has := b[g]; has {
					gb[g] = t
				}
			}
			a = &acc{group: gb, min: Unbound, max: Unbound}
			groups[key] = a
			order = append(order, key)
		}
		if agg.Var == "" { // COUNT(*)
			a.count++
			continue
		}
		t, bound := b[agg.Var]
		if !bound {
			continue
		}
		a.count++
		if f, ok := numericValue(t); ok {
			a.sum += f
		}
		if a.min == Unbound || CompareTerms(t, a.min) < 0 {
			a.min = t
		}
		if CompareTerms(t, a.max) > 0 { // Unbound orders first
			a.max = t
		}
	}
	numLit := func(f float64) rdf.Term {
		s := strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
		return rdf.NewTypedLiteral(s, rdf.XSDInteger)
	}
	var out []Binding
	for _, key := range order {
		a := groups[key]
		b := a.group.Clone()
		switch agg.Fn {
		case "COUNT":
			b[agg.As] = rdf.NewTypedLiteral(fmt.Sprint(a.count), rdf.XSDInteger)
		case "SUM":
			b[agg.As] = numLit(a.sum)
		case "AVG":
			if a.count > 0 {
				b[agg.As] = numLit(a.sum / float64(a.count))
			}
		case "MIN":
			if a.min != Unbound {
				b[agg.As] = a.min
			}
		case "MAX":
			if a.max != Unbound {
				b[agg.As] = a.max
			}
		}
		out = append(out, b)
	}
	return out
}
