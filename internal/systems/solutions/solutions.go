// Package solutions holds what the surveyed engines do with term-space
// solution sequences at the driver, once: the SPARQL join and left join
// of two sequences, the BGP+ algebra walked over an engine's own BGP
// evaluator, and the shuffle key a binding is joined on, over the
// variables two sequences share. None of it is part of any surveyed
// design — the engines' metered strategies (their KeyBy / Cartesian /
// broadcast RDD joins) stay in their own packages — so it is shared,
// and it costs what a hash join costs.
package solutions

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// scanBelow is the build-side length under which a map is not worth
// building: every probe walks the few rows there are.
const scanBelow = 8

// Table is the build side of a join: an immutable sequence of solutions
// indexed, when it pays, on one variable bound in every one of them.
// Probes only read it, so tasks may share one.
type Table struct {
	rows []sparql.Binding
	// key is the indexed variable; head maps each term it takes to the
	// first build row holding it and next chains the rest in slice
	// order (-1 ends a chain). A nil head means every probe scans.
	key  sparql.Var
	head map[rdf.Term]int
	next []int
}

// NewTable prepares build for probing by rows like those of probe (the
// whole probe side, or a sample of it). The key is the variable, among
// those bound in every build row, that the most probe rows bind; of
// several bound equally often, the one taking the most distinct terms
// in build. A short build side, or one no probe row can be keyed into,
// gets no index.
func NewTable(build, probe []sparql.Binding) *Table {
	t := &Table{rows: build}
	if len(build) < scanBelow {
		return t
	}
	best := 0
	for v := range build[0] {
		n := binding(probe, v)
		if n == 0 || n < best || binding(build, v) < len(build) {
			continue
		}
		head, next := index(build, v)
		if n > best || len(head) > len(t.head) || (len(head) == len(t.head) && v < t.key) {
			best, t.key, t.head, t.next = n, v, head, next
		}
	}
	return t
}

// binding counts the rows that bind v.
func binding(rows []sparql.Binding, v sparql.Var) int {
	n := 0
	for _, r := range rows {
		if _, ok := r[v]; ok {
			n++
		}
	}
	return n
}

// index chains the rows by the term v takes in them. It walks the rows
// backwards so each chain runs forwards.
func index(rows []sparql.Binding, v sparql.Var) (head map[rdf.Term]int, next []int) {
	head = make(map[rdf.Term]int, len(rows))
	next = make([]int, len(rows))
	for i := len(rows) - 1; i >= 0; i-- {
		term := rows[i][v]
		if j, ok := head[term]; ok {
			next[i] = j
		} else {
			next[i] = -1
		}
		head[term] = i
	}
	return head, next
}

// Probe appends to out the merge of l with every build row compatible
// with it, in build order — and, when outer is set and there is none, l
// itself (OPTIONAL). A row that binds the key visits its bucket; one
// that does not (possible below OPTIONAL) is compatible with any key
// and visits every row. Every candidate is verified with Compatible:
// the key narrows the search, it does not decide the join.
func (t *Table) Probe(l sparql.Binding, outer bool, out []sparql.Binding) []sparql.Binding {
	start := len(out)
	term, keyed := l[t.key]
	if keyed && t.head != nil {
		i, ok := t.head[term]
		for ; ok && i >= 0; i = t.next[i] {
			if l.Compatible(t.rows[i]) {
				out = append(out, l.Merge(t.rows[i]))
			}
		}
	} else {
		for _, r := range t.rows {
			if l.Compatible(r) {
				out = append(out, l.Merge(r))
			}
		}
	}
	if outer && len(out) == start {
		out = append(out, l.Clone())
	}
	return out
}

// Join is the SPARQL join of two solution sequences: every compatible
// pair merged, left-major with the right side in slice order — row for
// row what the nested loop over both emits.
func Join(left, right []sparql.Binding) []sparql.Binding {
	return join(left, right, false)
}

// LeftJoin is Join that keeps a left row with no compatible right row
// (OPTIONAL), in its place.
func LeftJoin(left, right []sparql.Binding) []sparql.Binding {
	return join(left, right, true)
}

func join(left, right []sparql.Binding, outer bool) []sparql.Binding {
	t := NewTable(right, left)
	var out []sparql.Binding
	for _, l := range left {
		out = t.Probe(l, outer, out)
	}
	return out
}

// EvalPattern evaluates the BGP+ algebra at the driver for an engine
// that answers BGPs itself: groups join, OPTIONAL left-joins, UNION
// concatenates, and FILTER runs through filter when the engine has its
// own (nil keeps it at the driver). engine names the engine in the
// error for a pattern outside the fragment.
func EvalPattern(p sparql.GraphPattern, engine string,
	evalBGP func(sparql.BGP) ([]sparql.Binding, error),
	filter func(rows []sparql.Binding, cond sparql.FilterExpr) []sparql.Binding,
) ([]sparql.Binding, error) {
	eval := func(p sparql.GraphPattern) ([]sparql.Binding, error) {
		return EvalPattern(p, engine, evalBGP, filter)
	}
	both := func(l, r sparql.GraphPattern) (left, right []sparql.Binding, err error) {
		if left, err = eval(l); err == nil {
			right, err = eval(r)
		}
		return left, right, err
	}
	switch n := p.(type) {
	case sparql.BGP:
		return evalBGP(n)
	case sparql.Group:
		rows := []sparql.Binding{{}}
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
		if filter != nil {
			return filter(rows, n.Cond), nil
		}
		var kept []sparql.Binding
		for _, b := range rows {
			if n.Cond.EvalFilter(b) {
				kept = append(kept, b)
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

// Key renders the terms b binds vars to, for use as a shuffle join key
// (an unbound variable renders empty): the N-Triples terms joined by
// NUL bytes, built in one buffer.
func Key(b sparql.Binding, vars []sparql.Var) string {
	var buf [256]byte
	key := buf[:0]
	for i, v := range vars {
		if i > 0 {
			key = append(key, 0)
		}
		if t, ok := b[v]; ok {
			key = t.AppendTo(key)
		}
	}
	return string(key)
}

// VarSet returns vs as a set.
func VarSet(vs []sparql.Var) map[sparql.Var]bool {
	out := map[sparql.Var]bool{}
	for _, v := range vs {
		out[v] = true
	}
	return out
}

// SharedVars returns the variables of vs in have, sorted: the columns a
// pattern's bindings join the solutions binding have on.
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
