package sparql

import (
	"hash/fnv"
	"strconv"

	"repro/internal/rdf"
)

// Plan fingerprinting: a normalized query-shape hash that keys the
// workload observatory's per-shape aggregates (internal/obs). Two
// queries share a fingerprint exactly when they share *structure* —
// the same pattern layout, the same join graph, the same modifiers —
// regardless of the literals and entity constants they mention. The
// normalization rules:
//
//   - Variables are renamed to canonical ordinals in first-mention
//     order over a deterministic walk of the algebra, so ?s/?person
//     spelling differences disappear while the join graph (which
//     positions share a variable) is fully preserved.
//   - Predicate constants keep their value: the predicate defines
//     which relation a pattern touches, which is structure, not data.
//   - Subject/object constants and FILTER comparison constants are
//     reduced to their term kind (IRI, literal, blank). A point
//     lookup for Alice and one for Bob are the same query shape.
//   - Solution modifiers contribute their presence and structure
//     (DISTINCT, ORDER BY keys and directions, LIMIT/OFFSET
//     presence, projection, aggregate shape) but not their literal
//     arguments: LIMIT 10 and LIMIT 500 are the same shape.
//
// Pattern order is taken as written — the evaluator's join reordering
// is derived state, and hashing the written form keeps fingerprinting
// a pure function of the parsed query.

// fpState carries the canonical-variable table of one fingerprint walk.
type fpState struct {
	buf  []byte
	vars map[Var]int
}

func (st *fpState) writeVar(v Var) {
	n, ok := st.vars[v]
	if !ok {
		n = len(st.vars)
		st.vars[v] = n
	}
	st.buf = append(st.buf, '?')
	st.buf = strconv.AppendInt(st.buf, int64(n), 10)
}

// writeElem encodes one triple-pattern position. pred marks the
// predicate position, whose constants keep their value.
func (st *fpState) writeElem(e TPElem, pred bool) {
	if e.IsVar {
		st.writeVar(e.Var)
		return
	}
	if pred {
		st.buf = append(st.buf, '<')
		st.buf = append(st.buf, e.Term.Value...)
		st.buf = append(st.buf, '>')
		return
	}
	st.writeKind(e.Term)
}

// writeKind encodes a constant as its term kind only.
func (st *fpState) writeKind(t rdf.Term) {
	st.buf = append(st.buf, 'k')
	st.buf = strconv.AppendInt(st.buf, int64(t.Kind), 10)
}

func (st *fpState) writePattern(tp TriplePattern) {
	st.writeElem(tp.S, false)
	st.buf = append(st.buf, ' ')
	st.writeElem(tp.P, true)
	st.buf = append(st.buf, ' ')
	st.writeElem(tp.O, false)
	st.buf = append(st.buf, ';')
}

func (st *fpState) writeGraphPattern(p GraphPattern) {
	switch n := p.(type) {
	case BGP:
		st.buf = append(st.buf, "bgp{"...)
		for _, tp := range n.Patterns {
			st.writePattern(tp)
		}
		st.buf = append(st.buf, '}')
	case Filter:
		st.buf = append(st.buf, "filter("...)
		st.writeFilterExpr(n.Cond)
		st.buf = append(st.buf, "){"...)
		st.writeGraphPattern(n.Inner)
		st.buf = append(st.buf, '}')
	case Optional:
		st.buf = append(st.buf, "opt{"...)
		st.writeGraphPattern(n.Left)
		st.buf = append(st.buf, "}{"...)
		st.writeGraphPattern(n.Right)
		st.buf = append(st.buf, '}')
	case Union:
		st.buf = append(st.buf, "union{"...)
		st.writeGraphPattern(n.Left)
		st.buf = append(st.buf, "}{"...)
		st.writeGraphPattern(n.Right)
		st.buf = append(st.buf, '}')
	case Group:
		st.buf = append(st.buf, "grp{"...)
		for _, part := range n.Parts {
			st.writeGraphPattern(part)
		}
		st.buf = append(st.buf, '}')
	default:
		// Unknown algebra nodes still hash deterministically by type
		// string, so a new node type cannot silently alias an old shape.
		st.buf = append(st.buf, "node("...)
		st.buf = append(st.buf, p.String()...)
		st.buf = append(st.buf, ')')
	}
}

func (st *fpState) writeFilterExpr(e FilterExpr) {
	switch n := e.(type) {
	case Comparison:
		st.buf = append(st.buf, "cmp"...)
		st.buf = append(st.buf, n.Op...)
		st.buf = append(st.buf, '(')
		st.writeElem(n.L, false)
		st.buf = append(st.buf, ',')
		st.writeElem(n.R, false)
		st.buf = append(st.buf, ')')
	case LogicalAnd:
		st.buf = append(st.buf, "and("...)
		st.writeFilterExpr(n.L)
		st.buf = append(st.buf, ',')
		st.writeFilterExpr(n.R)
		st.buf = append(st.buf, ')')
	case LogicalOr:
		st.buf = append(st.buf, "or("...)
		st.writeFilterExpr(n.L)
		st.buf = append(st.buf, ',')
		st.writeFilterExpr(n.R)
		st.buf = append(st.buf, ')')
	case LogicalNot:
		st.buf = append(st.buf, "not("...)
		st.writeFilterExpr(n.E)
		st.buf = append(st.buf, ')')
	case Bound:
		st.buf = append(st.buf, "bound("...)
		st.writeVar(n.Var)
		st.buf = append(st.buf, ')')
	}
}

// canonicalShape renders the query's normalized structural form — the
// preimage of the fingerprint hash. Exported to tests via the
// fingerprint itself; kept unexported so the encoding can evolve.
func canonicalShape(q *Query) []byte {
	st := &fpState{buf: make([]byte, 0, 256), vars: make(map[Var]int, 8)}
	// WHERE first: it mentions (almost) every variable, so canonical
	// numbering is anchored to the join graph, not the SELECT list.
	st.buf = append(st.buf, "where:"...)
	if q.Where != nil {
		st.writeGraphPattern(q.Where)
	}
	st.buf = append(st.buf, "|form:"...)
	st.buf = strconv.AppendInt(st.buf, int64(q.Form), 10)
	if q.Distinct {
		st.buf = append(st.buf, "|distinct"...)
	}
	if len(q.Projection) > 0 {
		st.buf = append(st.buf, "|proj:"...)
		for _, v := range q.Projection {
			st.writeVar(v)
		}
	}
	if q.Agg != nil {
		st.buf = append(st.buf, "|agg:"...)
		st.buf = append(st.buf, q.Agg.Fn...)
		st.buf = append(st.buf, '(')
		if q.Agg.Var != "" {
			st.writeVar(q.Agg.Var)
		} else {
			st.buf = append(st.buf, '*')
		}
		st.buf = append(st.buf, ')')
		for _, v := range q.Agg.Group {
			st.writeVar(v)
		}
	}
	for _, t := range q.Template {
		st.buf = append(st.buf, "|tmpl:"...)
		st.writePattern(t)
	}
	for _, d := range q.Describe {
		st.buf = append(st.buf, "|desc:"...)
		st.writeElem(d, false)
	}
	if len(q.OrderBy) > 0 {
		st.buf = append(st.buf, "|order:"...)
		for _, k := range q.OrderBy {
			st.writeVar(k.Var)
			if k.Asc {
				st.buf = append(st.buf, '+')
			} else {
				st.buf = append(st.buf, '-')
			}
		}
	}
	// LIMIT/OFFSET contribute presence, not value: paging through the
	// same query is one workload shape.
	if q.Limit >= 0 {
		st.buf = append(st.buf, "|limit"...)
	}
	if q.Offset > 0 {
		st.buf = append(st.buf, "|offset"...)
	}
	return st.buf
}

// FingerprintQuery returns the plan fingerprint of a parsed query as
// fixed-width hex: the FNV-64a hash of its canonical structural form.
func FingerprintQuery(q *Query) string {
	h := fnv.New64a()
	h.Write(canonicalShape(q))
	const hexDigits = "0123456789abcdef"
	sum := h.Sum64()
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = hexDigits[sum&0xf]
		sum >>= 4
	}
	return string(out)
}

// Fingerprint returns the prepared query's plan fingerprint, computed
// once at Prepare time (a Prepared is immutable, so the fingerprint
// is too).
func (p *Prepared) Fingerprint() string { return p.fingerprint }
