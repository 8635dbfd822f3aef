// Package sparql implements the SPARQL subset the surveyed systems
// support (the survey's "SPARQL Fragment" dimension): basic graph
// patterns plus FILTER, OPTIONAL, UNION, DISTINCT, ORDER BY, LIMIT,
// OFFSET, projection, ASK, and COUNT/AVG aggregates (BGP+). It provides
// the shared front end (lexer, parser, algebra), a query-shape
// classifier (star / linear / snowflake / complex, Sec. II.B), and a
// reference evaluator used as ground truth for every engine.
package sparql

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Var is a SPARQL variable name without the leading '?'.
type Var string

// TPElem is one position of a triple pattern: a variable or a constant
// term.
type TPElem struct {
	IsVar bool
	Var   Var
	Term  rdf.Term
}

// VarElem builds a variable element.
func VarElem(v Var) TPElem { return TPElem{IsVar: true, Var: v} }

// TermElem builds a constant element.
func TermElem(t rdf.Term) TPElem { return TPElem{Term: t} }

func (e TPElem) String() string {
	if e.IsVar {
		return "?" + string(e.Var)
	}
	return e.Term.String()
}

// TriplePattern is one pattern of a basic graph pattern; each position
// may be a variable or a constant.
type TriplePattern struct {
	S, P, O TPElem
}

func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String()
}

// Vars returns the distinct variables of the pattern in S,P,O order.
func (tp TriplePattern) Vars() []Var {
	var out []Var
	seen := map[Var]bool{}
	for _, e := range []TPElem{tp.S, tp.P, tp.O} {
		if e.IsVar && !seen[e.Var] {
			seen[e.Var] = true
			out = append(out, e.Var)
		}
	}
	return out
}

// GraphPattern is a node of the SPARQL algebra.
type GraphPattern interface {
	// PatternVars lists every variable mentioned in the pattern.
	PatternVars() []Var
	fmt.Stringer
}

// BGP is a basic graph pattern: a conjunction of triple patterns.
type BGP struct {
	Patterns []TriplePattern
}

// PatternVars implements GraphPattern.
func (b BGP) PatternVars() []Var { return dedupVars(b.collect()) }

func (b BGP) collect() []Var {
	var out []Var
	for _, tp := range b.Patterns {
		out = append(out, tp.Vars()...)
	}
	return out
}

func (b BGP) String() string {
	parts := make([]string, len(b.Patterns))
	for i, tp := range b.Patterns {
		parts[i] = tp.String()
	}
	return strings.Join(parts, " . ")
}

// Filter restricts the solutions of Inner by Cond.
type Filter struct {
	Inner GraphPattern
	Cond  FilterExpr
}

// PatternVars implements GraphPattern.
func (f Filter) PatternVars() []Var { return f.Inner.PatternVars() }

func (f Filter) String() string {
	return f.Inner.String() + " FILTER(" + f.Cond.String() + ")"
}

// Optional is a left-join: solutions of Left optionally extended by
// Right.
type Optional struct {
	Left, Right GraphPattern
}

// PatternVars implements GraphPattern.
func (o Optional) PatternVars() []Var {
	return dedupVars(append(o.Left.PatternVars(), o.Right.PatternVars()...))
}

func (o Optional) String() string {
	return o.Left.String() + " OPTIONAL { " + o.Right.String() + " }"
}

// Union is the alternation of two patterns.
type Union struct {
	Left, Right GraphPattern
}

// PatternVars implements GraphPattern.
func (u Union) PatternVars() []Var {
	return dedupVars(append(u.Left.PatternVars(), u.Right.PatternVars()...))
}

func (u Union) String() string {
	return "{ " + u.Left.String() + " } UNION { " + u.Right.String() + " }"
}

// Group is the sequential join of sub-patterns.
type Group struct {
	Parts []GraphPattern
}

// PatternVars implements GraphPattern.
func (g Group) PatternVars() []Var {
	var all []Var
	for _, p := range g.Parts {
		all = append(all, p.PatternVars()...)
	}
	return dedupVars(all)
}

func (g Group) String() string {
	parts := make([]string, len(g.Parts))
	for i, p := range g.Parts {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ")
}

func dedupVars(vs []Var) []Var {
	seen := map[Var]bool{}
	var out []Var
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// QueryForm distinguishes SELECT from ASK.
type QueryForm int

// Query forms.
const (
	FormSelect QueryForm = iota
	FormAsk
	FormConstruct
	FormDescribe
)

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	Var Var
	Asc bool
}

// Aggregate describes an aggregate projection such as COUNT(?x) or
// AVG(?age) (the survey's BGP+ additions).
type Aggregate struct {
	Fn    string // COUNT, SUM, AVG, MIN, MAX
	Var   Var    // argument variable; empty means COUNT(*)
	As    Var    // result name
	Group []Var  // GROUP BY variables
}

// Query is a parsed SPARQL query.
type Query struct {
	Form       QueryForm
	Distinct   bool
	Projection []Var // empty means SELECT *; holds an aggregate's alias where the list writes it
	Agg        *Aggregate
	// Template holds the CONSTRUCT template patterns (FormConstruct).
	Template []TriplePattern
	// Describe holds the DESCRIBE targets (FormDescribe): variables
	// and/or constant resources.
	Describe []TPElem
	Where    GraphPattern
	OrderBy  []OrderKey
	Limit    int // -1 when absent
	Offset   int
}

// SelectedVars returns the variables the query projects (all pattern
// variables for SELECT *), in the order the SELECT list writes them. An
// aggregate's alias is projected where the list writes it; a group
// variable the list leaves out is not projected (§18.2.4.1).
func (q *Query) SelectedVars() []Var {
	if len(q.Projection) > 0 {
		return q.Projection
	}
	vs := q.Where.PatternVars()
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// BGPOf returns the flattened triple patterns when the WHERE clause is
// (or reduces to) a pure conjunction of BGPs; ok is false otherwise.
// Many surveyed engines support exactly this fragment.
func (q *Query) BGPOf() (BGP, bool) {
	var collect func(GraphPattern) ([]TriplePattern, bool)
	collect = func(p GraphPattern) ([]TriplePattern, bool) {
		switch n := p.(type) {
		case BGP:
			return n.Patterns, true
		case Group:
			var all []TriplePattern
			for _, part := range n.Parts {
				tps, ok := collect(part)
				if !ok {
					return nil, false
				}
				all = append(all, tps...)
			}
			return all, true
		default:
			return nil, false
		}
	}
	tps, ok := collect(q.Where)
	return BGP{Patterns: tps}, ok
}

// FilterExpr is a FILTER condition, sealed over its five node types:
// Comparison, LogicalAnd, LogicalOr, LogicalNot and Bound.
//
// FILTER is three-valued (SPARQL 1.1 §17.2): an expression is true,
// false or an error, and FILTER keeps a row only when it is true. &&
// and || follow §17.2's truth table, ! of an error is an error, and
// BOUND never is one. A comparison is an error when an operand is
// unbound or when the implemented subset of §17.3's operator table does
// not define it for the pair. The subset orders numerics (the XSD
// numeric datatypes, by value) against numerics and strings (simple
// literals and xsd:string, by code point) against strings; every other
// pair has = and != only, as RDFterm-equal: the same term is equal, two
// literals that are not the same term are an error, and anything else
// is unequal. So IRIs, blank nodes, language-tagged literals and every
// other datatype — xsd:boolean, xsd:dateTime and xsd:date among them —
// are never ordered, and = between two of their literals that are not
// the same term is an error.
type FilterExpr interface {
	fmt.Stringer
	filterExpr()
}

// Comparison compares a variable (or constant) with another operand.
type Comparison struct {
	Op   string // = != < <= > >=
	L, R Operand
}

// Operand is a comparison operand: a variable or a constant term, as a
// triple pattern's position is.
type Operand = TPElem

func (c Comparison) String() string {
	return c.L.String() + " " + c.Op + " " + c.R.String()
}

// LogicalAnd is &&.
type LogicalAnd struct{ L, R FilterExpr }

func (a LogicalAnd) String() string { return "(" + a.L.String() + " && " + a.R.String() + ")" }

// LogicalOr is ||.
type LogicalOr struct{ L, R FilterExpr }

func (o LogicalOr) String() string { return "(" + o.L.String() + " || " + o.R.String() + ")" }

// LogicalNot is !.
type LogicalNot struct{ E FilterExpr }

func (n LogicalNot) String() string { return "!(" + n.E.String() + ")" }

// Bound is BOUND(?x).
type Bound struct{ Var Var }

func (bd Bound) String() string { return "BOUND(?" + string(bd.Var) + ")" }

func (Comparison) filterExpr() {}
func (LogicalAnd) filterExpr() {}
func (LogicalOr) filterExpr()  {}
func (LogicalNot) filterExpr() {}
func (Bound) filterExpr()      {}

// Unbound is the term of a variable a solution does not bind. Its kind
// is none of rdf's, so no parser produces it; the zero Term could not
// serve, because it is the IRI <>.
var Unbound = rdf.Term{Kind: ^rdf.TermKind(0)}

// Cond is a FilterExpr compiled once per query against the slots its
// rows hold their terms in; Holds evaluates it per row.
type Cond struct {
	op   string  // a comparison operator, "&&", "||", "!" or "BOUND"
	x, y *Cond   // the operands of && and ||; ! has x only
	l, r operand // a comparison's operands; BOUND's variable is l
}

// operand is a comparison operand, or BOUND's variable: a slot, or at
// slot -1 a constant (Unbound for a variable the query never binds),
// valued once when it is numeric.
type operand struct {
	slot  int
	term  rdf.Term
	num   float64
	isNum bool
}

// CompileFilter compiles e against slots, the slot of each variable
// the query mentions.
func CompileFilter(e FilterExpr, slots map[Var]int) *Cond {
	operandOf := func(o Operand) operand {
		s, ok := slots[o.Var]
		switch {
		case !o.IsVar:
			f, isNum := rdf.NumericValue(o.Term)
			return operand{slot: -1, term: o.Term, num: f, isNum: isNum}
		case !ok:
			return operand{slot: -1, term: Unbound}
		}
		return operand{slot: s}
	}
	switch n := e.(type) {
	case Comparison:
		return &Cond{op: n.Op, l: operandOf(n.L), r: operandOf(n.R)}
	case LogicalAnd:
		return &Cond{op: "&&", x: CompileFilter(n.L, slots), y: CompileFilter(n.R, slots)}
	case LogicalOr:
		return &Cond{op: "||", x: CompileFilter(n.L, slots), y: CompileFilter(n.R, slots)}
	case LogicalNot:
		return &Cond{op: "!", x: CompileFilter(n.E, slots)}
	}
	return &Cond{op: "BOUND", l: operandOf(Operand{IsVar: true, Var: e.(Bound).Var})}
}

// Terms is a solution row as FILTER reads it: the term in each slot,
// Unbound where the row binds none, and its value when the term is a
// numeric literal (rdf.NumericValue): two numbers compare by value.
type Terms interface {
	Term(slot int) rdf.Term
	Numeric(slot int) (float64, bool)
}

// Holds reports whether c is true of row, the one case in which FILTER
// keeps the row. It is the one FILTER evaluator: the reference, the
// sharded route and every engine call it.
func Holds[R Terms](c *Cond, row R) bool { return eval(c, row) == isTrue }

// truth is a FILTER value in the order false < error < true, so that
// §17.2's truth tables are && as min, || as max and ! as isTrue - x.
type truth uint8

const (
	isFalse truth = iota
	isError
	isTrue
)

func eval[R Terms](c *Cond, row R) truth {
	switch c.op {
	case "&&":
		return min(eval(c.x, row), eval(c.y, row))
	case "||":
		return max(eval(c.x, row), eval(c.y, row))
	case "!":
		return isTrue - eval(c.x, row)
	case "BOUND":
		return truthOf(termOf(c.l, row) != Unbound)
	}
	if lf, ok := numOf(c.l, row); ok {
		if rf, ok := numOf(c.r, row); ok {
			if math.IsNaN(lf) || math.IsNaN(rf) {
				return truthOf(c.op == "!=")
			}
			return order(c.op, cmp.Compare(lf, rf))
		}
	}
	return compare(c.op, termOf(c.l, row), termOf(c.r, row))
}

func termOf[R Terms](o operand, row R) rdf.Term {
	if o.slot < 0 {
		return o.term
	}
	return row.Term(o.slot)
}

func numOf[R Terms](o operand, row R) (float64, bool) {
	if o.slot < 0 {
		return o.num, o.isNum
	}
	return row.Numeric(o.slot)
}

func truthOf(b bool) truth {
	if b {
		return isTrue
	}
	return isFalse
}

// compare evaluates l op r, two terms not both numeric (eval compares
// those), by FilterExpr's subset of §17.3's operator table.
func compare(op string, l, r rdf.Term) truth {
	c := 0 // l against r: -1, 0 or 1
	switch {
	case l == Unbound || r == Unbound:
		return isError
	case isString(l) && isString(r):
		c = strings.Compare(l.Value, r.Value)
	case op != "=" && op != "!=": // nothing else is ordered
		return isError
	case l != r && l.IsLiteral() && r.IsLiteral(): // RDFterm-equal cannot tell
		return isError
	case l != r:
		c = 1
	}
	return order(op, c)
}

// order is op's truth for a comparison whose operands compared c.
func order(op string, c int) truth {
	switch op { // each operator, then its negation
	case "=", "!=":
		return truthOf((c == 0) == (op == "="))
	case "<", ">=":
		return truthOf((c < 0) == (op == "<"))
	}
	return truthOf((c > 0) == (op == ">"))
}

// isString reports whether t is a simple literal or an xsd:string.
func isString(t rdf.Term) bool {
	return t.IsLiteral() && t.Lang == "" && (t.Datatype == "" || t.Datatype == rdf.XSDString)
}

// CompareTerms is ORDER BY's total order (SPARQL 1.1 §15.1), not
// FILTER's comparison: Unbound, then blank nodes, then IRIs, then
// literals. Among literals the numeric ones (rdf.NumericValue) come
// first, by value; the rest, and numerics of one value, order by
// lexical form, then datatype, then language tag — as do two terms of
// any other kind. It is one order over every pair of terms: a sort's
// result does not depend on its input's order. ORDER BY, MIN and MAX,
// and the assessment's tie check use it.
func CompareTerms(a, b rdf.Term) int {
	af, aok := rdf.NumericValue(a)
	bf, bok := rdf.NumericValue(b)
	return compareTerms(a, b, af, aok, bf, bok)
}

// compareTerms is CompareTerms over terms already valued.
func compareTerms(a, b rdf.Term, af float64, aok bool, bf float64, bok bool) int {
	if ra, rb := kindRank[a.Kind], kindRank[b.Kind]; ra != rb {
		return int(ra) - int(rb)
	}
	switch {
	case aok != bok:
		if aok {
			return -1
		}
		return 1
	case aok:
		if c := cmp.Compare(af, bf); c != 0 {
			return c
		}
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Datatype, b.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

// kindRank is ORDER BY's order of the kinds; Unbound ranks 0.
var kindRank = [256]int8{rdf.Blank: 1, rdf.IRI: 2, rdf.Literal: 3}
