package sparql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/rdf"
)

// Parse parses a SPARQL query in the supported fragment:
//
//	[PREFIX pfx: <iri>]*
//	SELECT [DISTINCT] (?v... | * | AGG(?v) AS ?alias) [WHERE] { pattern }
//	  [GROUP BY ?v...] [ORDER BY [ASC|DESC](?v) | ?v ...]
//	  [LIMIT n] [OFFSET n]
//	ASK [WHERE] { pattern }
//
// pattern supports triple blocks, FILTER(expr), OPTIONAL { ... },
// { ... } UNION { ... }, and nested groups. An aggregate's alias must
// not be in scope already: a *ScopeError when the pattern or the GROUP
// BY binds it (§18.2.1).
func Parse(text string) (*Query, error) {
	toks, err := lex(text)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: map[string]string{}}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.done() {
		return nil, fmt.Errorf("sparql: trailing input at %q", p.peek().text)
	}
	return q, nil
}

// MustParse is Parse for known-good queries in tests and examples.
func MustParse(text string) *Query {
	q, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return q
}

type token struct {
	kind string // ident var iri literal number punct
	text string
	lang string // literal language
	dt   string // literal datatype (already resolved IRI)
}

func lex(text string) ([]token, error) {
	var toks []token
	i := 0
	n := len(text)
	for i < n {
		c, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case unicode.IsSpace(c):
			i += size
		case c == '#':
			for i < n && text[i] != '\n' {
				i++
			}
		case c == '<':
			// '<' starts an IRI only when a '>' follows with no
			// whitespace in between; otherwise it is the less-than
			// operator (FILTER expressions).
			j := strings.IndexByte(text[i:], '>')
			if j > 0 && !strings.ContainsAny(text[i:i+j], " \t\n\r") {
				toks = append(toks, token{kind: "iri", text: text[i+1 : i+j]})
				i += j + 1
				break
			}
			if i+1 < n && text[i+1] == '=' {
				toks = append(toks, token{kind: "punct", text: "<="})
				i += 2
			} else {
				toks = append(toks, token{kind: "punct", text: "<"})
				i++
			}
		case c == '?' || c == '$':
			j := nameEnd(text, i+1, false)
			if j == i+1 {
				return nil, fmt.Errorf("sparql: empty variable name")
			}
			toks = append(toks, token{kind: "var", text: text[i+1 : j]})
			i = j
		case c == '"':
			val, rest, err := unquote(text[i:])
			if err != nil {
				return nil, err
			}
			i = n - len(rest)
			tok := token{kind: "literal", text: val}
			if i < n && text[i] == '@' {
				j := i + 1
				for j < n && (text[j] < utf8.RuneSelf && unicode.IsLetter(rune(text[j])) || text[j] == '-') {
					j++
				}
				tok.lang = text[i+1 : j]
				i = j
			} else if strings.HasPrefix(text[i:], "^^<") {
				j := strings.IndexByte(text[i+3:], '>')
				if j < 0 {
					return nil, fmt.Errorf("sparql: unterminated datatype")
				}
				tok.dt = text[i+3 : i+3+j]
				i += 3 + j + 1
			}
			toks = append(toks, tok)
		case '0' <= c && c <= '9' || (c == '-' && i+1 < n && unicode.IsDigit(rune(text[i+1]))):
			// §19.8 INTEGER and DECIMAL: a '.' joins a number only when a
			// digit follows it ("25." is 25 ending a triple), and a number
			// with one is an xsd:decimal.
			j, dt := i+1, rdf.XSDInteger
			for j < n && (unicode.IsDigit(rune(text[j])) ||
				text[j] == '.' && dt == rdf.XSDInteger && j+1 < n && unicode.IsDigit(rune(text[j+1]))) {
				if text[j] == '.' {
					dt = rdf.XSDDecimal
				}
				j++
			}
			toks = append(toks, token{kind: "number", text: text[i:j], dt: dt})
			i = j
		case unicode.IsLetter(c) || c == '_' || c == ':':
			// A keyword, or a prefixed name; the empty prefix (":local")
			// is one too.
			j := nameEnd(text, i+size, true)
			toks = append(toks, token{kind: "ident", text: text[i:j]})
			i = j
		case strings.ContainsRune("{}().,;*", c):
			toks = append(toks, token{kind: "punct", text: string(c)})
			i++
		case strings.ContainsRune("=<>!&|", c):
			j := i + 1
			for j < n && strings.ContainsRune("=<>&|", rune(text[j])) {
				j++
			}
			toks = append(toks, token{kind: "punct", text: text[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("sparql: unexpected character %q", c)
		}
	}
	return toks, nil
}

// pnChars holds the characters past ASCII that §19.8's PN_CHARS (and so
// VARNAME) allows: PN_CHARS_BASE, U+00B7, the combining marks
// U+0300–U+036F and U+203F–U+2040.
var pnChars = &unicode.RangeTable{
	R16: []unicode.Range16{
		{Lo: 0x00B7, Hi: 0x00B7, Stride: 1},
		{Lo: 0x00C0, Hi: 0x00D6, Stride: 1},
		{Lo: 0x00D8, Hi: 0x00F6, Stride: 1},
		{Lo: 0x00F8, Hi: 0x037D, Stride: 1},
		{Lo: 0x037F, Hi: 0x1FFF, Stride: 1},
		{Lo: 0x200C, Hi: 0x200D, Stride: 1},
		{Lo: 0x203F, Hi: 0x2040, Stride: 1},
		{Lo: 0x2070, Hi: 0x218F, Stride: 1},
		{Lo: 0x2C00, Hi: 0x2FEF, Stride: 1},
		{Lo: 0x3001, Hi: 0xD7FF, Stride: 1},
		{Lo: 0xF900, Hi: 0xFDCF, Stride: 1},
		{Lo: 0xFDF0, Hi: 0xFFFD, Stride: 1},
	},
	R32: []unicode.Range32{{Lo: 0x10000, Hi: 0xEFFFF, Stride: 1}},
}

// isNameChar reports whether r may continue a variable name (§19.8
// VARNAME: PN_CHARS_U, digits and pnChars; no '-' and no '.').
func isNameChar(r rune) bool {
	if r < utf8.RuneSelf {
		return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
	}
	return unicode.Is(pnChars, r)
}

// nameEnd returns the end of the name whose characters start at i: a
// variable's, or with prefixed set a keyword's or prefixed name's,
// which may also hold ':', '-' and '.'. A name does not end in '.'
// (§19.8 PN_LOCAL), so a dot right after one ends the triple.
func nameEnd(text string, i int, prefixed bool) int {
	j := i
	for j < len(text) {
		r, size := utf8.DecodeRuneInString(text[j:])
		if !isNameChar(r) && !(prefixed && strings.ContainsRune(":-.", r)) {
			break
		}
		j += size
	}
	for j > i && text[j-1] == '.' {
		j--
	}
	return j
}

func unquote(s string) (string, string, error) {
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("sparql: dangling escape")
			}
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return "", "", fmt.Errorf("sparql: bad escape \\%c", s[i+1])
			}
			i += 2
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", "", fmt.Errorf("sparql: unterminated string")
}

type parser struct {
	toks     []token
	pos      int
	prefixes map[string]string
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token {
	if p.done() {
		return token{kind: "eof"}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == "ident" && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sparql: expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == "punct" && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("sparql: expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	for p.acceptKeyword("PREFIX") {
		name := p.next()
		if name.kind != "ident" || !strings.HasSuffix(name.text, ":") {
			return nil, fmt.Errorf("sparql: bad prefix name %q", name.text)
		}
		iri := p.next()
		if iri.kind != "iri" {
			return nil, fmt.Errorf("sparql: bad prefix IRI %q", iri.text)
		}
		p.prefixes[strings.TrimSuffix(name.text, ":")] = iri.text
	}

	q := &Query{Limit: -1}
	switch {
	case p.acceptKeyword("SELECT"):
		q.Form = FormSelect
		q.Distinct = p.acceptKeyword("DISTINCT")
		if p.acceptPunct("*") {
			// SELECT * — projection stays empty.
		} else {
			for {
				t := p.peek()
				if t.kind == "var" {
					p.next()
					q.Projection = append(q.Projection, Var(t.text))
					continue
				}
				if t.kind == "ident" && isAggName(t.text) {
					agg, err := p.parseAggregate()
					if err != nil {
						return nil, err
					}
					if q.Agg != nil {
						return nil, fmt.Errorf("sparql: only one aggregate supported")
					}
					q.Agg = agg
					q.Projection = append(q.Projection, agg.As)
					continue
				}
				if t.kind == "punct" && t.text == "(" {
					// (AGG(?x) AS ?alias)
					p.next()
					agg, err := p.parseAggregate()
					if err != nil {
						return nil, err
					}
					if err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					if q.Agg != nil {
						return nil, fmt.Errorf("sparql: only one aggregate supported")
					}
					q.Agg = agg
					q.Projection = append(q.Projection, agg.As)
					continue
				}
				break
			}
			if len(q.Projection) == 0 {
				return nil, fmt.Errorf("sparql: empty SELECT list")
			}
		}
	case p.acceptKeyword("CONSTRUCT"):
		q.Form = FormConstruct
		tmpl, err := p.parseTemplate()
		if err != nil {
			return nil, err
		}
		q.Template = tmpl
	case p.acceptKeyword("DESCRIBE"):
		q.Form = FormDescribe
		for {
			t := p.peek()
			if t.kind == "var" {
				p.next()
				q.Describe = append(q.Describe, VarElem(Var(t.text)))
				continue
			}
			if t.kind == "iri" {
				p.next()
				q.Describe = append(q.Describe, TermElem(rdf.NewIRI(t.text)))
				continue
			}
			break
		}
		if len(q.Describe) == 0 {
			return nil, fmt.Errorf("sparql: DESCRIBE needs at least one resource or variable")
		}
	case p.acceptKeyword("ASK"):
		q.Form = FormAsk
	default:
		return nil, fmt.Errorf("sparql: expected SELECT or ASK, got %q", p.peek().text)
	}

	switch q.Form {
	case FormAsk:
		p.acceptKeyword("WHERE") // optional for ASK
	case FormDescribe:
		// WHERE is optional for DESCRIBE <iri>.
		if !p.acceptKeyword("WHERE") {
			if t := p.peek(); !(t.kind == "punct" && t.text == "{") {
				q.Where = BGP{}
				return q, nil
			}
		}
	default:
		p.acceptKeyword("WHERE") // optional (§19.8 WhereClause)
	}
	where, err := p.parseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Where = where

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if q.Agg == nil {
			return nil, fmt.Errorf("sparql: GROUP BY without aggregate")
		}
		for p.peek().kind == "var" {
			q.Agg.Group = append(q.Agg.Group, Var(p.next().text))
		}
		if len(q.Agg.Group) == 0 {
			return nil, fmt.Errorf("sparql: empty GROUP BY")
		}
	}
	if q.Agg != nil && (slices.Contains(q.Where.PatternVars(), q.Agg.As) || slices.Contains(q.Agg.Group, q.Agg.As)) {
		return nil, &ScopeError{Var: q.Agg.As}
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t := p.peek()
			if t.kind == "var" {
				p.next()
				q.OrderBy = append(q.OrderBy, OrderKey{Var: Var(t.text), Asc: true})
				continue
			}
			if t.kind == "ident" && (strings.EqualFold(t.text, "ASC") || strings.EqualFold(t.text, "DESC")) {
				asc := strings.EqualFold(t.text, "ASC")
				p.next()
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				v := p.next()
				if v.kind != "var" {
					return nil, fmt.Errorf("sparql: expected variable in ORDER BY, got %q", v.text)
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Var: Var(v.text), Asc: asc})
				continue
			}
			break
		}
		if len(q.OrderBy) == 0 {
			return nil, fmt.Errorf("sparql: empty ORDER BY")
		}
	}

	if p.acceptKeyword("LIMIT") {
		n, err := p.parseCount("LIMIT")
		if err != nil {
			return nil, err
		}
		q.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseCount("OFFSET")
		if err != nil {
			return nil, err
		}
		q.Offset = n
	}
	return q, nil
}

// ScopeError is the query error of an aggregate alias that is already
// in scope: a variable of the WHERE pattern or of the GROUP BY
// (SPARQL 1.1 §18.2.1).
type ScopeError struct{ Var Var }

func (e *ScopeError) Error() string {
	return "sparql: alias ?" + string(e.Var) + " is already in scope"
}

// parseCount parses the non-negative integer argument of LIMIT/OFFSET.
// The lexer's number token also admits decimals and negative numbers
// (needed for FILTER literals), so the value is validated here instead
// of being silently truncated.
func (p *parser) parseCount(clause string) (int, error) {
	t := p.next()
	if t.kind != "number" {
		return 0, fmt.Errorf("sparql: expected number after %s, got %q", clause, t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("sparql: bad %s value %q: %v", clause, t.text, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("sparql: negative %s value %q", clause, t.text)
	}
	return n, nil
}

func isAggName(s string) bool {
	switch strings.ToUpper(s) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// parseAggregate parses AGG(?v | *) [AS ?alias].
func (p *parser) parseAggregate() (*Aggregate, error) {
	fn := strings.ToUpper(p.next().text)
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	agg := &Aggregate{Fn: fn, As: Var(strings.ToLower(fn))}
	if p.acceptPunct("*") {
		if fn != "COUNT" {
			return nil, fmt.Errorf("sparql: %s(*) is not defined", fn)
		}
	} else {
		v := p.next()
		if v.kind != "var" {
			return nil, fmt.Errorf("sparql: expected variable in %s(), got %q", fn, v.text)
		}
		agg.Var = Var(v.text)
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("AS") {
		v := p.next()
		if v.kind != "var" {
			return nil, fmt.Errorf("sparql: expected alias variable, got %q", v.text)
		}
		agg.As = Var(v.text)
	}
	return agg, nil
}

// parseTemplate parses the CONSTRUCT template: a brace-enclosed list
// of triple patterns (no FILTER/OPTIONAL/UNION allowed).
func (p *parser) parseTemplate() ([]TriplePattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []TriplePattern
	for {
		t := p.peek()
		if t.kind == "punct" && t.text == "}" {
			p.next()
			if len(out) == 0 {
				return nil, fmt.Errorf("sparql: empty CONSTRUCT template")
			}
			return out, nil
		}
		if t.kind == "punct" && t.text == "." {
			p.next()
			continue
		}
		if t.kind == "eof" {
			return nil, fmt.Errorf("sparql: unterminated CONSTRUCT template")
		}
		tps, err := p.parseTriplePattern()
		if err != nil {
			return nil, err
		}
		out = append(out, tps...)
	}
}

// parseGroupGraphPattern parses { ... }.
func (p *parser) parseGroupGraphPattern() (GraphPattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var parts []GraphPattern
	var bgp []TriplePattern
	flush := func() {
		if len(bgp) > 0 {
			parts = append(parts, BGP{Patterns: bgp})
			bgp = nil
		}
	}
	for {
		t := p.peek()
		switch {
		case t.kind == "punct" && t.text == "}":
			p.next()
			flush()
			switch len(parts) {
			case 0:
				return BGP{}, nil
			case 1:
				return parts[0], nil
			default:
				return Group{Parts: parts}, nil
			}
		case t.kind == "ident" && strings.EqualFold(t.text, "FILTER"):
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			cond, err := p.parseFilterExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			flush()
			// FILTER scopes over the group evaluated so far.
			var inner GraphPattern
			switch len(parts) {
			case 0:
				inner = BGP{}
			case 1:
				inner = parts[0]
			default:
				inner = Group{Parts: parts}
			}
			parts = []GraphPattern{Filter{Inner: inner, Cond: cond}}
		case t.kind == "ident" && strings.EqualFold(t.text, "OPTIONAL"):
			p.next()
			right, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			flush()
			var left GraphPattern
			switch len(parts) {
			case 0:
				left = BGP{}
			case 1:
				left = parts[0]
			default:
				left = Group{Parts: parts}
			}
			parts = []GraphPattern{Optional{Left: left, Right: right}}
		case t.kind == "punct" && t.text == "{":
			sub, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			if p.acceptKeyword("UNION") {
				right, err := p.parseGroupGraphPattern()
				if err != nil {
					return nil, err
				}
				sub = Union{Left: sub, Right: right}
				for p.acceptKeyword("UNION") {
					more, err := p.parseGroupGraphPattern()
					if err != nil {
						return nil, err
					}
					sub = Union{Left: sub, Right: more}
				}
			}
			flush()
			parts = append(parts, sub)
		case t.kind == "punct" && t.text == ".":
			p.next()
		case t.kind == "eof":
			return nil, fmt.Errorf("sparql: unterminated group pattern")
		default:
			tp, err := p.parseTriplePattern()
			if err != nil {
				return nil, err
			}
			bgp = append(bgp, tp...)
		}
	}
}

// parseTriplePattern parses s p o (with ; and , continuations).
func (p *parser) parseTriplePattern() ([]TriplePattern, error) {
	s, err := p.parseElem(false)
	if err != nil {
		return nil, err
	}
	var out []TriplePattern
	for {
		pr, err := p.parseElem(true)
		if err != nil {
			return nil, err
		}
		for {
			o, err := p.parseElem(false)
			if err != nil {
				return nil, err
			}
			out = append(out, TriplePattern{S: s, P: pr, O: o})
			if !p.acceptPunct(",") {
				break
			}
		}
		if !p.acceptPunct(";") {
			break
		}
	}
	return out, nil
}

// parseElem parses a variable or constant; predicate position allows
// the keyword "a" as rdf:type.
func (p *parser) parseElem(predicate bool) (TPElem, error) {
	t := p.next()
	switch t.kind {
	case "var":
		return VarElem(Var(t.text)), nil
	case "iri":
		return TermElem(rdf.NewIRI(t.text)), nil
	case "literal":
		if t.lang != "" {
			return TermElem(rdf.NewLangLiteral(t.text, t.lang)), nil
		}
		if t.dt != "" {
			return TermElem(rdf.NewTypedLiteral(t.text, t.dt)), nil
		}
		return TermElem(rdf.NewLiteral(t.text)), nil
	case "number":
		return TermElem(rdf.NewTypedLiteral(t.text, t.dt)), nil
	case "ident":
		if predicate && t.text == "a" {
			return TermElem(rdf.NewIRI(rdf.RDFType)), nil
		}
		if pfx, local, ok := strings.Cut(t.text, ":"); ok {
			base, known := p.prefixes[pfx]
			if !known {
				return TPElem{}, fmt.Errorf("sparql: unknown prefix %q", pfx)
			}
			return TermElem(rdf.NewIRI(base + local)), nil
		}
		return TPElem{}, fmt.Errorf("sparql: unexpected identifier %q in pattern", t.text)
	default:
		return TPElem{}, fmt.Errorf("sparql: unexpected token %q in pattern", t.text)
	}
}

// parseFilterExpr parses ||-level filter expressions.
func (p *parser) parseFilterExpr() (FilterExpr, error) {
	left, err := p.parseFilterAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("||") {
		right, err := p.parseFilterAnd()
		if err != nil {
			return nil, err
		}
		left = LogicalOr{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseFilterAnd() (FilterExpr, error) {
	left, err := p.parseFilterUnary()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("&&") {
		right, err := p.parseFilterUnary()
		if err != nil {
			return nil, err
		}
		left = LogicalAnd{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseFilterUnary() (FilterExpr, error) {
	if p.acceptPunct("!") {
		e, err := p.parseFilterUnary()
		if err != nil {
			return nil, err
		}
		return LogicalNot{E: e}, nil
	}
	if p.acceptPunct("(") {
		e, err := p.parseFilterExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	if t := p.peek(); t.kind == "ident" && strings.EqualFold(t.text, "BOUND") {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		v := p.next()
		if v.kind != "var" {
			return nil, fmt.Errorf("sparql: expected variable in BOUND(), got %q", v.text)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return Bound{Var: Var(v.text)}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (FilterExpr, error) {
	l, err := p.parseElem(false)
	if err != nil {
		return nil, err
	}
	op := p.next()
	if op.kind != "punct" {
		return nil, fmt.Errorf("sparql: expected comparison operator, got %q", op.text)
	}
	switch op.text {
	case "=", "==", "!=", "<", "<=", ">", ">=":
	default:
		return nil, fmt.Errorf("sparql: bad operator %q", op.text)
	}
	opText := op.text
	if opText == "==" {
		opText = "="
	}
	r, err := p.parseElem(false)
	if err != nil {
		return nil, err
	}
	return Comparison{Op: opText, L: l, R: r}, nil
}
