package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// ParseSQL parses a SQL subset into a logical plan:
//
//	SELECT list FROM source {JOIN source [ON col]} [WHERE expr]
//
// where list is * or columns ("c" / "c AS x"), source is a table name
// or a parenthesized subquery with an alias, and expr compares columns
// and string literals under AND / OR. Bare JOIN is a natural join on
// all shared columns — exactly the form S2RDF emits for SPARQL BGPs.
func ParseSQL(text string) (Plan, error) {
	toks, err := lexSQL(text)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	plan, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.done() {
		return nil, fmt.Errorf("sql: trailing input at %q", p.peek().text)
	}
	return plan, nil
}

type sqlToken struct {
	kind string // "ident", "string", "punct"
	text string
}

func lexSQL(text string) ([]sqlToken, error) {
	var toks []sqlToken
	i := 0
	for i < len(text) {
		c := rune(text[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			var b strings.Builder
			for j < len(text) {
				if text[j] == '\'' {
					if j+1 < len(text) && text[j+1] == '\'' { // escaped quote
						b.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				b.WriteByte(text[j])
				j++
			}
			if j >= len(text) {
				return nil, fmt.Errorf("sql: unterminated string literal")
			}
			toks = append(toks, sqlToken{"string", b.String()})
			i = j + 1
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < len(text) && (unicode.IsLetter(rune(text[j])) || unicode.IsDigit(rune(text[j])) || text[j] == '_' || text[j] == '.') {
				j++
			}
			toks = append(toks, sqlToken{"ident", text[i:j]})
			i = j
		case strings.ContainsRune("(),*", c):
			toks = append(toks, sqlToken{"punct", string(c)})
			i++
		case strings.ContainsRune("=<>!", c):
			j := i + 1
			if j < len(text) && strings.ContainsRune("=<>", rune(text[j])) {
				j++
			}
			toks = append(toks, sqlToken{"punct", text[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("sql: unexpected character %q", c)
		}
	}
	return toks, nil
}

type sqlParser struct {
	toks []sqlToken
	pos  int
}

func (p *sqlParser) done() bool { return p.pos >= len(p.toks) }

func (p *sqlParser) peek() sqlToken {
	if p.done() {
		return sqlToken{"eof", ""}
	}
	return p.toks[p.pos]
}

func (p *sqlParser) next() sqlToken {
	t := p.peek()
	p.pos++
	return t
}

func (p *sqlParser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == "ident" && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *sqlParser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == "punct" && t.text == s {
		p.pos++
		return true
	}
	return false
}

type selectItem struct {
	col   string // column name or "*"
	alias string
}

func (p *sqlParser) parseQuery() (Plan, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	items, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	plan, err := p.parseSource()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("JOIN") {
		right, err := p.parseSource()
		if err != nil {
			return nil, err
		}
		var on []string
		if p.acceptKeyword("ON") {
			a := p.next()
			if a.kind != "ident" {
				return nil, fmt.Errorf("sql: expected column in ON, got %q", a.text)
			}
			if p.acceptPunct("=") {
				b := p.next()
				if b.kind != "ident" {
					return nil, fmt.Errorf("sql: expected column after =, got %q", b.text)
				}
				if a.text != b.text {
					return nil, fmt.Errorf("sql: ON %s = %s with different names is unsupported; alias the columns first", a.text, b.text)
				}
			}
			on = []string{a.text}
		}
		plan = &JoinNode{Left: plan, Right: right, On: on, Strategy: JoinAuto}
	}

	if p.acceptKeyword("WHERE") {
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		plan = &FilterNode{Input: plan, Pred: pred}
	}

	if !(len(items) == 1 && items[0].col == "*") {
		cols := make([]string, len(items))
		for i, it := range items {
			if it.alias != "" {
				cols[i] = it.col + " AS " + it.alias
			} else {
				cols[i] = it.col
			}
		}
		plan = &Project{Input: plan, Cols: cols}
	}
	return plan, nil
}

func (p *sqlParser) parseSelectList() ([]selectItem, error) {
	if p.acceptPunct("*") {
		return []selectItem{{col: "*"}}, nil
	}
	var items []selectItem
	for {
		t := p.next()
		if t.kind != "ident" {
			return nil, fmt.Errorf("sql: expected select item, got %q", t.text)
		}
		item := selectItem{col: t.text}
		if p.acceptKeyword("AS") {
			at := p.next()
			if at.kind != "ident" {
				return nil, fmt.Errorf("sql: expected alias, got %q", at.text)
			}
			item.alias = at.text
		}
		items = append(items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	return items, nil
}

func (p *sqlParser) parseSource() (Plan, error) {
	if p.acceptPunct("(") {
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if !p.acceptPunct(")") {
			return nil, fmt.Errorf("sql: expected ) after subquery")
		}
		// Optional alias; subqueries are positional so the alias is
		// accepted and discarded.
		if p.acceptKeyword("AS") {
			p.next()
		} else if t := p.peek(); t.kind == "ident" && !isClauseKeyword(t.text) {
			p.next()
		}
		return sub, nil
	}
	t := p.next()
	if t.kind != "ident" {
		return nil, fmt.Errorf("sql: expected table name, got %q", t.text)
	}
	return &Scan{Table: t.text}, nil
}

func isClauseKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "JOIN", "WHERE", "ON":
		return true
	}
	return false
}

// parseExpr parses OR-level expressions.
func (p *sqlParser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = BinOp{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = BinOp{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *sqlParser) parseUnary() (Expr, error) {
	if p.acceptPunct("(") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptPunct(")") {
			return nil, fmt.Errorf("sql: expected )")
		}
		return e, nil
	}
	return p.parseComparison()
}

func (p *sqlParser) parseComparison() (Expr, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != "punct" {
		return nil, fmt.Errorf("sql: expected comparison operator, got %q", t.text)
	}
	switch t.text {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		p.next()
	default:
		return nil, fmt.Errorf("sql: bad operator %q", t.text)
	}
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return BinOp{Op: t.text, L: left, R: right}, nil
}

func (p *sqlParser) parseOperand() (Expr, error) {
	t := p.next()
	switch t.kind {
	case "ident":
		return Col{Name: t.text}, nil
	case "string":
		return Lit{Value: t.text}, nil
	default:
		return nil, fmt.Errorf("sql: bad operand %q", t.text)
	}
}
