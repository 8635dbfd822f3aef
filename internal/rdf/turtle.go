package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode"
)

// ParseTurtle reads a Turtle document covering the subset real-world
// RDF dumps use: @prefix/@base directives (and their SPARQL-style
// PREFIX/BASE forms), prefixed names, the 'a' keyword, predicate lists
// with ';', object lists with ',', quoted literals with language tags,
// datatypes and \-escapes, integer/decimal/boolean shorthand, and
// blank nodes (_:label). Collections and blank-node property lists are
// not supported.
func ParseTurtle(r io.Reader) ([]Triple, error) {
	br := bufio.NewReader(r)
	raw, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	p := &turtleParser{src: string(raw), prefixes: map[string]string{}}
	return p.parse()
}

type turtleParser struct {
	src      string
	pos      int
	line     int
	prefixes map[string]string
	base     string
}

func (p *turtleParser) errf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d: %s", p.line+1, fmt.Sprintf(format, args...))
}

func (p *turtleParser) parse() ([]Triple, error) {
	var out []Triple
	for {
		p.skipWS()
		if p.eof() {
			return out, nil
		}
		if p.acceptDirective() {
			if err := p.parseDirective(); err != nil {
				return nil, err
			}
			continue
		}
		triples, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, triples...)
	}
}

func (p *turtleParser) eof() bool { return p.pos >= len(p.src) }

func (p *turtleParser) skipWS() {
	for !p.eof() {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '#':
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

// acceptDirective peeks for @prefix/@base/PREFIX/BASE.
func (p *turtleParser) acceptDirective() bool {
	rest := p.src[p.pos:]
	for _, d := range []string{"@prefix", "@base", "PREFIX", "BASE", "prefix", "base"} {
		if strings.HasPrefix(rest, d) {
			return true
		}
	}
	return false
}

func (p *turtleParser) parseDirective() error {
	atForm := p.src[p.pos] == '@'
	word := p.readWord()
	word = strings.TrimPrefix(strings.ToLower(word), "@")
	switch word {
	case "prefix":
		p.skipWS()
		name := p.readWord()
		if !strings.HasSuffix(name, ":") {
			return p.errf("prefix name %q must end with ':'", name)
		}
		p.skipWS()
		iri, err := p.parseIRIRef()
		if err != nil {
			return err
		}
		p.prefixes[strings.TrimSuffix(name, ":")] = iri
	case "base":
		p.skipWS()
		iri, err := p.parseIRIRef()
		if err != nil {
			return err
		}
		p.base = iri
	default:
		return p.errf("unknown directive %q", word)
	}
	p.skipWS()
	if atForm {
		if p.eof() || p.src[p.pos] != '.' {
			return p.errf("@-directive must end with '.'")
		}
		p.pos++
	} else if !p.eof() && p.src[p.pos] == '.' {
		p.pos++ // tolerate the dot on SPARQL-form directives too
	}
	return nil
}

func (p *turtleParser) readWord() string {
	start := p.pos
	for !p.eof() {
		c := rune(p.src[p.pos])
		if unicode.IsSpace(c) || c == '<' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

// parseStatement parses subject predicateObjectList '.'.
func (p *turtleParser) parseStatement() ([]Triple, error) {
	subject, err := p.parseTerm(false)
	if err != nil {
		return nil, err
	}
	var out []Triple
	for {
		p.skipWS()
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		for {
			p.skipWS()
			obj, err := p.parseTerm(true)
			if err != nil {
				return nil, err
			}
			t := Triple{S: subject, P: pred, O: obj}
			if err := t.Validate(); err != nil {
				return nil, p.errf("%v", err)
			}
			out = append(out, t)
			p.skipWS()
			if !p.eof() && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		p.skipWS()
		if p.eof() {
			return nil, p.errf("unexpected end of input in statement")
		}
		switch p.src[p.pos] {
		case ';':
			p.pos++
			p.skipWS()
			// A trailing ';' before '.' is legal Turtle.
			if !p.eof() && p.src[p.pos] == '.' {
				p.pos++
				return out, nil
			}
			continue
		case '.':
			p.pos++
			return out, nil
		default:
			return nil, p.errf("expected ';' or '.', got %q", p.src[p.pos])
		}
	}
}

func (p *turtleParser) parsePredicate() (Term, error) {
	if !p.eof() && p.src[p.pos] == 'a' {
		// 'a' keyword only when followed by whitespace.
		if p.pos+1 < len(p.src) && unicode.IsSpace(rune(p.src[p.pos+1])) {
			p.pos++
			return NewIRI(RDFType), nil
		}
	}
	return p.parseTerm(false)
}

// parseTerm parses an IRI, prefixed name, blank node, or (when
// allowLiteral) a literal.
func (p *turtleParser) parseTerm(allowLiteral bool) (Term, error) {
	p.skipWS()
	if p.eof() {
		return Term{}, p.errf("unexpected end of input")
	}
	switch c := p.src[p.pos]; {
	case c == '<':
		iri, err := p.parseIRIRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case c == '_':
		if p.pos+1 >= len(p.src) || p.src[p.pos+1] != ':' {
			return Term{}, p.errf("bad blank node")
		}
		p.pos += 2
		start := p.pos
		for !p.eof() && isPNChar(rune(p.src[p.pos])) {
			p.pos++
		}
		if p.pos == start {
			return Term{}, p.errf("empty blank node label")
		}
		return NewBlank(p.src[start:p.pos]), nil
	case c == '"':
		if !allowLiteral {
			return Term{}, p.errf("literal not allowed here")
		}
		return p.parseLiteral()
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		if !allowLiteral {
			return Term{}, p.errf("number not allowed here")
		}
		return p.parseNumber()
	default:
		// Prefixed name or boolean.
		word := p.readName()
		if word == "true" || word == "false" {
			if !allowLiteral {
				return Term{}, p.errf("boolean not allowed here")
			}
			return NewTypedLiteral(word, "http://www.w3.org/2001/XMLSchema#boolean"), nil
		}
		pfx, local, ok := strings.Cut(word, ":")
		if !ok {
			return Term{}, p.errf("expected term, got %q", word)
		}
		basePart, known := p.prefixes[pfx]
		if !known {
			return Term{}, p.errf("unknown prefix %q", pfx)
		}
		return NewIRI(basePart + local), nil
	}
}

func isPNChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.'
}

func (p *turtleParser) readName() string {
	start := p.pos
	for !p.eof() {
		c := rune(p.src[p.pos])
		if unicode.IsSpace(c) || strings.ContainsRune(";,.<>\"'", c) {
			// A '.' might be part of the name (foo.bar) or the statement
			// terminator; treat '.' followed by whitespace/EOF as the
			// terminator.
			if c == '.' && p.pos+1 < len(p.src) && isPNChar(rune(p.src[p.pos+1])) {
				p.pos++
				continue
			}
			break
		}
		if c == ':' || isPNChar(c) {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *turtleParser) parseIRIRef() (string, error) {
	if p.eof() || p.src[p.pos] != '<' {
		return "", p.errf("expected '<'")
	}
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		return "", p.errf("unterminated IRI")
	}
	iri := p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	if p.base != "" && !strings.Contains(iri, "://") && !strings.HasPrefix(iri, "urn:") {
		iri = p.base + iri
	}
	return iri, nil
}

func (p *turtleParser) parseLiteral() (Term, error) {
	val, rest, err := unescapeQuoted(p.src[p.pos:])
	if err != nil {
		return Term{}, p.errf("%v", err)
	}
	p.pos = len(p.src) - len(rest)
	if !p.eof() && p.src[p.pos] == '@' {
		p.pos++
		start := p.pos
		for !p.eof() && (unicode.IsLetter(rune(p.src[p.pos])) || p.src[p.pos] == '-') {
			p.pos++
		}
		return NewLangLiteral(val, p.src[start:p.pos]), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.pos += 2
		dt, err := p.parseTerm(false)
		if err != nil {
			return Term{}, err
		}
		if !dt.IsIRI() {
			return Term{}, p.errf("datatype must be an IRI")
		}
		return NewTypedLiteral(val, dt.Value), nil
	}
	return NewLiteral(val), nil
}

func (p *turtleParser) parseNumber() (Term, error) {
	start := p.pos
	if p.src[p.pos] == '+' || p.src[p.pos] == '-' {
		p.pos++
	}
	sawDot := false
	for !p.eof() {
		c := p.src[p.pos]
		if c >= '0' && c <= '9' {
			p.pos++
			continue
		}
		if c == '.' && !sawDot && p.pos+1 < len(p.src) && p.src[p.pos+1] >= '0' && p.src[p.pos+1] <= '9' {
			sawDot = true
			p.pos++
			continue
		}
		break
	}
	text := p.src[start:p.pos]
	if text == "" || text == "+" || text == "-" {
		return Term{}, p.errf("bad number")
	}
	if sawDot {
		return NewTypedLiteral(text, XSDDecimal), nil
	}
	return NewTypedLiteral(text, XSDInteger), nil
}
