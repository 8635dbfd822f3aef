package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadNTriples reads an N-Triples document — one triple per line,
// "#"-comments and blank lines ignored — and hands each triple to fn as
// it is parsed, so a loader can stream a file into a store without the
// whole document ever existing as a slice. It implements the subset
// used by the benchmark generators (full IRI/literal/blank syntax with
// \-escapes, language tags, and datatypes). A non-nil error from fn
// stops the read and is returned as is. The strings of a triple handed
// to fn may share memory with its input line; a consumer that keeps
// terms beyond the call should own them (Dictionary does).
//
// The document is scanned and parsed on a goroutine of its own, which
// hands readBatch triples at a time to the caller's goroutine; fn is
// called there, serially and in document order. That goroutine has
// exited, and reads r no more, by the time ReadNTriples returns.
func ReadNTriples(r io.Reader, fn func(Triple) error) error {
	full, empty, stop := make(chan []Triple, 1), make(chan []Triple, 3), make(chan struct{})
	var perr error
	go func() {
		defer close(full)
		perr = parseBatches(r, full, empty, stop)
	}()
	defer func() {
		close(stop)
		for range full {
		}
	}()
	for batch := range full {
		for _, t := range batch {
			if err := fn(t); err != nil {
				return err
			}
		}
		empty <- batch[:0]
	}
	return perr
}

// readBatch is how many triples the parser hands over at once.
const readBatch = 512

// parseBatches sends the triples on full in batches until the document
// ends, a line fails, or stop is closed (then the caller drains full).
// At most three batches exist, so handing one back on empty never blocks.
func parseBatches(r io.Reader, full chan<- []Triple, empty <-chan []Triple, stop <-chan struct{}) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	batch := make([]Triple, 0, readBatch)
	lineNo := 0
	for sc.Scan() {
		select {
		case <-stop:
			return nil
		default:
		}
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseTripleLine(line)
		if err != nil {
			full <- batch
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if batch = append(batch, t); len(batch) < readBatch {
			continue
		}
		full <- batch
		select {
		case batch = <-empty:
		default:
			batch = make([]Triple, 0, readBatch)
		}
	}
	full <- batch
	return sc.Err()
}

// ParseNTriples is ReadNTriples collecting the document into a slice.
func ParseNTriples(r io.Reader) ([]Triple, error) {
	var out []Triple
	err := ReadNTriples(r, func(t Triple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ParseTripleLine parses a single N-Triples statement, with or without
// the trailing dot.
func ParseTripleLine(line string) (Triple, error) {
	p := &ntParser{s: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if p.i < len(p.s) && p.s[p.i] == '.' {
		p.i++
	}
	p.skipSpace()
	if p.i < len(p.s) {
		return Triple{}, fmt.Errorf("trailing input %q", p.s[p.i:])
	}
	t := Triple{S: s, P: pr, O: o}
	if err := t.Validate(); err != nil {
		return Triple{}, err
	}
	return t, nil
}

type ntParser struct {
	s string
	i int
}

func (p *ntParser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.s[p.i] {
	case '<':
		end := strings.IndexByte(p.s[p.i:], '>')
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated IRI")
		}
		iri := p.s[p.i+1 : p.i+end]
		p.i += end + 1
		return NewIRI(iri), nil
	case '_':
		if p.i+1 >= len(p.s) || p.s[p.i+1] != ':' {
			return Term{}, fmt.Errorf("bad blank node")
		}
		j := p.i + 2
		for j < len(p.s) && p.s[j] != ' ' && p.s[j] != '\t' {
			j++
		}
		label := p.s[p.i+2 : j]
		if label == "" {
			return Term{}, fmt.Errorf("empty blank node label")
		}
		p.i = j
		return NewBlank(label), nil
	case '"':
		val, rest, err := unescapeQuoted(p.s[p.i:])
		if err != nil {
			return Term{}, err
		}
		p.i = len(p.s) - len(rest)
		// Optional language tag or datatype.
		if p.i < len(p.s) && p.s[p.i] == '@' {
			j := p.i + 1
			for j < len(p.s) && p.s[j] != ' ' && p.s[j] != '\t' {
				j++
			}
			lang := p.s[p.i+1 : j]
			p.i = j
			return NewLangLiteral(val, lang), nil
		}
		if strings.HasPrefix(p.s[p.i:], "^^<") {
			end := strings.IndexByte(p.s[p.i+3:], '>')
			if end < 0 {
				return Term{}, fmt.Errorf("unterminated datatype IRI")
			}
			dt := p.s[p.i+3 : p.i+3+end]
			p.i += 3 + end + 1
			return NewTypedLiteral(val, dt), nil
		}
		return NewLiteral(val), nil
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.s[p.i])
	}
}

// unescapeQuoted consumes a double-quoted string with \-escapes and
// returns the value and the remaining input. A value without escapes
// is a substring of s.
func unescapeQuoted(s string) (string, string, error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected quote")
	}
	if end := strings.IndexAny(s[1:], `"\`) + 1; end > 0 && s[end] == '"' {
		return s[1:end], s[end+1:], nil
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		if c == '"' {
			return b.String(), s[i+1:], nil
		}
		if c == '\\' {
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return "", "", fmt.Errorf("bad escape \\%c", s[i+1])
			}
			i += 2
			continue
		}
		b.WriteByte(c)
		i++
	}
	return "", "", fmt.Errorf("unterminated string")
}

// WriteNTriples serializes triples in N-Triples syntax, one per line.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if _, err := bw.WriteString(t.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
