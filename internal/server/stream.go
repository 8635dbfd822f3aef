package server

import (
	"bufio"
	"context"
	"io"
	"net/http"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// The streaming writers serialize a Solutions row by row: each
// surviving id-space row is decoded term by term (Solutions.Term)
// straight into the response buffer, so a million-row result never
// exists as []Binding — the only per-query allocations are the reused
// scratch buffer and the bufio window. Rows already written cannot be
// unwritten, so mid-stream cancellation truncates the response; the
// periodic context check bounds how much work a disconnected client
// can still cost.

// streamFlushEvery is how many rows are written between explicit
// flushes (and context checks) while streaming.
const streamFlushEvery = 512

// checkStream polls the context and flushes the buffered window every
// streamFlushEvery rows, so long results reach slow readers
// incrementally and abandoned queries stop consuming the worker slot.
func checkStream(ctx context.Context, bw *bufio.Writer, under io.Writer, row int) error {
	if row%streamFlushEvery != 0 || row == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if f, ok := under.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// jsonClean[c] reports that byte c passes through a JSON string literal
// unescaped: everything but the control bytes, '"' and '\\'.
var jsonClean = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendJSONString appends s as a JSON string literal (quoted and
// escaped) to buf. UTF-8 passes through unescaped, which JSON allows.
// Runs of bytes that need no escaping are appended whole: term values
// are almost entirely such runs, and this is the hottest function of
// result streaming.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if jsonClean[c] {
			continue
		}
		buf = append(buf, s[start:i]...)
		start = i + 1
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendJSONTerm appends one RDF term in SPARQL 1.1 Query Results JSON
// form: {"type":...,"value":...[,"xml:lang":...][,"datatype":...]}.
func appendJSONTerm(buf []byte, t rdf.Term) []byte {
	buf = append(buf, `{"type":`...)
	switch {
	case t.IsIRI():
		buf = append(buf, `"uri"`...)
	case t.IsBlank():
		buf = append(buf, `"bnode"`...)
	default:
		buf = append(buf, `"literal"`...)
	}
	buf = append(buf, `,"value":`...)
	buf = appendJSONString(buf, t.Value)
	if t.Lang != "" {
		buf = append(buf, `,"xml:lang":`...)
		buf = appendJSONString(buf, t.Lang)
	}
	if t.Datatype != "" {
		buf = append(buf, `,"datatype":`...)
		buf = appendJSONString(buf, t.Datatype)
	}
	return append(buf, '}')
}

// writeJSONResults streams sol as a SPARQL 1.1 Query Results JSON
// document (application/sparql-results+json).
func writeJSONResults(ctx context.Context, w io.Writer, sol *sparql.Solutions) error {
	bw := bufio.NewWriter(w)
	if sol.IsAsk() {
		if sol.Ask() {
			bw.WriteString(`{"head":{},"boolean":true}` + "\n")
		} else {
			bw.WriteString(`{"head":{},"boolean":false}` + "\n")
		}
		return bw.Flush()
	}
	vars := sol.Vars()
	buf := make([]byte, 0, 256)
	buf = append(buf, `{"head":{"vars":[`...)
	for i, v := range vars {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, string(v))
	}
	buf = append(buf, `]},"results":{"bindings":[`...)
	bw.Write(buf)
	for row := 0; row < sol.Len(); row++ {
		if err := checkStream(ctx, bw, w, row); err != nil {
			return err
		}
		buf = buf[:0]
		if row > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		first := true
		for col, v := range vars {
			t, bound := sol.Term(row, col)
			if !bound {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = appendJSONString(buf, string(v))
			buf = append(buf, ':')
			buf = appendJSONTerm(buf, t)
		}
		buf = append(buf, '}')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	bw.WriteString("]}}\n")
	return bw.Flush()
}

// appendNTriplesTerm appends t in N-Triples syntax (the SPARQL TSV
// term encoding). It mirrors rdf.Term.String exactly but builds no
// intermediate strings — Term.String constructs a strings.Replacer per
// call, which at ~10 allocations per streamed row would dominate the
// serving hot path.
func appendNTriplesTerm(buf []byte, t rdf.Term) []byte {
	switch {
	case t.IsIRI():
		buf = append(buf, '<')
		buf = append(buf, t.Value...)
		return append(buf, '>')
	case t.IsBlank():
		buf = append(buf, '_', ':')
		return append(buf, t.Value...)
	}
	buf = append(buf, '"')
	v, start := t.Value, 0
	for i := 0; i < len(v); i++ {
		var esc byte
		switch v[i] {
		case '\\', '"':
			esc = v[i]
		case '\n':
			esc = 'n'
		case '\r':
			esc = 'r'
		case '\t':
			esc = 't'
		default:
			continue
		}
		buf = append(buf, v[start:i]...)
		buf = append(buf, '\\', esc)
		start = i + 1
	}
	buf = append(buf, v[start:]...)
	buf = append(buf, '"')
	switch {
	case t.Lang != "":
		buf = append(buf, '@')
		buf = append(buf, t.Lang...)
	case t.Datatype != "":
		buf = append(buf, '^', '^', '<')
		buf = append(buf, t.Datatype...)
		buf = append(buf, '>')
	}
	return buf
}

// writeTSVResults streams sol as SPARQL 1.1 Query Results TSV
// (text/tab-separated-values): a ?var header line, then one line per
// solution with terms in N-Triples syntax and unbound positions empty.
// ASK answers render as a single true/false line.
func writeTSVResults(ctx context.Context, w io.Writer, sol *sparql.Solutions) error {
	bw := bufio.NewWriter(w)
	if sol.IsAsk() {
		if sol.Ask() {
			bw.WriteString("true\n")
		} else {
			bw.WriteString("false\n")
		}
		return bw.Flush()
	}
	vars := sol.Vars()
	buf := make([]byte, 0, 256)
	for i, v := range vars {
		if i > 0 {
			buf = append(buf, '\t')
		}
		buf = append(buf, '?')
		buf = append(buf, v...)
	}
	buf = append(buf, '\n')
	bw.Write(buf)
	for row := 0; row < sol.Len(); row++ {
		if err := checkStream(ctx, bw, w, row); err != nil {
			return err
		}
		buf = buf[:0]
		for col := range vars {
			if col > 0 {
				buf = append(buf, '\t')
			}
			if t, bound := sol.Term(row, col); bound {
				buf = appendNTriplesTerm(buf, t)
			}
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeGraphResults streams a CONSTRUCT/DESCRIBE graph result as
// N-Triples.
func writeGraphResults(ctx context.Context, w io.Writer, sol *sparql.Solutions) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)
	for i, t := range sol.Graph() {
		if err := checkStream(ctx, bw, w, i); err != nil {
			return err
		}
		buf = appendNTriplesTerm(buf[:0], t.S)
		buf = append(buf, ' ')
		buf = appendNTriplesTerm(buf, t.P)
		buf = append(buf, ' ')
		buf = appendNTriplesTerm(buf, t.O)
		buf = append(buf, ' ', '.', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
