package server

import (
	"context"
	"io"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// The streaming writers serialize a Solutions row by row: each cell of a
// surviving row is appended straight into a pooled response window —
// its finished bytes copied from the format's rendered-term table
// (terms.go) when its id is there, rendered in place otherwise — and
// each full window reaches the ResponseWriter in one Write: a
// million-row result never exists decoded, every byte is copied
// once on its way to net/http, and no request allocates a buffer. A
// disconnected client costs at most one window in flight and
// streamFlushEvery rows of rendering before the context poll ends the
// stream; a mid-stream failure (cancellation, a failed Write) truncates
// the response, since written rows stay written.

// windowSize is the response window: rows accumulate until it is
// reached, then go out whole. net/http passes a write of 4 KiB or more
// straight through its buffers, so a window is one chunk and about one
// write(2), and at 64 KiB (loopback MSS: 65,483 B) about one segment.
// Measured (ROADMAP, PR 14); constant because nobody has a second value.
const windowSize = 64 << 10

// streamFlushEvery is how many rows are rendered between context
// polls, so an abandoned query stops consuming its worker slot.
const streamFlushEvery = 512

// windowPool recycles response windows across requests. A row is never
// split, so a window overshoots windowSize by its last row; the spare
// sixteenth lets ordinary rows do that without regrowing the slice.
var windowPool = sync.Pool{New: func() any {
	b := make([]byte, 0, windowSize+windowSize/16)
	return &b
}}

// streamRows writes head, the n rows that row(buf, i) appends, and tail
// through one pooled window, which it alone owns: each full window and
// the final partial one reach w in a single checked Write, and the window
// returns to the pool on every path — unless a giant row grew it past
// twice its size, so one 10 MB literal cannot pin 10 MB per pool slot.
func streamRows(ctx context.Context, w io.Writer, head []byte, n int, row func(buf []byte, i int) []byte, tail string) error {
	p := windowPool.Get().(*[]byte)
	buf := append((*p)[:0], head...)
	defer func() {
		if cap(buf) <= 2*windowSize {
			*p = buf[:0]
			windowPool.Put(p)
		}
	}()
	for i := 0; i < n; i++ {
		if i%streamFlushEvery == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if buf = row(buf, i); len(buf) >= windowSize {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, tail...)
	_, err := w.Write(buf)
	return err
}

// writeAsk answers an ASK query: one short write, no window.
func writeAsk(w io.Writer, ask bool, yes, no string) error {
	if !ask {
		yes = no
	}
	_, err := io.WriteString(w, yes)
	return err
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
	buf = obs.AppendJSONString(buf, t.Value)
	if t.Lang != "" {
		buf = append(buf, `,"xml:lang":`...)
		buf = obs.AppendJSONString(buf, t.Lang)
	}
	if t.Datatype != "" {
		buf = append(buf, `,"datatype":`...)
		buf = obs.AppendJSONString(buf, t.Datatype)
	}
	return append(buf, '}')
}

// writeJSONResults streams sol as a SPARQL 1.1 Query Results JSON
// document (application/sparql-results+json), copying cells from terms.
func writeJSONResults(ctx context.Context, w io.Writer, sol *sparql.Solutions, terms *termTable) error {
	if sol.IsAsk() {
		return writeAsk(w, sol.Ask(), `{"head":{},"boolean":true}`+"\n", `{"head":{},"boolean":false}`+"\n")
	}
	// keys[i] is column i's member key `,"name":`, rendered once per
	// response. Each is appended to the empty tail of the one before, so
	// they share one array while they fit and none moves once rendered.
	vars := sol.Vars()
	last, keys := make([]byte, 0, 64), make([][]byte, len(vars))
	head := append(make([]byte, 0, 128), `{"head":{"vars":[`...)
	for i, v := range vars {
		last = append(obs.AppendJSONString(append(last[len(last):], ','), string(v)), ':')
		keys[i] = last
		name := last[:len(last)-1] // `,"name"`: the vars list has no comma before its first
		if i == 0 {
			name = name[1:]
		}
		head = append(head, name...)
	}
	head = append(head, `]},"results":{"bindings":[`...)
	terms.ready()
	return streamRows(ctx, w, head, sol.Len(), func(buf []byte, row int) []byte {
		if row > 0 {
			buf = append(buf, ',')
		}
		open := len(buf)
		for col, key := range keys {
			buf = terms.appendCell(buf, key, sol, row, col)
		}
		// Every member came with a leading comma: the row's brace takes
		// the place of the first, or stands alone in a row with no member.
		if len(buf) == open {
			buf = append(buf, '{')
		} else {
			buf[open] = '{'
		}
		return append(buf, '}')
	}, "]}}\n")
}

// writeTSVResults streams sol as SPARQL 1.1 Query Results TSV
// (text/tab-separated-values): a ?var header line, then one line per
// solution with terms in N-Triples syntax and unbound positions empty.
// ASK answers render as a single true/false line. Cells are copied from
// terms.
func writeTSVResults(ctx context.Context, w io.Writer, sol *sparql.Solutions, terms *termTable) error {
	if sol.IsAsk() {
		return writeAsk(w, sol.Ask(), "true\n", "false\n")
	}
	vars := sol.Vars()
	head := make([]byte, 0, 128)
	for i, v := range vars {
		if i > 0 {
			head = append(head, '\t')
		}
		head = append(append(head, '?'), v...)
	}
	head = append(head, '\n')
	terms.ready()
	return streamRows(ctx, w, head, sol.Len(), func(buf []byte, row int) []byte {
		for col := range vars {
			if col > 0 {
				buf = append(buf, '\t')
			}
			buf = terms.appendCell(buf, nil, sol, row, col)
		}
		return append(buf, '\n')
	}, "")
}

// writeGraphResults streams a CONSTRUCT/DESCRIBE graph result as
// N-Triples.
func writeGraphResults(ctx context.Context, w io.Writer, sol *sparql.Solutions) error {
	triples := sol.Graph()
	return streamRows(ctx, w, nil, len(triples), func(buf []byte, i int) []byte {
		buf = triples[i].S.AppendTo(buf)
		buf = append(buf, ' ')
		buf = triples[i].P.AppendTo(buf)
		buf = append(buf, ' ')
		buf = triples[i].O.AppendTo(buf)
		return append(buf, ' ', '.', '\n')
	}, "")
}
