package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Rendered terms. Solutions stay in id space until the writer, the
// dictionary does not change while the server runs, and the bytes a term
// renders to are a function of (dictionary, id, format) alone — so a
// server renders each term once per format and every later cell holding
// that id is one atomic load and one copy of the finished bytes. A
// termTable is that memory for one format. The writers have no second
// path: a cell whose id has no entry (not stored yet, table full,
// rendering too long, a late id) or that has no key at all (a value an
// aggregate computed past the dictionary, the only unkeyed id) is
// rendered into the window as before, and only the first kind is then
// published.
//
// Layout: one atomic word per dictionary term over append-only 64 KiB
// chunks. A word is 0 (absent) or chunk<<32 | offset<<16 | length, and
// is stored only after its bytes are in place, under the fill mutex,
// first writer wins; chunks are allocated whole and never move, grow or
// change, so readers never lock. The footprint is bounded by
// construction, not tuned: a term is stored at most once, a rendering
// over termEntryMax bytes never, and filling stops for good at
// termBytesPerTriple bytes per dataset triple — past any of these the
// cell is rendered per occurrence, which is slower, never wrong.
const (
	termEntryMax       = 4 << 10
	termBytesPerTriple = 32
	termChunkSize      = 1 << 16 // an offset is 16 bits of the word
)

type termTable struct {
	ntriples bool // N-Triples terms (the TSV encoding); else SPARQL-JSON objects

	// terms and ceiling size the table to its dataset. The index and the
	// chunk list are allocated (both at full length, so neither slice
	// header is written again) by the first response in this format.
	terms   int
	ceiling int64
	once    sync.Once
	index   []atomic.Uint64
	chunks  [][]byte

	mu   sync.Mutex // fill: chunks' contents, cur, used
	cur  int        // chunk being filled
	used int        // bytes of it taken

	// What /stats, /metrics and the benchmarks report.
	stored, bytes atomic.Int64
}

// newTermTable returns an empty table for a dataset of that many
// dictionary terms and triples. The zero termTable is valid too: it
// holds nothing and stores nothing.
func newTermTable(ntriples bool, terms, triples int) *termTable {
	return &termTable{ntriples: ntriples, terms: terms, ceiling: termBytesPerTriple * int64(triples)}
}

// newTermTables gives the server its table per result format, once the
// backend and with it the one dictionary is known.
func (s *Server) newTermTables(terms, triples int) {
	s.jsonTerms = newTermTable(false, terms, triples)
	s.tsvTerms = newTermTable(true, terms, triples)
}

// ready allocates the index on the first use of the format.
func (tt *termTable) ready() {
	tt.once.Do(func() {
		tt.index = make([]atomic.Uint64, tt.terms)
		// A chunk is left for the next when an entry does not fit its
		// tail, so each wastes less than termEntryMax bytes.
		tt.chunks = make([][]byte, tt.ceiling/(termChunkSize-termEntryMax)+1)
	})
}

// appendCell appends key and the rendering of sol's (row, col) term to
// buf, or nothing when the position is unbound. The caller has called
// ready.
func (tt *termTable) appendCell(buf, key []byte, sol *sparql.Solutions, row, col int) []byte {
	id, keyed := sol.TermID(row, col)
	if keyed = keyed && int(id) < len(tt.index); keyed {
		if e := tt.index[id].Load(); e != 0 {
			buf = append(buf, key...)
			return append(buf, tt.chunks[e>>32][e>>16&0xffff:][:e&0xffff]...)
		}
	}
	t, bound := sol.Term(row, col)
	if !bound {
		return buf
	}
	buf = append(buf, key...)
	start := len(buf)
	if tt.ntriples {
		buf = t.AppendTo(buf)
	} else {
		buf = appendJSONTerm(buf, t)
	}
	if keyed {
		tt.publish(id, buf[start:])
	}
	return buf
}

// publish stores b as the rendering of id unless the table already has
// one, b is oversized, or the table is at its ceiling.
func (tt *termTable) publish(id rdf.TermID, b []byte) {
	n := len(b)
	if n > termEntryMax || tt.bytes.Load()+int64(n) > tt.ceiling {
		return
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.index[id].Load() != 0 || tt.bytes.Load()+int64(n) > tt.ceiling {
		return
	}
	if tt.used+n > termChunkSize {
		tt.cur, tt.used = tt.cur+1, 0
	}
	if tt.chunks[tt.cur] == nil {
		tt.chunks[tt.cur] = make([]byte, termChunkSize)
	}
	copy(tt.chunks[tt.cur][tt.used:], b)
	tt.index[id].Store(uint64(tt.cur)<<32 | uint64(tt.used)<<16 | uint64(n))
	tt.used += n
	tt.stored.Add(1)
	tt.bytes.Add(int64(n))
}
