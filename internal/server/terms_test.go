package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/sparql"
)

// tableFormats are the two writers that copy cells from a rendered-term
// table, each with the bufio writer stream_test.go holds as reference.
var tableFormats = []struct {
	name     string
	ntriples bool
	write    func(context.Context, io.Writer, *sparql.Solutions, *termTable) error
	ref      resultWriter
}{
	{"json", false, writeJSONResults, refWriteJSONResults},
	{"tsv", true, writeTSVResults, refWriteTSVResults},
}

// tableFor returns the empty table a server over g would own.
func tableFor(ntriples bool, g *rdf.Graph) *termTable {
	return newTermTable(ntriples, g.Encoded().Dict().Len(), g.Len())
}

func streamed(t *testing.T, write resultWriter, sol *sparql.Solutions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(context.Background(), &buf, sol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// idTerms collects the distinct ids the id-space solutions hold, with
// their terms.
func idTerms(sols []*sparql.Solutions) map[rdf.TermID]rdf.Term {
	out := map[rdf.TermID]rdf.Term{}
	for _, sol := range sols {
		for row := 0; row < sol.Len(); row++ {
			for col := range sol.Vars() {
				if id, ok := sol.TermID(row, col); ok {
					out[id], _ = sol.Term(row, col)
				}
			}
		}
	}
	return out
}

// checkTable verifies a table against the terms that were streamed
// through it: every entry is the first render of its term, no entry
// overlaps another's bytes or exceeds the per-entry size, nothing but
// streamed ids is stored, and the gauges are the entries' count and sum,
// inside the ceiling.
func checkTable(t *testing.T, tt *termTable, terms map[rdf.TermID]rdf.Term) {
	t.Helper()
	tt.ready()
	var stored, total int64
	taken := map[[2]uint64]bool{} // (chunk, offset) of every stored byte's entry start
	for id := range tt.index {
		e := tt.index[id].Load()
		if e == 0 {
			continue
		}
		term, ok := terms[rdf.TermID(id)]
		if !ok {
			t.Fatalf("id %d is stored but was never streamed", id)
		}
		chunk, off, n := e>>32, e>>16&0xffff, e&0xffff
		var want []byte
		if tt.ntriples {
			want = term.AppendTo(nil)
		} else {
			want = appendJSONTerm(nil, term)
		}
		if got := tt.chunks[chunk][off : off+n]; !bytes.Equal(got, want) {
			t.Fatalf("id %d is stored as %q, renders to %q", id, got, want)
		}
		if n > termEntryMax {
			t.Fatalf("id %d: a %d-byte entry is over the per-entry size", id, n)
		}
		if taken[[2]uint64{chunk, off}] {
			t.Fatalf("two entries start at chunk %d offset %d", chunk, off)
		}
		taken[[2]uint64{chunk, off}] = true
		stored++
		total += int64(n)
	}
	if got := tt.stored.Load(); got != stored {
		t.Fatalf("terms gauge %d, index holds %d entries", got, stored)
	}
	if got := tt.bytes.Load(); got != total || got > tt.ceiling {
		t.Fatalf("bytes gauge %d, entries sum to %d, ceiling %d", got, total, tt.ceiling)
	}
}

// Cold, warm and fresh are the same bytes: every document of
// TestStreamWritersMatchReference's generator goes through one table
// twice and through a new one once, and all three equal the reference.
// The graphs are a few dozen triples, so 32 B per triple runs out while
// they stream: the passes cover hits, first renders and a table at its
// ceiling in one document. Counts an aggregate computed past the
// dictionary have no key: they are rendered per cell and never stored.
func TestTermTableColdWarmFresh(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := idSpaceGraph(r)
		sols := solutionsOver(t, g)
		terms := idTerms(sols)
		ok := true
		for _, f := range tableFormats {
			shared := tableFor(f.ntriples, g)
			for pass, tt := range []*termTable{shared, shared, tableFor(f.ntriples, g)} {
				for i, sol := range sols {
					if sol.IsGraph() {
						continue
					}
					before := tt.stored.Load()
					got, want := streamed(t, through(f.write, tt), sol), streamed(t, f.ref, sol)
					if !bytes.Equal(got, want) {
						t.Logf("%s pass %d document %d: %d bytes, reference %d, first difference at %d",
							f.name, pass, i, len(got), len(want), firstDiff(got, want))
						ok = false
					}
					if after := tt.stored.Load(); after != before && pass == 1 {
						t.Logf("%s pass %d document %d stored %d terms: a warm document stores none", f.name, pass, i, after-before)
						ok = false
					}
				}
				checkTable(t, tt, terms)
			}
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// overlapGraph is 1,500 subjects × 5 predicates over 150 shared objects:
// every query below repeats most terms of the others.
func overlapGraph() *rdf.Graph {
	var ts []rdf.Triple
	for i := 0; i < 1500; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		for p := 0; p < 5; p++ {
			o := rdf.NewLiteral(fmt.Sprintf("value \"%d\"", (i*7+p*31)%150))
			if p == 4 {
				o = rdf.NewIRI(fmt.Sprintf("http://ex/s%d", (i+1)%1500))
			}
			ts = append(ts, rdf.Triple{S: s, P: rdf.NewIRI(fmt.Sprintf("http://ex/p%d", p)), O: o})
		}
	}
	return rdf.NewGraph(ts)
}

// Eight goroutines stream overlapping multi-window results through one
// table that starts empty: each response is the reference's bytes (a
// reader that saw a word before its bytes, or a wrong length, would not
// be), and afterwards every id that was streamed is stored exactly once.
// CI runs this under -race.
func TestTermTableConcurrentFill(t *testing.T) {
	g := overlapGraph()
	var sols []*sparql.Solutions
	for _, q := range []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT ?o ?s WHERE { ?s <http://ex/p0> ?o }`,
		`SELECT ?s ?a ?b WHERE { ?s <http://ex/p1> ?a . ?s <http://ex/p2> ?b }`,
		`SELECT ?s ?n ?z WHERE { ?s <http://ex/p4> ?n OPTIONAL { ?n <http://ex/p9> ?z } }`,
	} {
		prep, err := sparql.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := prep.RunSolutions(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		sols = append(sols, sol)
	}
	terms := idTerms(sols)
	for _, f := range tableFormats {
		want := make([][]byte, len(sols))
		for i, sol := range sols {
			want[i] = streamed(t, f.ref, sol)
		}
		if len(want[0]) < 3*windowSize {
			t.Fatalf("%s: the largest result is %d bytes, want several windows", f.name, len(want[0]))
		}
		tt := tableFor(f.ntriples, g)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range sols {
					i := (w + k) % len(sols)
					var buf bytes.Buffer
					if err := f.write(context.Background(), &buf, sols[i], tt); err != nil {
						t.Error(err)
						return
					}
					if got := buf.Bytes(); !bytes.Equal(got, want[i]) {
						t.Errorf("%s worker %d result %d: %d bytes, reference %d, first difference at %d",
							f.name, w, i, len(got), len(want[i]), firstDiff(got, want[i]))
					}
				}
			}(w)
		}
		wg.Wait()
		checkTable(t, tt, terms)
		if got := tt.stored.Load(); got != int64(len(terms)) {
			t.Fatalf("%s: %d terms stored, %d distinct ids streamed", f.name, got, len(terms))
		}
	}
}

// What the table refuses costs nothing but the copy it would have saved:
// a term whose rendering is over the per-entry size is never stored, and
// a table at its ceiling stores nothing more — the bytes are right and
// the gauges do not move, however often the documents stream.
func TestTermTableRefusals(t *testing.T) {
	long := rdf.NewLiteral(strings.Repeat("long ", termEntryMax/5))
	ts := []rdf.Triple{{S: rdf.NewIRI("http://ex/long"), P: rdf.NewIRI("http://ex/p"), O: long}}
	for i := 0; i < 200; i++ {
		ts = append(ts, rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral(fmt.Sprint("v", i))})
	}
	g := rdf.NewGraph(ts)
	prep, err := sparql.Prepare(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := prep.RunSolutions(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	terms := idTerms([]*sparql.Solutions{sol})
	longID, _ := g.Encoded().Dict().Lookup(long)
	for _, f := range tableFormats {
		want := streamed(t, f.ref, sol)
		// 402 terms against 1,500 B: the ceiling is reached part-way
		// through the first document.
		tt := &termTable{ntriples: f.ntriples, terms: g.Encoded().Dict().Len(), ceiling: 1500}
		for pass := 0; pass < 3; pass++ {
			stored, held := tt.stored.Load(), tt.bytes.Load()
			if got := streamed(t, through(f.write, tt), sol); !bytes.Equal(got, want) {
				t.Fatalf("%s pass %d: bytes differ from the reference at %d", f.name, pass, firstDiff(got, want))
			}
			if pass > 0 && (tt.stored.Load() != stored || tt.bytes.Load() != held) {
				t.Fatalf("%s pass %d: a full table went from %d terms / %d B to %d / %d",
					f.name, pass, stored, held, tt.stored.Load(), tt.bytes.Load())
			}
		}
		checkTable(t, tt, terms)
		if n := tt.stored.Load(); n == 0 || n >= int64(len(terms))-1 {
			t.Fatalf("%s: %d of %d terms stored; the ceiling should cut the fill short", f.name, n, len(terms))
		}
		if tt.ceiling-tt.bytes.Load() > 64 {
			t.Fatalf("%s: filling stopped at %d B of %d", f.name, tt.bytes.Load(), tt.ceiling)
		}
		// With room to spare, everything is stored but the long literal.
		roomy := &termTable{ntriples: f.ntriples, terms: tt.terms, ceiling: 1 << 20}
		for pass := 0; pass < 2; pass++ {
			if got := streamed(t, through(f.write, roomy), sol); !bytes.Equal(got, want) {
				t.Fatalf("%s roomy pass %d: bytes differ from the reference at %d", f.name, pass, firstDiff(got, want))
			}
		}
		checkTable(t, roomy, terms)
		if roomy.index[longID].Load() != 0 || roomy.stored.Load() != int64(len(terms))-1 {
			t.Fatalf("%s: %d of %d terms stored, long literal stored: %v",
				f.name, roomy.stored.Load(), len(terms), roomy.index[longID].Load() != 0)
		}
	}
}

// Escaping survives the table: quotes, backslashes, control bytes,
// multi-byte runes, language tags, datatypes and blank nodes come back
// from a hit exactly as from a first render, and the JSON still decodes
// to the term.
func TestTermTableHitsRoundTripEscapes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	objects := []rdf.Term{
		rdf.NewLiteral(`quote " backslash \ both \"`),
		rdf.NewLiteral("controls \x00\x01\x1f\x7f \n\r\t end"),
		rdf.NewLangLiteral("日本語 \"é\" 😀", "ja"),
		rdf.NewTypedLiteral("4\t2", rdf.XSDInteger),
		rdf.NewTypedLiteral(`\\n`, rdf.XSDString),
		rdf.NewBlank("b0"),
		rdf.NewLiteral(""),
	}
	for len(objects) < 200 {
		objects = append(objects, randomTerm(r))
	}
	var ts []rdf.Triple
	for i, o := range objects {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		if i%5 == 0 {
			s = rdf.NewBlank(fmt.Sprintf("n%d", i))
		}
		ts = append(ts, rdf.Triple{S: s, P: rdf.NewIRI("http://ex/p"), O: o})
	}
	g := rdf.NewGraph(ts)
	prep, err := sparql.Prepare(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := prep.RunSolutions(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	terms := idTerms([]*sparql.Solutions{sol})
	for _, f := range tableFormats {
		want := streamed(t, f.ref, sol)
		tt := &termTable{ntriples: f.ntriples, terms: g.Encoded().Dict().Len(), ceiling: 1 << 20}
		if cold := streamed(t, through(f.write, tt), sol); !bytes.Equal(cold, want) {
			t.Fatalf("%s cold: bytes differ from the reference at %d", f.name, firstDiff(cold, want))
		}
		for id := range terms {
			if tt.index[id].Load() == 0 {
				t.Fatalf("%s: id %d (%v) was streamed and not stored: the warm pass would not be all hits", f.name, id, terms[id])
			}
		}
		warm := streamed(t, through(f.write, tt), sol)
		if !bytes.Equal(warm, want) {
			t.Fatalf("%s warm: bytes differ from the reference at %d", f.name, firstDiff(warm, want))
		}
		if f.ntriples {
			continue
		}
		var doc sparqlJSON
		if err := json.Unmarshal(warm, &doc); err != nil {
			t.Fatalf("warm JSON does not parse: %v", err)
		}
		for row, b := range doc.Results.Bindings {
			o, _ := sol.Term(row, 1)
			if !utf8.ValidString(o.Value) {
				continue // json.Unmarshal rewrites invalid UTF-8; bytes already compared
			}
			if got := b["o"]; got.Value != o.Value || got.Lang != o.Lang || got.Datatype != o.Datatype ||
				(got.Type == "bnode") != o.IsBlank() || (got.Type == "uri") != o.IsIRI() {
				t.Fatalf("row %d: %v decoded from a hit as %+v", row, o, got)
			}
		}
	}
}

// One writer serves both backends. A 4-shard × 2-replica server answers
// the single-graph server's bytes from its own table; an aggregate's
// count, a value the dictionary lacks, carries no key and passes through
// the tables without touching them; and each server's second answer is
// its first.
func TestServeBackendsShareTheWriter(t *testing.T) {
	g := testGraph()
	sg, err := shard.BuildReplicatedByName(g.Triples(), "hash-subject", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, sharded := New(g, Config{}), NewSharded(sg, Config{})
	queries := []string{
		`SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a } ORDER BY ?n`,
		`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n OPTIONAL { ?s <http://ex/nope> ?z } }`,
		`SELECT (COUNT(?s) AS ?c) WHERE { ?s <http://ex/age> ?a }`,
	}
	for _, format := range []string{"json", "tsv"} {
		for _, q := range queries {
			want := getQuery(t, single, q, "&format="+format, nil)
			if want.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", q, want.Code, want.Body)
			}
			for name, s := range map[string]*Server{"single": single, "sharded": sharded} {
				for pass := 0; pass < 2; pass++ {
					got := getQuery(t, s, q, "&format="+format, nil)
					if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
						t.Fatalf("%s server, %s, pass %d, %s: status %d, body differs from the single-graph server's at byte %d",
							name, format, pass, q, got.Code, firstDiff(got.Body.Bytes(), want.Body.Bytes()))
					}
				}
			}
		}
	}
	// Subject, name and age of all 64 subjects are 64 + 64 + 8 terms. As
	// N-Triples they fit 32 B × 128 triples; as JSON objects they do not,
	// and both servers stop at the same term.
	for name, s := range map[string]*Server{"single": single, "sharded": sharded} {
		if n := s.tsvTerms.stored.Load(); n != 136 {
			t.Fatalf("%s server stored %d TSV terms, want 136", name, n)
		}
	}
	if n, m := single.jsonTerms.stored.Load(), sharded.jsonTerms.stored.Load(); n == 0 || n >= 136 || n != m {
		t.Fatalf("single server stored %d JSON terms, sharded %d: want the same share of 136", n, m)
	}
}

// The tables report themselves: /stats and /metrics read the gauges, a
// format nobody asked for reads 0 / 0, and the footprint stays inside
// 32 B per triple and one entry per dictionary term.
func TestRenderedTermGauges(t *testing.T) {
	g := testGraph()
	s := New(g, Config{})
	read := func() (terms, held map[string]int64) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var doc struct {
			Terms map[string]int64 `json:"rendered_terms"`
			Bytes map[string]int64 `json:"rendered_bytes"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("invalid /stats JSON: %v\n%s", err, rec.Body)
		}
		return doc.Terms, doc.Bytes
	}
	if terms, held := read(); terms["json"] != 0 || terms["tsv"] != 0 || held["json"] != 0 || held["tsv"] != 0 {
		t.Fatalf("a server that has answered nothing reports %v terms, %v bytes", terms, held)
	}
	q := `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } LIMIT 20`
	for i := 0; i < 2; i++ {
		if rec := getQuery(t, s, q, "", nil); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	terms, held := read()
	if terms["json"] != 40 || terms["tsv"] != 0 || held["tsv"] != 0 {
		t.Fatalf("after two JSON answers of 20 subjects and names: %v terms, %v bytes", terms, held)
	}
	if held["json"] <= 0 || held["json"] > termBytesPerTriple*int64(g.Len()) || terms["json"] > int64(g.Encoded().Dict().Len()) {
		t.Fatalf("%d B for %d terms over %d triples and %d dictionary terms", held["json"], terms["json"], g.Len(), g.Encoded().Dict().Len())
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	validateExposition(t, rec.Body.String())
	for _, line := range []string{
		`rdf_rendered_terms{format="json"} 40`,
		`rdf_rendered_terms{format="tsv"} 0`,
		fmt.Sprintf(`rdf_rendered_bytes{format="json"} %d`, held["json"]),
		`rdf_rendered_bytes{format="tsv"} 0`,
	} {
		if !strings.Contains(rec.Body.String(), line+"\n") {
			t.Fatalf("/metrics lacks %q", line)
		}
	}
}
