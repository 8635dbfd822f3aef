package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// refAppendJSONString is the byte-at-a-time escaper the bulk-append
// obs.AppendJSONString replaced, kept as the reference it must match.
func refAppendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			buf = append(buf, '\\', '"')
		case c == '\\':
			buf = append(buf, '\\', '\\')
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\r':
			buf = append(buf, '\\', 'r')
		case c == '\t':
			buf = append(buf, '\\', 't')
		case c < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// refAppendNTriplesLiteral is the byte-at-a-time form of the literal
// branch of rdf.Term.AppendTo (value only, quotes included).
func refAppendNTriplesLiteral(buf []byte, v string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// escapeHeavy draws strings that mix clean runs with everything the
// escapers special-case: control bytes, quotes, backslashes, and
// multi-byte UTF-8.
func escapeHeavy(r *rand.Rand) string {
	pieces := []string{
		"", "plain run of text", `"`, `\`, "\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f",
		"é", "日本語", "😀", " ", `\"`, `\\n`, "http://repro.dev/lubm/univ0",
	}
	var b strings.Builder
	for n := r.Intn(12); n > 0; n-- {
		if r.Intn(4) == 0 {
			b.WriteByte(byte(r.Intn(256)))
			continue
		}
		b.WriteString(pieces[r.Intn(len(pieces))])
	}
	return b.String()
}

func TestAppendJSONStringMatchesReference(t *testing.T) {
	prefix := []byte("prefix:")
	check := func(seed int64) bool {
		s := escapeHeavy(rand.New(rand.NewSource(seed)))
		got := obs.AppendJSONString(append([]byte(nil), prefix...), s)
		want := refAppendJSONString(append([]byte(nil), prefix...), s)
		if !bytes.Equal(got, want) {
			t.Logf("obs.AppendJSONString(%q) = %q, reference %q", s, got, want)
			return false
		}
		if !utf8.ValidString(s) {
			return true // json.Unmarshal rewrites invalid UTF-8; bytes already compared
		}
		var back string
		if err := json.Unmarshal(got[len(prefix):], &back); err != nil || back != s {
			t.Logf("json round trip of %q: got %q, err %v", s, back, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Arbitrary strings from testing/quick's own generator too.
	if err := quick.Check(func(s string) bool {
		return bytes.Equal(obs.AppendJSONString(nil, s), refAppendJSONString(nil, s))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendNTriplesLiteralMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		v := escapeHeavy(rand.New(rand.NewSource(seed)))
		for _, term := range []rdf.Term{
			rdf.NewLiteral(v),
			rdf.NewLangLiteral(v, "en"),
			rdf.NewTypedLiteral(v, rdf.XSDString),
		} {
			want := refAppendNTriplesLiteral([]byte("x\t"), v)
			switch {
			case term.Lang != "":
				want = append(want, "@en"...)
			case term.Datatype != "":
				want = append(want, "^^<"+rdf.XSDString+">"...)
			}
			if got := term.AppendTo([]byte("x\t")); !bytes.Equal(got, want) {
				t.Logf("AppendTo(%q) = %q, reference %q", v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `q"uo\te`, "ctl\x00\x1f\n\r\t", "日本語😀", "\xff\xfe"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := obs.AppendJSONString(nil, s)
		if want := refAppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("obs.AppendJSONString(%q) = %q, reference %q", s, got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("obs.AppendJSONString(%q) = %q is not valid JSON", s, got)
		}
	})
}

// DESCRIBE answers from the id-space store: the bytes are the
// target's triples, N-Triples rendered, and a request allocates a small
// fraction of what decoding the whole graph once (Graph.Triples) does —
// a DESCRIBE must stay a dictionary → encoded view → decode lookup.
func TestServeDescribeStaysInIDSpace(t *testing.T) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	var target rdf.Term
	for _, tr := range triples[len(triples)/2:] {
		if tr.S.IsIRI() {
			target = tr.S
			break
		}
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	ref := rdf.NewGraph(triples)
	var all []rdf.Triple
	decodeBytes := allocated(func() { all = ref.Triples() })
	var description []rdf.Triple
	for _, tr := range all {
		if tr.S == target {
			description = append(description, tr)
		}
	}
	if len(description) == 0 {
		t.Fatalf("no triples describe %v", target)
	}
	var want bytes.Buffer
	if err := rdf.WriteNTriples(&want, description); err != nil {
		t.Fatal(err)
	}

	s := New(rdf.NewGraph(triples), Config{})
	query := "DESCRIBE <" + target.Value + ">"
	var rec *httptest.ResponseRecorder
	requestBytes := allocated(func() { rec = getQuery(t, s, query, "", nil) })
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Body.String(); got != want.String() {
		t.Fatalf("DESCRIBE body:\n%s\nwant:\n%s", got, want.String())
	}
	if requestBytes*20 > decodeBytes {
		t.Fatalf("cold DESCRIBE allocated %d B; decoding the whole graph is %d B — the request must stay far below it",
			requestBytes, decodeBytes)
	}
}

// A served DESCRIBE over a sharded, replicated store whose placement
// spreads the subject's triples over several shards (vertical) answers
// the bytes of the single-graph server: the description is gathered by
// the global positions stored beside each shard's triples.
func TestServeShardedDescribeMatchesSingleGraph(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	sg, err := shard.BuildReplicatedByName(triples, "vertical", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, sharded := New(rdf.NewGraph(triples), Config{}), NewSharded(sg, Config{})
	const ns = "http://repro.dev/lubm/"
	for _, query := range []string{
		"DESCRIBE <" + ns + "univ0.dept0.stud0>",
		"DESCRIBE ?st WHERE { ?st <" + ns + "advisor> <" + ns + "univ0.dept0.prof0> }",
	} {
		want, got := getQuery(t, single, query, "", nil), getQuery(t, sharded, query, "", nil)
		if want.Code != http.StatusOK || got.Code != http.StatusOK {
			t.Fatalf("%s: status %d single, %d sharded: %s", query, want.Code, got.Code, got.Body.String())
		}
		if strings.Count(want.Body.String(), "\n") < 3 {
			t.Fatalf("%s: single graph describes too little:\n%s", query, want.Body.String())
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("%s: sharded body:\n%s\nwant:\n%s", query, got.Body.String(), want.Body.String())
		}
	}
}

// refCheckStream, refWriteJSONResults, refWriteTSVResults and
// refWriteGraphResults are the bufio writers the pooled-window writers
// replaced (4 KiB bufio window, scratch slice per row, explicit flush
// every streamFlushEvery rows), kept as the reference whose bytes the
// new writers must reproduce exactly.
func refCheckStream(ctx context.Context, bw *bufio.Writer, under io.Writer, row int) error {
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

func refWriteJSONResults(ctx context.Context, w io.Writer, sol *sparql.Solutions) error {
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
		buf = obs.AppendJSONString(buf, string(v))
	}
	buf = append(buf, `]},"results":{"bindings":[`...)
	bw.Write(buf)
	for row := 0; row < sol.Len(); row++ {
		if err := refCheckStream(ctx, bw, w, row); err != nil {
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
			buf = obs.AppendJSONString(buf, string(v))
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

func refWriteTSVResults(ctx context.Context, w io.Writer, sol *sparql.Solutions) error {
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
		if err := refCheckStream(ctx, bw, w, row); err != nil {
			return err
		}
		buf = buf[:0]
		for col := range vars {
			if col > 0 {
				buf = append(buf, '\t')
			}
			if t, bound := sol.Term(row, col); bound {
				buf = t.AppendTo(buf)
			}
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refWriteGraphResults(ctx context.Context, w io.Writer, sol *sparql.Solutions) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)
	for i, t := range sol.Graph() {
		if err := refCheckStream(ctx, bw, w, i); err != nil {
			return err
		}
		buf = t.S.AppendTo(buf[:0])
		buf = append(buf, ' ')
		buf = t.P.AppendTo(buf)
		buf = append(buf, ' ')
		buf = t.O.AppendTo(buf)
		buf = append(buf, ' ', '.', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type resultWriter func(context.Context, io.Writer, *sparql.Solutions) error

// through binds a bindings writer to the rendered-term table it copies
// cells from.
func through(write func(context.Context, io.Writer, *sparql.Solutions, *termTable) error, terms *termTable) resultWriter {
	return func(ctx context.Context, w io.Writer, sol *sparql.Solutions) error {
		return write(ctx, w, sol, terms)
	}
}

// streamFormats pairs each writer with the one it replaced. The graph
// writer only serves graph results and the other two only bindings/ASK,
// as in the handler. The solutions streamed through these come from many
// dictionaries, so the tables are the zero ones, which store nothing:
// every cell is a first render (terms_test.go streams through real ones).
var streamFormats = []struct {
	name      string
	got, want resultWriter
	graph     bool
}{
	{"json", through(writeJSONResults, &termTable{}), refWriteJSONResults, false},
	{"tsv", through(writeTSVResults, &termTable{ntriples: true}), refWriteTSVResults, false},
	{"ntriples", writeGraphResults, refWriteGraphResults, true},
}

// writeLog records the size of every Write it receives.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (l *writeLog) Write(p []byte) (int, error) {
	l.sizes = append(l.sizes, len(p))
	return l.Buffer.Write(p)
}

// socketStreamer serves whatever (writer, solutions) pair is currently
// set over a real listener, so a response crosses net/http's chunked
// framing and a real client re-assembles it.
type socketStreamer struct {
	ts    *httptest.Server
	mu    sync.Mutex
	write resultWriter
	sol   *sparql.Solutions
}

func newSocketStreamer(t *testing.T) *socketStreamer {
	ss := &socketStreamer{}
	ss.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ss.mu.Lock()
		write, sol := ss.write, ss.sol
		ss.mu.Unlock()
		if err := write(r.Context(), w, sol); err != nil {
			t.Errorf("streaming over the socket: %v", err)
		}
	}))
	t.Cleanup(ss.ts.Close)
	return ss
}

func (ss *socketStreamer) fetch(t *testing.T, write resultWriter, sol *sparql.Solutions) []byte {
	t.Helper()
	ss.mu.Lock()
	ss.write, ss.sol = write, sol
	ss.mu.Unlock()
	return []byte(httpGet(t, ss.ts.URL).body)
}

// sameBytes renders sol with every applicable writer and its reference
// and reports whether the bytes agree, both into a plain io.Writer and
// across the socket.
func sameBytes(t *testing.T, ss *socketStreamer, sol *sparql.Solutions) bool {
	t.Helper()
	ok := true
	for _, f := range streamFormats {
		if f.graph != sol.IsGraph() {
			continue
		}
		var want, got bytes.Buffer
		if err := f.want(context.Background(), &want, sol); err != nil {
			t.Fatal(err)
		}
		if err := f.got(context.Background(), &got, sol); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Logf("%s into a buffer: %d bytes, reference %d, first difference at %d",
				f.name, got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
			ok = false
		}
		if body := ss.fetch(t, f.got, sol); !bytes.Equal(body, want.Bytes()) {
			t.Logf("%s over the socket: %d bytes, reference %d, first difference at %d",
				f.name, len(body), want.Len(), firstDiff(body, want.Bytes()))
			ok = false
		}
	}
	return ok
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// randomTerm draws every term kind the writers distinguish: IRIs, blank
// nodes, and plain, language-tagged and typed literals with escape-heavy
// values.
func randomTerm(r *rand.Rand) rdf.Term {
	switch r.Intn(6) {
	case 0:
		return rdf.NewIRI(fmt.Sprintf("http://ex/r%d", r.Intn(50)))
	case 1:
		return rdf.NewBlank(fmt.Sprintf("b%d", r.Intn(50)))
	case 2:
		return rdf.NewLangLiteral(escapeHeavy(r), []string{"en", "fr-CA", "ja"}[r.Intn(3)])
	case 3:
		return rdf.NewTypedLiteral(fmt.Sprint(r.Intn(1000)), rdf.XSDInteger)
	case 4:
		return rdf.NewTypedLiteral(escapeHeavy(r), rdf.XSDString)
	}
	return rdf.NewLiteral(escapeHeavy(r))
}

// randomRowCount favours the edges: empty and single-row results, a few
// rows, and now and then enough rows to span several windows.
func randomRowCount(r *rand.Rand) int {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 3000 + r.Intn(3000)
	}
	return 2 + r.Intn(40)
}

// solve answers query over g.
func solve(g *rdf.Graph, query string) *sparql.Solutions {
	prep, err := sparql.Prepare(query)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", query, err))
	}
	sol, err := prep.RunSolutions(context.Background(), g)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", query, err))
	}
	return sol
}

// randomSolutions draws an answer over a graph built for it: a bindings
// table whose last projected variable is never bound and whose rows
// leave columns unbound at random (now and then all of them: the row
// renders as {}); or an ASK answer; or a graph.
func randomSolutions(r *rand.Rand) *sparql.Solutions {
	p := rdf.NewIRI("http://ex/p")
	switch r.Intn(8) {
	case 0:
		var ts []rdf.Triple
		if r.Intn(2) == 0 {
			ts = append(ts, rdf.Triple{S: rdf.NewIRI("http://ex/s"), P: p, O: randomTerm(r)})
		}
		return solve(rdf.NewGraph(ts), `ASK { ?s <http://ex/p> ?o }`)
	case 1:
		var ts []rdf.Triple
		for n := randomRowCount(r); n > 0; n-- {
			s := randomTerm(r)
			for !s.IsIRI() && !s.IsBlank() {
				s = randomTerm(r)
			}
			ts = append(ts, rdf.Triple{S: s, P: p, O: randomTerm(r)})
		}
		return solve(rdf.NewGraph(ts), `CONSTRUCT { ?s <http://ex/p> ?o } WHERE { ?s <http://ex/p> ?o }`)
	}
	// Row i is the subject http://ex/row/i; column c binds its one
	// http://ex/c value, if it has one, under OPTIONAL.
	names := []string{"s", "name", "x1", "o_2", "Long_Name"}
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	names = names[:1+r.Intn(4)]
	var ts []rdf.Triple
	for i, n := 0, randomRowCount(r); i < n; i++ {
		row := rdf.NewIRI(fmt.Sprintf("http://ex/row/%d", i))
		ts = append(ts, rdf.Triple{S: row, P: rdf.NewIRI("http://ex/row"), O: rdf.NewLiteral("")})
		if r.Intn(8) == 0 {
			continue
		}
		for c := range names {
			if r.Intn(4) > 0 {
				ts = append(ts, rdf.Triple{S: row, P: rdf.NewIRI(fmt.Sprintf("http://ex/c%d", c)), O: randomTerm(r)})
			}
		}
	}
	var sel, where strings.Builder
	for c, name := range names {
		fmt.Fprintf(&sel, "?%s ", name)
		fmt.Fprintf(&where, "OPTIONAL { ?row <http://ex/c%d> ?%s } ", c, name)
	}
	return solve(rdf.NewGraph(ts), fmt.Sprintf(`SELECT %s?never WHERE { ?row <http://ex/row> ?i %s}`, sel.String(), where.String()))
}

// idSpaceSolutions evaluates queries over a random graph so that the
// Solutions under test decode id-space rows: a plain scan, OPTIONAL
// columns that stay unbound, a projection of only the optional column
// (all-unbound rows), a projected variable no pattern mentions, LIMIT 0
// and 1, counts an aggregate computed (most of them past the
// dictionary), both ASK answers, and a CONSTRUCT.
func idSpaceSolutions(t *testing.T, r *rand.Rand) []*sparql.Solutions {
	t.Helper()
	return solutionsOver(t, idSpaceGraph(r))
}

// idSpaceGraph draws the random graph idSpaceSolutions queries.
func idSpaceGraph(r *rand.Rand) *rdf.Graph {
	var ts []rdf.Triple
	for i, n := 0, 1+r.Intn(60); i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		if r.Intn(4) == 0 {
			s = rdf.NewBlank(fmt.Sprintf("n%d", i))
		}
		ts = append(ts, rdf.Triple{S: s, P: rdf.NewIRI("http://ex/p"), O: randomTerm(r)})
		if r.Intn(2) == 0 {
			ts = append(ts, rdf.Triple{S: s, P: rdf.NewIRI("http://ex/q"), O: randomTerm(r)})
		}
	}
	return rdf.NewGraph(ts)
}

// solutionsOver evaluates idSpaceSolutions' queries over g.
func solutionsOver(t *testing.T, g *rdf.Graph) []*sparql.Solutions {
	t.Helper()
	var sols []*sparql.Solutions
	for _, q := range []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT ?s ?o ?z WHERE { ?s <http://ex/p> ?o OPTIONAL { ?s <http://ex/q> ?z } }`,
		`SELECT ?z WHERE { ?s <http://ex/p> ?o OPTIONAL { ?s <http://ex/q> ?z } }`,
		`SELECT ?s ?never WHERE { ?s <http://ex/p> ?o }`,
		`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } LIMIT 0`,
		`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } LIMIT 1`,
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s`,
		`ASK WHERE { ?s <http://ex/p> ?o }`,
		`ASK WHERE { ?s <http://ex/absent> ?o }`,
		`CONSTRUCT { ?s <http://ex/made> ?o } WHERE { ?s <http://ex/p> ?o }`,
	} {
		prep, err := sparql.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sol, err := prep.RunSolutions(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sols = append(sols, sol)
	}
	return sols
}

// The pooled-window writers reproduce the bufio writers byte for byte,
// over term-space and id-space solutions, into a buffer and across a
// real socket.
func TestStreamWritersMatchReference(t *testing.T) {
	ss := newSocketStreamer(t)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ok := sameBytes(t, ss, randomSolutions(r))
		for _, sol := range idSpaceSolutions(t, r) {
			ok = sameBytes(t, ss, sol) && ok
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A row boundary that lands one byte short of, exactly on, and one byte
// past the window size: the window is handed over only once it holds
// windowSize bytes, rows are never split, and the bytes stay those of the
// reference on either side of the boundary, through at least three
// windows.
func TestStreamWindowBoundary(t *testing.T) {
	ss := newSocketStreamer(t)
	rows := make([]rdf.Triple, 4096)
	for i := range rows {
		rows[i] = rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/subject/%d", i)), P: rdf.NewIRI("http://ex/v"), O: rdf.NewLiteral(fmt.Sprintf("value %d", i))}
	}
	table := func(k int) *sparql.Solutions {
		return solve(rdf.NewGraph(rows[:k]), `SELECT ?s ?v WHERE { ?s <http://ex/v> ?v }`)
	}
	for _, f := range streamFormats[:2] {
		// prefix(k) is how many bytes the head and the first k rows
		// render to: the window's length when row k-1 has been appended.
		tail := 0
		if f.name == "json" {
			tail = len("]}}\n")
		}
		prefix := func(k int) int {
			var buf bytes.Buffer
			if err := f.want(context.Background(), &buf, table(k)); err != nil {
				t.Fatal(err)
			}
			return buf.Len() - tail
		}
		// The most rows that still end short of windowSize-1.
		k := sort.Search(len(rows), func(k int) bool { return prefix(k+1) >= windowSize-1 })
		for _, d := range []int{-1, 0, 1} {
			t.Run(fmt.Sprintf("%s/%+d", f.name, d), func(t *testing.T) {
				// Stretch row k-1 so the first k rows end at windowSize+d.
				saved := rows[k-1].O
				defer func() { rows[k-1].O = saved }()
				rows[k-1].O = rdf.NewLiteral("")
				rows[k-1].O = rdf.NewLiteral(strings.Repeat("x", windowSize+d-prefix(k))) // prefix(k) of the emptied row
				if got := prefix(k); got != windowSize+d {
					t.Fatalf("row %d ends at byte %d, want %d", k-1, got, windowSize+d)
				}
				sol := table(len(rows))
				var log writeLog
				if err := f.got(context.Background(), &log, sol); err != nil {
					t.Fatal(err)
				}
				first := windowSize + d
				if d < 0 { // not full yet: the next row joins the first window
					first = prefix(k + 1)
				}
				if log.sizes[0] != first {
					t.Fatalf("first write is %d bytes, want %d", log.sizes[0], first)
				}
				if len(log.sizes) < 3 {
					t.Fatalf("%d bytes went out in %d writes; the result should span at least three windows", log.Len(), len(log.sizes))
				}
				for i, n := range log.sizes[:len(log.sizes)-1] {
					if n < windowSize {
						t.Fatalf("write %d of %d is %d bytes: only the last may be short of a window", i, len(log.sizes), n)
					}
				}
				if !sameBytes(t, ss, sol) {
					t.Fatal("bytes differ from the reference")
				}
			})
		}
	}
}
