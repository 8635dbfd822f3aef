package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"repro/internal/rdf"
	"repro/internal/workload"
)

// refAppendJSONString is the byte-at-a-time escaper the bulk-append
// appendJSONString replaced, kept as the reference it must match.
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
// branch of appendNTriplesTerm (value only, quotes included).
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
		got := appendJSONString(append([]byte(nil), prefix...), s)
		want := refAppendJSONString(append([]byte(nil), prefix...), s)
		if !bytes.Equal(got, want) {
			t.Logf("appendJSONString(%q) = %q, reference %q", s, got, want)
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
		return bytes.Equal(appendJSONString(nil, s), refAppendJSONString(nil, s))
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
			if got := appendNTriplesTerm([]byte("x\t"), term); !bytes.Equal(got, want) {
				t.Logf("appendNTriplesTerm(%q) = %q, reference %q", v, got, want)
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
		got := appendJSONString(nil, s)
		if want := refAppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %q, reference %q", s, got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("appendJSONString(%q) = %q is not valid JSON", s, got)
		}
	})
}

// DESCRIBE answers from the id-space store: the bytes are the term-space
// description (what Graph.WithSubject serves, N-Triples rendered), and
// a request allocates a small fraction of what materializing the
// graph's term-space index would — which is what a DESCRIBE cost before
// the lookup moved to dictionary → encoded view → decode.
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
	var description []rdf.Triple
	indexBytes := allocated(func() { description = ref.WithSubject(target) })
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
	if requestBytes*20 > indexBytes {
		t.Fatalf("cold DESCRIBE allocated %d B; a term-space index build is %d B — the request must stay far below it",
			requestBytes, indexBytes)
	}
}
