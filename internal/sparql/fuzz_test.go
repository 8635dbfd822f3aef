package sparql_test

import (
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/sparql"
	"repro/internal/workload"
)

// FuzzParseQuery: Parse never panics, a character it rejects is one the
// text holds (never a byte torn out of a multi-byte one), and a query
// it accepts compiles (PrepareQuery: the slot table and the plan
// fingerprint) without panicking either. The corpus is the workload's shaped queries and
// texts of the kinds internal/shard's differential generator renders.
// CI runs it for 20 s (go test -fuzz FuzzParseQuery).
func FuzzParseQuery(f *testing.F) {
	for _, nq := range workload.UniversityQueries() {
		f.Add(nq.Text)
	}
	for _, text := range []string{
		`SELECT DISTINCT ?s ?mo0 WHERE { { ?s <http://ex/c> ?mo0 . ?s <http://ex/d> "x" . } UNION { ?s ?op ?oo0 . } FILTER(?s != <http://ex/a>) } ORDER BY ?s ?mo0 LIMIT 3 OFFSET 1`,
		`SELECT ?s ?mh ?oo1 WHERE { ?s <http://ex/p> ?mh . ?mh <http://ex/q> "7"^^<http://www.w3.org/2001/XMLSchema#integer> . OPTIONAL { ?s <http://ex/c> ?oo1 . } }`,
		`ASK { ?s <http://ex/c> ?s . ?s ?mr ?mr . }`,
		`SELECT ?s WHERE { <http://ex/absent> <http://ex/p> ?s . } LIMIT 0`,
		`SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://ex/p> ?o }`,
		`DESCRIBE <http://ex/a>`,
		`CONSTRUCT { ?s <http://ex/q> ?o } WHERE { ?s <http://ex/p> ?o FILTER(BOUND(?o) && !(?o = "x")) }`,
		`SELECT * WHERE { { ?a ?b ?c } { ?c ?a ?b } }`,
		`SELECT (COUNT(*) AS ?s) { ?s <http://ex/k> ?x } GROUP BY ?s`,
		`SELECT ?s { ?s ?p ?o }`,
		`SELECT ?ünï WHERE { ?ünï <http://p> ?名前 }`,
		"\u07c2",      // a digit past ASCII starts no number
		"\"\"@\u01dc", // nor a language tag
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := sparql.Parse(text)
		if err != nil {
			const prefix = "sparql: unexpected character "
			if msg := err.Error(); strings.HasPrefix(msg, prefix) {
				c, uerr := strconv.Unquote(msg[len(prefix):])
				if uerr != nil || !strings.Contains(text, c) && !(c == "\uFFFD" && !utf8.ValidString(text)) {
					t.Fatalf("Parse(%q): %v names a character the text does not hold", text, err)
				}
			}
			return
		}
		sparql.PrepareQuery(q)
	})
}
