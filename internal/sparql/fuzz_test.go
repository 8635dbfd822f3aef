package sparql_test

import (
	"testing"

	"repro/internal/sparql"
	"repro/internal/workload"
)

// FuzzParseQuery: Parse never panics, and a query it accepts compiles
// (PrepareQuery: the slot table and the plan fingerprint) without
// panicking either. The corpus is the workload's shaped queries and
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
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := sparql.Parse(text)
		if err != nil {
			return
		}
		sparql.PrepareQuery(q)
	})
}
