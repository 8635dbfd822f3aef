package gframes

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/spark/graphframes"
	sparksql "repro/internal/spark/sql"
	"repro/internal/sparql"
	"repro/internal/systems/systemstest"
	"repro/internal/workload"
)

func newEngine() *Engine {
	return New(spark.NewContext(spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4}))
}

func TestConformance(t *testing.T) {
	systemstest.Run(t, func() core.Engine { return newEngine() })
}

func TestRandomized(t *testing.T) {
	systemstest.RunRandomized(t, func() core.Engine { return newEngine() })
}

func TestInfo(t *testing.T) {
	info := newEngine().Info()
	if info.Name != "GraphFrames" || info.QueryProcessing != "Subgraph Matching" {
		t.Fatalf("info = %+v", info)
	}
	if info.Abstractions[0] != core.GraphFramesAbstraction {
		t.Fatalf("abstractions = %v", info.Abstractions)
	}
}

func TestBuildMotif(t *testing.T) {
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?d WHERE { ?st <%sadvisor> ?p . ?p <%sworksFor> ?d }`,
		workload.UnivNS, workload.UnivNS))
	bgp, _ := q.BGPOf()
	motif, vars, filters, err := e.buildMotif(bgp.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 3 {
		t.Fatalf("vars = %v", vars)
	}
	if len(filters) != 2 { // two predicate filters
		t.Fatalf("filters = %d", len(filters))
	}
	if motif == "" {
		t.Fatal("empty motif")
	}
}

func TestPredicateFrequencyOrdering(t *testing.T) {
	e := newEngine()
	if err := e.Load(workload.GenerateUniversity(workload.SmallUniversity())); err != nil {
		t.Fatal(err)
	}
	// subOrganizationOf is rarer than takesCourse.
	if e.predFreq(sparql.TriplePattern{P: sparql.TermElem(workload.UnivSubOrgOf)}) >=
		e.predFreq(sparql.TriplePattern{P: sparql.TermElem(workload.UnivTakesCourse)}) {
		t.Fatal("frequency statistics look wrong")
	}
}

func TestSearchSpacePruningReducesWork(t *testing.T) {
	// With pruning, matching a one-predicate query must not read the
	// other predicates' edges into the join pipeline: compare motif
	// input sizes via the filtered edge count.
	e := newEngine()
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	edges := func(g *graphframes.GraphFrame) int {
		df, err := g.Find("(a)-[e]->(b)")
		if err != nil {
			t.Fatal(err)
		}
		return df.Count()
	}
	total := edges(e.graph)
	pruned, err := e.graph.FilterEdges(sparksql.Eq("rel", workload.UnivAdvisor.Value))
	if err != nil {
		t.Fatal(err)
	}
	kept := edges(pruned)
	advisorCount := 0
	for _, tr := range rdf.NewGraph(triples).Triples() {
		if tr.P == workload.UnivAdvisor {
			advisorCount++
		}
	}
	if kept != advisorCount {
		t.Fatalf("pruned graph keeps %d edges, want %d", kept, advisorCount)
	}
	if kept >= total {
		t.Fatal("pruning did not shrink the search space")
	}
}

func TestQueryAnswersOnShopData(t *testing.T) {
	triples := workload.GenerateShop(workload.SmallShop())
	e := newEngine()
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(fmt.Sprintf(
		`SELECT ?a ?b ?prod WHERE { ?a <%sfollows> ?b . ?b <%slikes> ?prod }`,
		workload.ShopNS, workload.ShopNS))
	want, err := sparql.Evaluate(q, rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("wrong: %d vs %d rows", got.Len(), want.Len())
	}
}

// TestStarShufflesLikeATripleStore is a survey claim as an inequality
// (ROADMAP item 10): a motif's constant constraints cost what a
// triple-store plan costs. Under the assessment's cluster, U-star-1 on
// MediumUniversity shuffles at most 15,000 records (SPARQLGX's plan:
// 14,125). With its rdf:type, Student and edge-label constraints
// applied after the whole motif join, it shuffled 70,050.
func TestStarShufflesLikeATripleStore(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale integration test")
	}
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	e := New(spark.NewContext(spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 8}))
	if err := e.Load(triples); err != nil {
		t.Fatal(err)
	}
	nq := workload.UniversityQueries()[0]
	if nq.Name != "U-star-1" {
		t.Fatalf("first University query is %s, want U-star-1", nq.Name)
	}
	want, err := sparql.Evaluate(nq.Query, rdf.NewGraph(triples))
	if err != nil {
		t.Fatal(err)
	}
	m := core.RunQuery(e, nq.Name, nq.Query, want)
	if m.Err != nil || !m.Correct {
		t.Fatalf("U-star-1: err %v, correct %v", m.Err, m.Correct)
	}
	if got := m.Activity.ShuffleRecords; got > 15000 {
		t.Fatalf("U-star-1 shuffled %d records, want <= 15,000", got)
	}
}

func TestRejectsNonBGP(t *testing.T) {
	e := newEngine()
	if err := e.Load(workload.GenerateShop(workload.SmallShop())); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <http://e/p> ?y OPTIONAL { ?x <http://e/q> ?z } }`)
	if _, err := e.Execute(q); err == nil {
		t.Fatal("OPTIONAL must be rejected (fragment is BGP)")
	}
}

func TestExecuteWithoutLoad(t *testing.T) {
	if _, err := newEngine().Execute(sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`)); err == nil {
		t.Fatal("expected error before Load")
	}
}
