package graphframes

import (
	"testing"

	"repro/internal/spark"
	"repro/internal/spark/sql"
)

func testGraph(t *testing.T) *GraphFrame {
	t.Helper()
	ctx := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2, BroadcastThreshold: 100, MaxConcurrency: 2})
	v, err := sql.NewDataFrame(ctx, sql.Schema{"id", "name"}, []sql.Row{
		{"a", "alice"}, {"b", "bob"}, {"c", "carol"}, {"d", "dave"},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sql.NewDataFrame(ctx, sql.Schema{"src", "dst", "rel"}, []sql.Row{
		{"a", "b", "knows"},
		{"b", "c", "knows"},
		{"c", "a", "knows"},
		{"a", "d", "likes"},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(v, e)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidatesSchemas(t *testing.T) {
	ctx := spark.NewContext(spark.DefaultConfig())
	bad, _ := sql.NewDataFrame(ctx, sql.Schema{"x"}, nil)
	good, _ := sql.NewDataFrame(ctx, sql.Schema{"src", "dst"}, nil)
	if _, err := New(bad, good); err == nil {
		t.Fatal("expected vertex schema error")
	}
	goodV, _ := sql.NewDataFrame(ctx, sql.Schema{"id"}, nil)
	if _, err := New(goodV, bad); err == nil {
		t.Fatal("expected edge schema error")
	}
}

func TestParseMotif(t *testing.T) {
	pats, err := ParseMotif("(a)-[e]->(b); (b)-[]->(c)")
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 2 {
		t.Fatalf("patterns = %d", len(pats))
	}
	if pats[0].src != "a" || pats[0].edge != "e" || pats[0].dst != "b" {
		t.Fatalf("pattern 0 = %+v", pats[0])
	}
	if pats[1].edge != "" {
		t.Fatalf("pattern 1 edge = %q", pats[1].edge)
	}
	for _, bad := range []string{"", "(a)-[e]-(b)", "a-[e]->(b)", "(a)-[e->(b)", "(a)-[e]->(b"} {
		if _, err := ParseMotif(bad); err == nil {
			t.Errorf("ParseMotif(%q) succeeded", bad)
		}
	}
}

func TestFindSingleEdge(t *testing.T) {
	g := testGraph(t)
	df, err := g.Find("(x)-[e]->(y)")
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 4 {
		t.Fatalf("matches = %d", df.Count())
	}
	if !df.Schema().Has("x") || !df.Schema().Has("y") || !df.Schema().Has("e.rel") {
		t.Fatalf("schema = %v", df.Schema())
	}
}

func TestFindTwoHop(t *testing.T) {
	g := testGraph(t)
	df, err := g.Find("(x)-[]->(y); (y)-[]->(z)")
	if err != nil {
		t.Fatal(err)
	}
	// Paths: a->b->c, b->c->a, c->a->b, c->a->d.
	if df.Count() != 4 {
		t.Fatalf("two-hop matches = %d: %v", df.Count(), df.Collect())
	}
}

func TestFindTriangle(t *testing.T) {
	g := testGraph(t)
	df, err := g.Find("(x)-[]->(y); (y)-[]->(z); (z)-[]->(x)")
	if err != nil {
		t.Fatal(err)
	}
	// The directed triangle a->b->c->a appears once per rotation.
	if df.Count() != 3 {
		t.Fatalf("triangles = %d", df.Count())
	}
}

func TestFindWithEdgeFilter(t *testing.T) {
	g := testGraph(t)
	filtered, err := g.FilterEdges(sql.Eq("rel", "likes"))
	if err != nil {
		t.Fatal(err)
	}
	df, err := filtered.Find("(x)-[e]->(y)")
	if err != nil {
		t.Fatal(err)
	}
	rows := df.Collect()
	if len(rows) != 1 {
		t.Fatalf("filtered matches = %v", rows)
	}
	xi := df.Schema().Index("x")
	yi := df.Schema().Index("y")
	if rows[0][xi] != "a" || rows[0][yi] != "d" {
		t.Fatalf("match = %v", rows[0])
	}
}

func TestFindDisconnectedPatternsCross(t *testing.T) {
	g := testGraph(t)
	df, err := g.Find("(x)-[]->(y); (p)-[]->(q)")
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 16 { // 4 edges x 4 edges
		t.Fatalf("cross matches = %d", df.Count())
	}
}

func TestFindAnonymousEverything(t *testing.T) {
	g := testGraph(t)
	df, err := g.Find("()-[]->()")
	if err != nil {
		t.Fatal(err)
	}
	// All columns anonymous: result keeps the rows but hides helpers.
	if df.Count() != 4 {
		t.Fatalf("matches = %d", df.Count())
	}
}

func TestFindRepeatedEdgeVariableColumns(t *testing.T) {
	g := testGraph(t)
	df, err := g.Find("(x)-[e1]->(y); (y)-[e2]->(z)")
	if err != nil {
		t.Fatal(err)
	}
	if !df.Schema().Has("e1.rel") || !df.Schema().Has("e2.rel") {
		t.Fatalf("edge columns missing: %v", df.Schema())
	}
}

func TestParseMotifWhitespaceTolerance(t *testing.T) {
	pats, err := ParseMotif("  ( a )-[ e ]->( b ) ;  ( b )-[]->( c )  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 2 || pats[0].src != "a" || pats[0].edge != "e" {
		t.Fatalf("patterns = %+v", pats)
	}
}
