package graphframes

// Tests for where Find applies its constraints. The property holds
// Find(motif, where...) to a nested-loop matcher and to Find(motif)
// followed by Filter(where...), as multisets; the placement test pins
// the records each join shuffles, which the answers alone cannot show.
// Each mutant below was applied to a copy of Find and is killed:
//
//   - push a cross-step constraint into one step (a step "covers" a
//     constraint when it holds any of its columns): the property (Find
//     fails on the column the step lacks);
//   - drop the leftover constraints (those no single step covers): the
//     property;
//   - push only into step 0 (later steps' constraints wait for the
//     join): TestFindPlacesConstraints, "constant edge on step 1";
//   - drop the self-loop constraint: the property and
//     TestFindSelfLoop;
//   - apply every constraint after the last join instead of the first
//     one that covers it: TestFindPlacesConstraints.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/spark"
	"repro/internal/spark/sql"
)

// edgeFrame builds a GraphFrame over edges {src, dst, rel}.
func edgeFrame(t *testing.T, ctx *spark.Context, edges [][3]string) *GraphFrame {
	t.Helper()
	rows := make([]sql.Row, len(edges))
	for i, e := range edges {
		rows[i] = sql.Row{e[0], e[1], e[2]}
	}
	v, err := sql.NewDataFrame(ctx, sql.Schema{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sql.NewDataFrame(ctx, sql.Schema{"src", "dst", "rel"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(v, e)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// canonical renders each row as its sorted "col=value" cells, and sorts
// the rows: a multiset that does not depend on column order.
func canonical(schema sql.Schema, rows []sql.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(schema))
		for j, c := range schema {
			cells[j] = fmt.Sprintf("%s=%v", c, r[j])
		}
		sort.Strings(cells)
		out[i] = strings.Join(cells, " ")
	}
	sort.Strings(out)
	return out
}

// nestedLoop answers the motif by trying every assignment of edges to
// its steps: a named vertex binds one value wherever it appears, a
// named edge binds its rel, and every constraint holds.
func nestedLoop(pats []edgePattern, edges [][3]string, where []sql.Expr) []string {
	var out []string
	pick := make([]int, len(pats))
	var walk func(step int)
	walk = func(step int) {
		if step < len(pats) {
			for i := range edges {
				pick[step] = i
				walk(step + 1)
			}
			return
		}
		var schema sql.Schema
		var row sql.Row
		bind := func(name, value string) bool {
			if name == "" {
				return true
			}
			if j := schema.Index(name); j >= 0 {
				return row[j] == value
			}
			schema, row = append(schema, name), append(row, value)
			return true
		}
		for s, p := range pats {
			e := edges[pick[s]]
			if !bind(p.src, e[0]) || !bind(p.dst, e[1]) || (p.edge != "" && !bind(p.edge+".rel", e[2])) {
				return
			}
		}
		for _, c := range where {
			if v, err := c.Eval(row, schema); err != nil || v != true {
				return
			}
		}
		out = append(out, canonical(schema, []sql.Row{row})...)
	}
	walk(0)
	sort.Strings(out)
	return out
}

// TestFindMatchesFilteredNestedLoopProperty draws a small edge frame
// with self-loops, a motif of one to three steps over a few vertex
// names (anonymous ones and self-loops included, some edges named),
// and up to three constraints: a vertex or an edge's rel against a
// constant, and column equalities or inequalities that may fall within
// one step or span two.
func TestFindMatchesFilteredNestedLoopProperty(t *testing.T) {
	vals := []string{"a", "b", "c"}
	vertices := []string{"x", "y", "z", ""}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := spark.NewContext(spark.Config{Parallelism: 1 + rng.Intn(3), Executors: 2, BroadcastThreshold: 1 + rng.Intn(8), MaxConcurrency: 2})
		edges := make([][3]string, rng.Intn(8))
		for i := range edges {
			edges[i] = [3]string{vals[rng.Intn(3)], vals[rng.Intn(3)], []string{"p", "q"}[rng.Intn(2)]}
		}
		g := edgeFrame(t, ctx, edges)

		var terms, named, rels []string
		for i := 0; i < 1+rng.Intn(3); i++ {
			src, dst := vertices[rng.Intn(4)], vertices[rng.Intn(4)]
			if i == 0 && src == "" {
				src = "x" // a motif with no named column has no answer columns to compare
			}
			if rng.Intn(4) == 0 {
				dst = src // a self-loop, or an anonymous edge
			}
			edge := ""
			if rng.Intn(2) == 0 {
				edge = fmt.Sprintf("e%d", i)
				rels = append(rels, edge+".rel")
			}
			for _, v := range []string{src, dst} {
				if v != "" && !slices.Contains(named, v) {
					named = append(named, v)
				}
			}
			terms = append(terms, fmt.Sprintf("(%s)-[%s]->(%s)", src, edge, dst))
		}
		motif := strings.Join(terms, "; ")
		cols := append(append([]string{}, named...), rels...)
		var where []sql.Expr
		for i := rng.Intn(4); i > 0; i-- {
			a, b := cols[rng.Intn(len(cols))], cols[rng.Intn(len(cols))]
			switch rng.Intn(3) {
			case 0:
				c := vals[rng.Intn(3)]
				if strings.HasSuffix(a, ".rel") {
					c = []string{"p", "q"}[rng.Intn(2)]
				}
				where = append(where, sql.Eq(a, c))
			case 1:
				where = append(where, sql.ColEq(a, b))
			default:
				where = append(where, sql.BinOp{Op: "!=", L: sql.Col{Name: a}, R: sql.Col{Name: b}})
			}
		}

		pats, err := ParseMotif(motif)
		if err != nil {
			t.Fatal(err)
		}
		want := nestedLoop(pats, edges, where)
		got, err := g.Find(motif, where...)
		if err != nil {
			t.Logf("seed %d: Find(%q, %v): %v", seed, motif, where, err)
			return false
		}
		if c := canonical(got.Schema(), got.Collect()); !slices.Equal(c, want) {
			t.Logf("seed %d: Find(%q, %v)\n got  %v\n want %v", seed, motif, where, c, want)
			return false
		}
		post, err := g.Find(motif)
		for _, c := range where {
			if err == nil {
				post, err = post.Filter(c)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if c := canonical(post.Schema(), post.Collect()); !slices.Equal(c, want) {
			t.Logf("seed %d: Find(%q) then Filter(%v)\n got  %v\n want %v", seed, motif, where, c, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// placementEdges has four p edges and two q edges; b and c carry
// self-loops, and every vertex has two out-edges.
var placementEdges = [][3]string{
	{"a", "b", "p"}, {"b", "c", "p"}, {"c", "a", "p"},
	{"a", "c", "q"}, {"b", "b", "q"}, {"c", "c", "p"},
}

// TestFindPlacesConstraints pins the records Find's joins shuffle on
// placementEdges. With a one-row broadcast threshold every join of
// non-empty inputs is partitioned and shuffles both of them, so the
// count is the sum, over joins, of each input's rows after the
// constraints it covers.
func TestFindPlacesConstraints(t *testing.T) {
	for _, c := range []struct {
		name    string
		motif   string
		where   []sql.Expr
		shuffle int64
	}{
		// 6 + 6: the unconstrained two-hop.
		{"none", "(x)-[e0]->(y); (y)-[e1]->(z)", nil, 12},
		// 2 of step 0 (a's out-edges) + 6.
		{"constant vertex on step 0", "(x)-[e0]->(y); (y)-[e1]->(z)", []sql.Expr{sql.Eq("x", "a")}, 8},
		// 6 + 2 of step 1 (the q edges); 12 if step 1 waits for the join.
		{"constant edge on step 1", "(x)-[e0]->(y); (y)-[e1]->(z)", []sql.Expr{sql.Eq("e1.rel", "q")}, 8},
		// 2 loops of step 0 + 6.
		{"self-loop", "(x)-[]->(x); (x)-[]->(y)", nil, 8},
		// Join 1: 6 + 6, keeping the 7 two-hops whose rels agree; join
		// 2: 7 + 6. 12 + 12 + 6 if the equality waits for the last join.
		{"cross-step", "(x)-[e0]->(y); (y)-[e1]->(z); (z)-[e2]->(w)", []sql.Expr{sql.ColEq("e0.rel", "e1.rel")}, 25},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2, BroadcastThreshold: 1, MaxConcurrency: 2})
			g := edgeFrame(t, ctx, placementEdges)
			before := ctx.Snapshot()
			if _, err := g.Find(c.motif, c.where...); err != nil {
				t.Fatal(err)
			}
			if got := ctx.Snapshot().Diff(before).ShuffleRecords; got != c.shuffle {
				t.Fatalf("shuffled %d records, want %d", got, c.shuffle)
			}
		})
	}
}

// TestFindSelfLoop: "(x)-[]->(x)" keeps only the edges whose src is
// their dst, in one column.
func TestFindSelfLoop(t *testing.T) {
	ctx := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2, BroadcastThreshold: 100, MaxConcurrency: 2})
	df, err := edgeFrame(t, ctx, placementEdges).Find("(x)-[e]->(x)")
	if err != nil {
		t.Fatal(err)
	}
	got := canonical(df.Schema(), df.Collect())
	if want := []string{"e.rel=p x=c", "e.rel=q x=b"}; !slices.Equal(got, want) {
		t.Fatalf("self-loops = %v, want %v", got, want)
	}
}

// TestFindUnboundConstraint: a constraint on a column the motif does
// not bind is an error, not a constraint that silently never applies.
func TestFindUnboundConstraint(t *testing.T) {
	ctx := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2, BroadcastThreshold: 100, MaxConcurrency: 2})
	if _, err := edgeFrame(t, ctx, placementEdges).Find("(x)-[]->(y)", sql.Eq("z", "a")); err == nil {
		t.Fatal("Find accepted a constraint on an unbound column")
	}
}
