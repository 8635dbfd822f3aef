package graphx

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/spark"
)

func gctx() *spark.Context {
	return spark.NewContext(spark.Config{Parallelism: 4, Executors: 2, MaxConcurrency: 4})
}

// chain builds 1 -> 2 -> ... -> n, every vertex carrying attr.
func chain[VD any](ctx *spark.Context, n int, attr VD) *Graph[VD, string] {
	var vs []Vertex[VD]
	var es []Edge[string]
	for i := 1; i <= n; i++ {
		vs = append(vs, Vertex[VD]{VertexID(i), attr})
		if i < n {
			es = append(es, Edge[string]{VertexID(i), VertexID(i + 1), "next"})
		}
	}
	return New(ctx, vs, es)
}

func TestAggregateMessagesDegreeCount(t *testing.T) {
	ctx := gctx()
	g := chain(ctx, 4, 0)
	before := ctx.Snapshot()
	inDeg := AggregateMessages(g, func(c *EdgeContext[int, string, int]) {
		c.SendToDst(1)
	}, func(a, b int) int { return a + b })
	if inDeg[2] != 1 || inDeg[4] != 1 {
		t.Fatalf("inDeg = %v", inDeg)
	}
	if _, ok := inDeg[1]; ok {
		t.Fatal("vertex 1 has no in-edges")
	}
	d := ctx.Snapshot().Diff(before)
	if d.MessagesSent != 3 {
		t.Fatalf("messages = %d, want 3", d.MessagesSent)
	}
}

// AggregateMessages (one task per edge partition, one reused
// EdgeContext per task, one vertex index per graph) against a per-edge
// reference: a fresh context for every edge in edge order, each message
// merged on arrival. Messages record their edge and the triplet's
// attributes, and merging concatenates, so the maps agree only if every
// triplet, every message and each vertex's message order do. Mutants it
// catches, each checked: toSrc / toDst not reset between edges; the
// toDst messages delivered before the toSrc ones (self-loops); the
// vertex index built without the sync.Once (a race under -race, from
// the concurrent calls).

func refAggregate[VD, ED, M any](g *Graph[VD, ED], sendMsg func(*EdgeContext[VD, ED, M]), mergeMsg func(M, M) M) map[VertexID]M {
	attr := map[VertexID]VD{}
	for _, v := range g.Vertices().Collect() {
		attr[v.ID] = v.Attr
	}
	out := map[VertexID]M{}
	deliver := func(to VertexID, m M) {
		if cur, ok := out[to]; ok {
			m = mergeMsg(cur, m)
		}
		out[to] = m
	}
	for _, e := range g.Edges().Collect() {
		c := &EdgeContext[VD, ED, M]{Triplet: Triplet[VD, ED]{Src: e.Src, Dst: e.Dst, SrcAttr: attr[e.Src], DstAttr: attr[e.Dst], Attr: e.Attr}}
		sendMsg(c)
		for _, m := range c.toSrc {
			deliver(e.Src, m)
		}
		for _, m := range c.toDst {
			deliver(e.Dst, m)
		}
	}
	return out
}

// randomGraph draws up to 12 vertices and 60 edges, self-loops
// included, labeled "a" to "c".
func randomGraph(ctx *spark.Context, r *rand.Rand) *Graph[int, string] {
	n := 1 + r.Intn(12)
	var vs []Vertex[int]
	for i := 1; i <= n; i++ {
		vs = append(vs, Vertex[int]{VertexID(i), 100 * i})
	}
	var es []Edge[string]
	for i := r.Intn(60); i > 0; i-- {
		es = append(es, Edge[string]{VertexID(1 + r.Intn(n)), VertexID(1 + r.Intn(n)), string(rune('a' + r.Intn(3)))})
	}
	return New(ctx, vs, es)
}

// sendByLabel sends 0–2 messages each way, depending on the label and
// the endpoints' attributes, each naming its edge and direction.
func sendByLabel(c *EdgeContext[int, string, []string]) {
	t := c.Triplet
	msg := func(dir string, k int) []string {
		return []string{fmt.Sprintf("%s %d(%d)->%d(%d) %s #%d", dir, t.Src, t.SrcAttr, t.Dst, t.DstAttr, t.Attr, k)}
	}
	for k := 0; k < int(t.Attr[0]-'a'); k++ {
		c.SendToSrc(msg("src", k))
	}
	if (t.SrcAttr+t.DstAttr)%300 != 0 {
		c.SendToDst(msg("dst", 0))
	}
}

func concat(a, b []string) []string { return append(slices.Clone(a), b...) }

func TestAggregateMessagesMatchesPerEdgeReference(t *testing.T) {
	check := func(seed int64) bool {
		ctx := gctx()
		g := randomGraph(ctx, rand.New(rand.NewSource(seed)))
		want := refAggregate(g, sendByLabel, concat)
		sent := 0
		for _, m := range want {
			sent += len(m)
		}
		for round := 0; round < 2; round++ { // the second reuses the vertex index
			before := ctx.Snapshot()
			got := AggregateMessages(g, sendByLabel, concat)
			d := ctx.Snapshot().Diff(before)
			if !reflect.DeepEqual(got, want) || d.MessagesSent != int64(sent) || d.Tasks != int64(ctx.DefaultParallelism()) {
				t.Logf("seed %d round %d: got %v, want %v; %d messages, %d tasks", seed, round, got, want, d.MessagesSent, d.Tasks)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Supersteps on one Graph may run at once: the first builds the vertex
// index while the others wait for it, and every one sees the same map.
func TestAggregateMessagesConcurrentOnOneGraph(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(gctx(), rand.New(rand.NewSource(seed)))
		want := refAggregate(g, sendByLabel, concat)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := AggregateMessages(g, sendByLabel, concat); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: concurrent call got %v, want %v", seed, got, want)
				}
			}()
		}
		wg.Wait()
	}
}
