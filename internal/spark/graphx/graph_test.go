package graphx

import (
	"testing"

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
