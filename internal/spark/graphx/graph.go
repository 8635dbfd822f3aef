// Package graphx simulates Spark GraphX: a property graph distributed
// over the spark substrate and the aggregateMessages vertex-program
// API. The graph-model RDF engines (S2X [23], Kassaie [16],
// Spar(k)ql [12]) are built on this package.
//
// Cost model: every message sent between vertices is metered on the
// owning spark.Context, and the engines meter each superstep of their
// vertex programs there too, because the survey's assessment of the
// graph-processing engines is in terms of iteration rounds and message
// traffic.
package graphx

import (
	"sync"

	"repro/internal/spark"
)

// VertexID identifies a vertex, like org.apache.spark.graphx.VertexId.
type VertexID int64

// Vertex carries a vertex identifier and its property value.
type Vertex[VD any] struct {
	ID   VertexID
	Attr VD
}

// Edge is a directed edge with a property value.
type Edge[ED any] struct {
	Src, Dst VertexID
	Attr     ED
}

// Triplet is an edge together with both endpoint properties, like
// GraphX's EdgeTriplet.
type Triplet[VD, ED any] struct {
	Src     VertexID
	Dst     VertexID
	SrcAttr VD
	DstAttr VD
	Attr    ED
}

// Graph is an immutable property graph. Vertices and edges live in RDDs
// so construction is metered; message passing joins triplets against
// one vertex index, built on the first superstep and kept for every
// later one, as GraphX keeps its replicated vertex views materialized
// across iterations.
type Graph[VD, ED any] struct {
	ctx      *spark.Context
	vertices *spark.RDD[Vertex[VD]]
	edges    *spark.RDD[Edge[ED]]

	indexOnce sync.Once
	index     map[VertexID]VD
}

// New builds a graph from explicit vertex and edge lists.
func New[VD, ED any](ctx *spark.Context, vertices []Vertex[VD], edges []Edge[ED]) *Graph[VD, ED] {
	return &Graph[VD, ED]{
		ctx:      ctx,
		vertices: spark.Parallelize(ctx, vertices),
		edges:    spark.Parallelize(ctx, edges),
	}
}

// Vertices returns the vertex RDD.
func (g *Graph[VD, ED]) Vertices() *spark.RDD[Vertex[VD]] { return g.vertices }

// Edges returns the edge RDD.
func (g *Graph[VD, ED]) Edges() *spark.RDD[Edge[ED]] { return g.edges }

// NumVertices returns the vertex count.
func (g *Graph[VD, ED]) NumVertices() int { return g.vertices.Count() }

// NumEdges returns the edge count.
func (g *Graph[VD, ED]) NumEdges() int { return g.edges.Count() }

// vertexIndex returns id → attr for local joins during supersteps. It
// is read-only once built, so concurrent supersteps share it.
func (g *Graph[VD, ED]) vertexIndex() map[VertexID]VD {
	g.indexOnce.Do(func() {
		g.index = make(map[VertexID]VD, g.vertices.Count())
		for _, v := range g.vertices.Collect() {
			g.index[v.ID] = v.Attr
		}
	})
	return g.index
}

// EdgeContext is passed to the sendMsg function of AggregateMessages; it
// exposes the triplet and collects messages to either endpoint. A task
// reuses one context for every edge of its partition, so it is valid
// only during the sendMsg call it is passed to.
type EdgeContext[VD, ED, M any] struct {
	Triplet Triplet[VD, ED]
	toSrc   []M
	toDst   []M
}

// SendToSrc queues a message to the edge's source vertex.
func (c *EdgeContext[VD, ED, M]) SendToSrc(m M) { c.toSrc = append(c.toSrc, m) }

// SendToDst queues a message to the edge's destination vertex.
func (c *EdgeContext[VD, ED, M]) SendToDst(m M) { c.toDst = append(c.toDst, m) }

// AggregateMessages runs sendMsg over every triplet and merges messages
// per destination vertex with mergeMsg, like Graph.aggregateMessages:
// one task per edge partition, each walking its edges in order with one
// EdgeContext. Message traffic is metered on the context.
func AggregateMessages[VD, ED, M any](g *Graph[VD, ED], sendMsg func(*EdgeContext[VD, ED, M]), mergeMsg func(M, M) M) map[VertexID]M {
	idx := g.vertexIndex()
	type delivery struct {
		to  VertexID
		msg M
	}
	deliveries := spark.MapPartitions(g.edges, func(part []Edge[ED]) []delivery {
		var out []delivery
		ec := &EdgeContext[VD, ED, M]{}
		for _, e := range part {
			ec.Triplet = Triplet[VD, ED]{Src: e.Src, Dst: e.Dst, SrcAttr: idx[e.Src], DstAttr: idx[e.Dst], Attr: e.Attr}
			ec.toSrc, ec.toDst = ec.toSrc[:0], ec.toDst[:0]
			sendMsg(ec)
			for _, m := range ec.toSrc {
				out = append(out, delivery{e.Src, m})
			}
			for _, m := range ec.toDst {
				out = append(out, delivery{e.Dst, m})
			}
		}
		return out
	})
	all := deliveries.Collect()
	g.ctx.AddMessages(len(all))
	merged := make(map[VertexID]M)
	for _, d := range all {
		if m, ok := merged[d.to]; ok {
			merged[d.to] = mergeMsg(m, d.msg)
		} else {
			merged[d.to] = d.msg
		}
	}
	return merged
}
