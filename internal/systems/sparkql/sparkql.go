// Package sparkql reproduces Spar(k)ql (Gombos, Rácz, Kiss, FiCloud
// Workshops 2016, survey ref [12]): SPARQL evaluation on GraphX with a
// property-graph node model. Object properties (IRI-valued predicates)
// are the edges of the graph; data properties (literal-valued
// predicates) are stored inside the nodes as node properties — and so
// is rdf:type, despite being an object property, because of its
// popularity in SPARQL queries.
//
// A query plan is a tree built breadth-first over the object-property
// patterns. Execution traverses the plan bottom-up: every node first
// solves its local data-property constraints against the stored node
// properties, then child sub-result tables flow along the tree edges
// (one message round per tree level) and merge at their parents, until
// the root holds the answer.
//
// Supported fragment (Table II): BGP, with query optimization (the
// BFS plan).
package sparkql

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/spark/graphx"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
)

// nodeProps is the property map of a vertex: predicate id -> value ids.
type nodeProps map[rdf.TermID][]rdf.TermID

// Engine is the Spar(k)ql system. A vertex id is the TermID of the term
// the vertex is; an edge's property is its predicate's id.
type Engine struct {
	solutions.Source
	ctx   *spark.Context
	data  *solutions.Dataset
	graph *graphx.Graph[struct{}, rdf.TermID]
	props map[graphx.VertexID]nodeProps
	// propPreds and edgePreds are the predicates stored as a node
	// property of at least one node, and as at least one edge.
	propPreds, edgePreds map[rdf.TermID]bool
}

// New creates an unloaded engine on ctx.
func New(ctx *spark.Context) *Engine { return &Engine{ctx: ctx} }

// Info implements core.Engine.
func (e *Engine) Info() core.SystemInfo {
	return core.SystemInfo{
		Name:            "Spar(k)ql",
		Citation:        "[12]",
		Model:           core.GraphModel,
		Abstractions:    []core.Abstraction{core.GraphXAbstraction},
		QueryProcessing: "Graph Iterations",
		Optimized:       true,
		Partitioning:    "Default",
		SPARQL:          core.FragmentBGP,
	}
}

// Context implements core.Engine.
func (e *Engine) Context() *spark.Context { return e.ctx }

// Load splits the dataset per the node model: literal-valued triples
// and rdf:type become node properties; IRI-valued triples become
// edges.
func (e *Engine) Load(triples []rdf.Triple) error {
	d, err := e.Dataset(triples)
	if err != nil {
		return fmt.Errorf("sparkql: %w", err)
	}
	e.data = d
	e.props = map[graphx.VertexID]nodeProps{}
	e.propPreds, e.edgePreds = map[rdf.TermID]bool{}, map[rdf.TermID]bool{}
	seen := map[rdf.TermID]bool{}
	var vertices []graphx.Vertex[struct{}]
	vertex := func(id rdf.TermID) graphx.VertexID {
		if !seen[id] {
			seen[id] = true
			vertices = append(vertices, graphx.Vertex[struct{}]{ID: graphx.VertexID(id)})
		}
		return graphx.VertexID(id)
	}
	var edges []graphx.Edge[rdf.TermID]
	for _, t := range d.Triples {
		sid := vertex(t.S)
		if d.Term(t.O).IsLiteral() || d.Term(t.P).Value == rdf.RDFType {
			if e.props[sid] == nil {
				e.props[sid] = nodeProps{}
			}
			e.props[sid][t.P] = append(e.props[sid][t.P], t.O)
			e.propPreds[t.P] = true
			continue
		}
		edges = append(edges, graphx.Edge[rdf.TermID]{Src: sid, Dst: vertex(t.O), Attr: t.P})
		e.edgePreds[t.P] = true
	}
	e.graph = graphx.New(e.ctx, vertices, edges)
	return nil
}

// Execute implements core.Engine. Only BGP queries are supported.
func (e *Engine) Execute(q *sparql.Query) (*sparql.Results, error) {
	s, err := e.data.Schema("sparkql", q, true)
	if err != nil {
		return nil, err
	}
	bgp, _ := q.BGPOf()
	rows, err := e.evalBGP(s, bgp)
	if err != nil {
		return nil, err
	}
	return sparql.Answer(q, s.Vars, e.data.Dict, rows)
}

// nodeKey identifies a query node (a subject/object position): either
// a variable or a constant term.
type nodeKey string

func keyOfElem(el sparql.TPElem) nodeKey {
	if el.IsVar {
		return nodeKey("?" + string(el.Var))
	}
	return nodeKey(el.Term.String())
}

func (e *Engine) evalBGP(s *solutions.Schema, bgp sparql.BGP) ([]solutions.Row, error) {
	if len(bgp.Patterns) == 0 {
		return []solutions.Row{s.Row()}, nil
	}
	// Split patterns: node-local (data property / rdf:type), edge
	// patterns (object properties), and leftovers spanning both stores:
	// a variable predicate, or one stored both ways because it has
	// literal and IRI objects.
	var edgeTPs, leftovers []sparql.TriplePattern
	nodeTPs := map[nodeKey][]sparql.TriplePattern{}
	for _, tp := range bgp.Patterns {
		switch p := e.data.ID(tp.P.Term); {
		case tp.P.IsVar, e.propPreds[p] && e.edgePreds[p]:
			leftovers = append(leftovers, tp)
		case e.isNodeProperty(tp):
			k := keyOfElem(tp.S)
			nodeTPs[k] = append(nodeTPs[k], tp)
		default:
			edgeTPs = append(edgeTPs, tp)
		}
	}

	// Build the BFS query tree over the edge patterns.
	tree, treeLeftovers := buildBFSTree(edgeTPs)
	leftovers = append(leftovers, treeLeftovers...)

	// Evaluate every tree component bottom-up, then join components and
	// leftovers at the driver (Spark side).
	rows := []solutions.Row{s.Row()}
	var err error
	join := func(table []solutions.Row) {
		if err == nil {
			rows, err = sparql.JoinRows(rows, table, false)
		}
	}
	usedNodes := map[nodeKey]bool{}
	for _, root := range tree.roots {
		join(e.evalSubtree(s, tree, root, nodeTPs, usedNodes))
	}
	// Node-only variables (no edges touch them).
	for k, tps := range nodeTPs {
		if usedNodes[k] {
			continue
		}
		table := e.nodeTable(s, elemOfKey(k, tps), tps)
		usedNodes[k] = true
		join(flatten(table))
	}
	for _, tp := range leftovers {
		join(e.matchAnywhere(s, tp))
	}
	return rows, err
}

// isNodeProperty reports whether a constant-predicate pattern not
// stored both ways should be answered from node properties: rdf:type
// always; otherwise when the predicate is a data property.
func (e *Engine) isNodeProperty(tp sparql.TriplePattern) bool {
	if tp.P.Term.Value == rdf.RDFType {
		return true
	}
	if !tp.O.IsVar && !tp.O.Term.IsLiteral() {
		return false
	}
	return e.propPreds[e.data.ID(tp.P.Term)]
}

// queryTree is the BFS plan: parent -> children over edge patterns.
type queryTree struct {
	roots    []nodeKey
	children map[nodeKey][]treeLink
}

// treeLink connects a parent query node to a child via one pattern.
type treeLink struct {
	child nodeKey
	tp    sparql.TriplePattern
	// down is true when the pattern points parent -> child
	// (parent is the subject).
	down bool
}

// buildBFSTree builds a forest over the edge patterns; patterns that
// would close a cycle are returned as leftovers to be joined at the
// driver.
func buildBFSTree(tps []sparql.TriplePattern) (*queryTree, []sparql.TriplePattern) {
	tree := &queryTree{children: map[nodeKey][]treeLink{}}
	if len(tps) == 0 {
		return tree, nil
	}
	var leftovers []sparql.TriplePattern
	visited := map[nodeKey]bool{}
	usedTP := make([]bool, len(tps))
	for {
		// Pick the first unused pattern as a new root.
		rootIdx := -1
		for i := range tps {
			if !usedTP[i] {
				rootIdx = i
				break
			}
		}
		if rootIdx < 0 {
			break
		}
		root := keyOfElem(tps[rootIdx].S)
		if visited[root] {
			// Subject already in the forest — the pattern closes a cycle.
			usedTP[rootIdx] = true
			leftovers = append(leftovers, tps[rootIdx])
			continue
		}
		tree.roots = append(tree.roots, root)
		visited[root] = true
		queue := []nodeKey{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for i, tp := range tps {
				if usedTP[i] {
					continue
				}
				s, o := keyOfElem(tp.S), keyOfElem(tp.O)
				var child nodeKey
				var down bool
				switch {
				case s == cur && !visited[o]:
					child, down = o, true
				case o == cur && !visited[s]:
					child, down = s, false
				case (s == cur && visited[o]) || (o == cur && visited[s]):
					// Cycle-closing pattern.
					usedTP[i] = true
					leftovers = append(leftovers, tp)
					continue
				default:
					continue
				}
				usedTP[i] = true
				visited[child] = true
				tree.children[cur] = append(tree.children[cur], treeLink{child: child, tp: tp, down: down})
				queue = append(queue, child)
			}
		}
	}
	return tree, leftovers
}

// nodeTable builds the local sub-result table of a query node: for
// every graph vertex, the rows satisfying all the node's data-property
// constraints (plus the node variable itself).
func (e *Engine) nodeTable(s *solutions.Schema, el sparql.TPElem, tps []sparql.TriplePattern) map[graphx.VertexID][]solutions.Row {
	out := map[graphx.VertexID][]solutions.Row{}
	slot, objSlots := -1, make([]int, len(tps))
	if el.IsVar {
		slot = s.Slot(el.Var)
	}
	for i, tp := range tps {
		objSlots[i] = -1
		if tp.O.IsVar {
			objSlots[i] = s.Slot(tp.O.Var)
		}
	}
	preds, objs := make([]rdf.TermID, len(tps)), make([]rdf.TermID, len(tps))
	for i, tp := range tps {
		preds[i], objs[i] = e.data.ID(tp.P.Term), e.data.ID(tp.O.Term)
	}
	consider := func(vid graphx.VertexID) {
		if len(tps) > 0 && len(e.props[vid][preds[0]]) == 0 {
			return // no row survives the first constraint
		}
		base := s.Row()
		if slot >= 0 {
			base[slot] = rdf.TermID(vid)
		}
		rows := []solutions.Row{base}
		for i := range tps {
			var next []solutions.Row
			vals := e.props[vid][preds[i]]
			o := objSlots[i]
			for _, row := range rows {
				for _, val := range vals {
					switch {
					case o < 0:
						if objs[i] == val {
							next = append(next, row)
						}
					case solutions.Bound(row[o]):
						if row[o] == val {
							next = append(next, row)
						}
					default:
						nb := slices.Clone(row)
						nb[o] = val
						next = append(next, nb)
					}
				}
			}
			rows = next
			if len(rows) == 0 {
				return
			}
		}
		out[vid] = rows
	}
	if !el.IsVar {
		if id := e.data.ID(el.Term); solutions.Bound(id) {
			consider(graphx.VertexID(id))
		}
		return out
	}
	for _, v := range e.graph.Vertices().Collect() {
		consider(v.ID)
	}
	return out
}

// evalSubtree evaluates the plan bottom-up from root's subtree,
// returning the joined table. Each tree level costs one message round
// (superstep); child tables travel along matching edges.
func (e *Engine) evalSubtree(s *solutions.Schema, tree *queryTree, node nodeKey, nodeTPs map[nodeKey][]sparql.TriplePattern, used map[nodeKey]bool) []solutions.Row {
	used[node] = true
	el := elemOfKey(node, nodeTPs[node])
	table := e.nodeTable(s, el, nodeTPs[node])
	for _, link := range tree.children[node] {
		childTable := e.evalSubtree(s, tree, link.child, nodeTPs, used)
		// Index child rows by the child node's vertex.
		childEl := elemOfKeyTP(link.child, link.tp, link.down)
		byVertex := map[graphx.VertexID][]solutions.Row{}
		constant := e.data.ID(childEl.Term)
		for _, row := range childTable {
			id := constant
			if childEl.IsVar {
				id = row[s.Slot(childEl.Var)]
			}
			byVertex[graphx.VertexID(id)] = append(byVertex[graphx.VertexID(id)], row)
		}
		// One aggregateMessages round: child rows flow along matching
		// edges to the parent vertex.
		pred := e.data.ID(link.tp.P.Term)
		msgs := graphx.AggregateMessages(e.graph,
			func(c *graphx.EdgeContext[struct{}, rdf.TermID, []solutions.Row]) {
				if c.Triplet.Attr != pred {
					return
				}
				if link.down {
					// parent --pred--> child: child rows at Dst flow to Src.
					if rows := byVertex[c.Triplet.Dst]; len(rows) > 0 {
						c.SendToSrc(rows)
					}
				} else {
					if rows := byVertex[c.Triplet.Src]; len(rows) > 0 {
						c.SendToDst(rows)
					}
				}
			},
			// Every message is a child vertex's table itself, so the merge
			// copies: appending in place would write past one table's end
			// into the same spare capacity for each parent it reaches.
			func(a, b []solutions.Row) []solutions.Row { return append(a[:len(a):len(a)], b...) })
		e.ctx.AddSupersteps(1)
		// Merge arriving child rows into the parent's table per vertex;
		// the parent end of the edge must be this vertex.
		parent := -1
		if el.IsVar {
			parent = s.Slot(el.Var)
		}
		next := map[graphx.VertexID][]solutions.Row{}
		for vid, parentRows := range table {
			arrivals := msgs[vid]
			if len(arrivals) == 0 {
				continue
			}
			for _, pr := range parentRows {
				if parent >= 0 && pr[parent] != rdf.TermID(vid) {
					continue
				}
				for _, cr := range arrivals {
					if merged, ok := solutions.Merge(pr, cr); ok {
						next[vid] = append(next[vid], merged)
					}
				}
			}
		}
		table = next
	}
	return flatten(table)
}

// matchAnywhere evaluates a leftover pattern against both edges and
// node properties (variable predicates span both stores).
func (e *Engine) matchAnywhere(s *solutions.Schema, tp sparql.TriplePattern) []solutions.Row {
	pat := s.Pattern(tp)
	var out []solutions.Row
	emit := func(t rdf.EncodedTriple) {
		if r, ok := pat.Match(t); ok {
			out = append(out, r)
		}
	}
	for _, ed := range e.graph.Edges().Collect() {
		emit(rdf.EncodedTriple{S: rdf.TermID(ed.Src), P: ed.Attr, O: rdf.TermID(ed.Dst)})
	}
	for vid, ps := range e.props {
		for p, vals := range ps {
			for _, val := range vals {
				emit(rdf.EncodedTriple{S: rdf.TermID(vid), P: p, O: val})
			}
		}
	}
	return out
}

func elemOfKey(k nodeKey, tps []sparql.TriplePattern) sparql.TPElem {
	if len(tps) > 0 {
		return tps[0].S
	}
	return elemFromKeyString(k)
}

func elemOfKeyTP(k nodeKey, tp sparql.TriplePattern, down bool) sparql.TPElem {
	if down {
		return tp.O
	}
	return tp.S
}

// elemFromKeyString reverses keyOfElem for variables; constants are
// reparsed from their N-Triples rendering.
func elemFromKeyString(k nodeKey) sparql.TPElem {
	s := string(k)
	if len(s) > 0 && s[0] == '?' {
		return sparql.VarElem(sparql.Var(s[1:]))
	}
	// Constant: parse the rendered term via a dummy triple line.
	t, err := rdf.ParseTripleLine("<http://x/s> <http://x/p> " + s + " .")
	if err != nil {
		return sparql.TPElem{}
	}
	return sparql.TermElem(t.O)
}

func flatten(m map[graphx.VertexID][]solutions.Row) []solutions.Row {
	var out []solutions.Row
	for _, rows := range m {
		out = append(out, rows...)
	}
	return out
}
