package sql

import (
	"fmt"
)

// Plan is a node of the logical query plan, the representation the
// Catalyst-style optimizer rewrites before execution. The node types
// below are the only ones.
type Plan interface{ plan() }

// Scan reads a registered table.
type Scan struct{ Table string }

// Project selects/renames columns; each entry is "col" or "col AS alias".
type Project struct {
	Input Plan
	Cols  []string
}

// FilterNode keeps rows matching Pred.
type FilterNode struct {
	Input Plan
	Pred  Expr
}

// JoinNode joins two plans on the named shared columns (natural join on
// all shared columns when On is empty).
type JoinNode struct {
	Left, Right Plan
	On          []string
	Strategy    JoinStrategy
}

func (*Scan) plan()       {}
func (*Project) plan()    {}
func (*FilterNode) plan() {}
func (*JoinNode) plan()   {}

// --- Optimizer (Catalyst-style rule passes) ---

// Optimize applies the rule passes in order: join reordering by
// estimated cardinality, then physical join-strategy selection against
// the broadcast threshold.
func (s *Session) Optimize(p Plan) Plan {
	p = reorderJoins(p, s)
	p = chooseJoinStrategies(p, s)
	return p
}

// planSchema computes the output schema of a plan without executing it.
func (s *Session) planSchema(p Plan) (Schema, error) {
	switch n := p.(type) {
	case *Scan:
		df, ok := s.tables[n.Table]
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", n.Table)
		}
		return df.Schema(), nil
	case *Project:
		out := make(Schema, len(n.Cols))
		for i, c := range n.Cols {
			name, alias := splitAlias(c)
			if alias != "" {
				out[i] = alias
			} else {
				out[i] = name
			}
		}
		return out, nil
	case *FilterNode:
		return s.planSchema(n.Input)
	case *JoinNode:
		ls, err := s.planSchema(n.Left)
		if err != nil {
			return nil, err
		}
		rs, err := s.planSchema(n.Right)
		if err != nil {
			return nil, err
		}
		on := n.On
		if len(on) == 0 {
			on = ls.Shared(rs)
		}
		out := ls.Clone()
		for _, c := range rs {
			if !contains(on, c) {
				out = append(out, c)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("sql: unknown plan node %T", p)
	}
}

// estimateRows approximates the output cardinality of a plan. Scans are
// exact (the catalog knows table sizes); filters apply a fixed
// selectivity; joins multiply by a containment factor. The estimates
// drive join ordering and broadcast selection exactly as Catalyst's
// statistics do.
func (s *Session) estimateRows(p Plan) int {
	const filterSelectivity = 4 // keep 1/4
	switch n := p.(type) {
	case *Scan:
		if df, ok := s.tables[n.Table]; ok {
			return df.Count()
		}
		return 0
	case *Project:
		return s.estimateRows(n.Input)
	case *FilterNode:
		e := s.estimateRows(n.Input) / filterSelectivity
		if e < 1 {
			e = 1
		}
		return e
	case *JoinNode:
		l := s.estimateRows(n.Left)
		r := s.estimateRows(n.Right)
		if l > r {
			return l
		}
		return r
	default:
		return 0
	}
}

// reorderJoins flattens chains of natural inner joins and greedily
// re-links them smallest-first, keeping each step connected (sharing at
// least one column with the accumulated left side) to avoid accidental
// cross products — the optimization SPARQLGX and S2RDF both apply.
func reorderJoins(p Plan, s *Session) Plan {
	switch n := p.(type) {
	case *JoinNode:
		if len(n.On) > 0 {
			n.Left = reorderJoins(n.Left, s)
			n.Right = reorderJoins(n.Right, s)
			return n
		}
		leaves := flattenJoins(n)
		if len(leaves) <= 2 {
			n.Left = reorderJoins(n.Left, s)
			n.Right = reorderJoins(n.Right, s)
			return n
		}
		for i := range leaves {
			leaves[i] = reorderJoins(leaves[i], s)
		}
		return s.linkJoins(leaves)
	case *FilterNode:
		n.Input = reorderJoins(n.Input, s)
		return n
	case *Project:
		n.Input = reorderJoins(n.Input, s)
		return n
	default:
		return p
	}
}

// flattenJoins collects the leaves of a tree of natural inner joins.
func flattenJoins(p Plan) []Plan {
	if j, ok := p.(*JoinNode); ok && len(j.On) == 0 {
		return append(flattenJoins(j.Left), flattenJoins(j.Right)...)
	}
	return []Plan{p}
}

// linkJoins greedily builds a left-deep join tree: start from the
// smallest leaf, repeatedly attach the smallest connected leaf.
func (s *Session) linkJoins(leaves []Plan) Plan {
	remaining := append([]Plan{}, leaves...)
	best := 0
	for i := 1; i < len(remaining); i++ {
		if s.estimateRows(remaining[i]) < s.estimateRows(remaining[best]) {
			best = i
		}
	}
	current := remaining[best]
	remaining = append(remaining[:best], remaining[best+1:]...)
	curSchema, _ := s.planSchema(current)

	for len(remaining) > 0 {
		pick := -1
		for i, cand := range remaining {
			cs, err := s.planSchema(cand)
			if err != nil {
				continue
			}
			if len(curSchema.Shared(cs)) == 0 {
				continue
			}
			if pick < 0 || s.estimateRows(cand) < s.estimateRows(remaining[pick]) {
				pick = i
			}
		}
		if pick < 0 {
			// No connected leaf: fall back to the smallest (cross product).
			pick = 0
			for i := 1; i < len(remaining); i++ {
				if s.estimateRows(remaining[i]) < s.estimateRows(remaining[pick]) {
					pick = i
				}
			}
		}
		next := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		current = &JoinNode{Left: current, Right: next}
		curSchema, _ = s.planSchema(current)
	}
	return current
}

// chooseJoinStrategies resolves JoinAuto into broadcast or partitioned
// using estimated cardinalities against the broadcast threshold.
func chooseJoinStrategies(p Plan, s *Session) Plan {
	switch n := p.(type) {
	case *JoinNode:
		n.Left = chooseJoinStrategies(n.Left, s)
		n.Right = chooseJoinStrategies(n.Right, s)
		if n.Strategy == JoinAuto {
			threshold := s.ctx.Conf().BroadcastThreshold
			if s.estimateRows(n.Left) < threshold || s.estimateRows(n.Right) < threshold {
				n.Strategy = JoinBroadcast
			} else {
				n.Strategy = JoinPartitioned
			}
		}
		return n
	case *FilterNode:
		n.Input = chooseJoinStrategies(n.Input, s)
		return n
	case *Project:
		n.Input = chooseJoinStrategies(n.Input, s)
		return n
	default:
		return p
	}
}
