package sql

import (
	"fmt"

	"repro/internal/spark"
)

// Session is the simulated SparkSession: a catalog of registered tables
// plus the SQL entry points.
type Session struct {
	ctx    *spark.Context
	tables map[string]*DataFrame
}

// NewSession creates an empty session bound to ctx.
func NewSession(ctx *spark.Context) *Session {
	return &Session{ctx: ctx, tables: make(map[string]*DataFrame)}
}

// RegisterTable makes df queryable under name, replacing any previous
// registration.
func (s *Session) RegisterTable(name string, df *DataFrame) { s.tables[name] = df }

// Query parses, optimizes, and executes a SQL statement.
func (s *Session) Query(sqlText string) (*DataFrame, error) {
	plan, err := ParseSQL(sqlText)
	if err != nil {
		return nil, err
	}
	return s.Run(plan)
}

// Run optimizes and executes an already-built logical plan.
func (s *Session) Run(plan Plan) (*DataFrame, error) {
	return s.Execute(s.Optimize(plan))
}

// Execute runs a logical plan without further optimization.
func (s *Session) Execute(p Plan) (*DataFrame, error) {
	switch n := p.(type) {
	case *Scan:
		df, ok := s.tables[n.Table]
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", n.Table)
		}
		return df, nil
	case *Project:
		in, err := s.Execute(n.Input)
		if err != nil {
			return nil, err
		}
		if len(n.Cols) == 1 && n.Cols[0] == "*" {
			return in, nil
		}
		return in.Select(n.Cols...)
	case *FilterNode:
		in, err := s.Execute(n.Input)
		if err != nil {
			return nil, err
		}
		return in.Filter(n.Pred)
	case *JoinNode:
		l, err := s.Execute(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := s.Execute(n.Right)
		if err != nil {
			return nil, err
		}
		on := n.On
		if len(on) == 0 {
			on = l.Schema().Shared(r.Schema())
		}
		if len(on) == 0 {
			return l.CrossJoin(r), nil
		}
		return l.Join(r, on, n.Strategy)
	default:
		return nil, fmt.Errorf("sql: cannot execute plan node %T", p)
	}
}
