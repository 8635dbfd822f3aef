package sql

import (
	"fmt"
	"strings"
)

// Expr is a scalar expression evaluated against a row. The SQL layer and
// the SPARQL FILTER translation both compile to this representation.
type Expr interface {
	// Eval computes the expression over row (described by schema).
	Eval(row Row, schema Schema) (any, error)
	// Columns lists the column names the expression references.
	Columns() []string
}

// Col references a column by name.
type Col struct{ Name string }

// Eval implements Expr.
func (c Col) Eval(row Row, schema Schema) (any, error) {
	i := schema.Index(c.Name)
	if i < 0 {
		return nil, fmt.Errorf("sql: unknown column %q", c.Name)
	}
	return row[i], nil
}

// Columns implements Expr.
func (c Col) Columns() []string { return []string{c.Name} }

// Lit is a literal constant.
type Lit struct{ Value any }

// Eval implements Expr.
func (l Lit) Eval(Row, Schema) (any, error) { return l.Value, nil }

// Columns implements Expr.
func (l Lit) Columns() []string { return nil }

// BinOp applies a binary operator. Supported ops: = != < <= > >= AND OR.
type BinOp struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (b BinOp) Eval(row Row, schema Schema) (any, error) {
	lv, err := b.L.Eval(row, schema)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "AND":
		lb, _ := lv.(bool)
		if !lb {
			return false, nil
		}
		rv, err := b.R.Eval(row, schema)
		if err != nil {
			return nil, err
		}
		rb, _ := rv.(bool)
		return rb, nil
	case "OR":
		lb, _ := lv.(bool)
		if lb {
			return true, nil
		}
		rv, err := b.R.Eval(row, schema)
		if err != nil {
			return nil, err
		}
		rb, _ := rv.(bool)
		return rb, nil
	}
	rv, err := b.R.Eval(row, schema)
	if err != nil {
		return nil, err
	}
	cmp, ok := Compare(lv, rv)
	if !ok {
		return false, nil
	}
	switch b.Op {
	case "=":
		return cmp == 0, nil
	case "!=", "<>":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	default:
		return nil, fmt.Errorf("sql: unknown operator %q", b.Op)
	}
}

// Columns implements Expr.
func (b BinOp) Columns() []string { return append(b.L.Columns(), b.R.Columns()...) }

// Compare orders two scalar values. Numbers compare numerically (ints and
// floats interoperate); strings lexically; bools false<true. The second
// result is false when the values are not comparable.
func Compare(a, b any) (int, bool) {
	if af, aok := toFloat(a); aok {
		if bf, bok := toFloat(b); bok {
			switch {
			case af < bf:
				return -1, true
			case af > bf:
				return 1, true
			default:
				return 0, true
			}
		}
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		return strings.Compare(as, bs), true
	}
	ab, aok2 := a.(bool)
	bb, bok2 := b.(bool)
	if aok2 && bok2 {
		switch {
		case ab == bb:
			return 0, true
		case !ab:
			return -1, true
		default:
			return 1, true
		}
	}
	// Mixed string/number: compare by string rendering so dictionaries of
	// RDF terms (all strings) behave predictably.
	if aok || bok {
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)), true
	}
	return 0, false
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint32:
		return float64(x), true
	case uint64:
		return float64(x), true
	case float32:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// Eq builds the common column-equals-literal predicate.
func Eq(col string, value any) Expr { return BinOp{Op: "=", L: Col{col}, R: Lit{value}} }

// ColEq builds a column-equals-column predicate.
func ColEq(a, b string) Expr { return BinOp{Op: "=", L: Col{a}, R: Col{b}} }
