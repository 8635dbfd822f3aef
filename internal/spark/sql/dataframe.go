package sql

import (
	"fmt"
	"strings"

	"repro/internal/spark"
)

// DataFrame is an immutable, schema'd, partitioned table — the simulated
// counterpart of org.apache.spark.sql.DataFrame. It wraps an RDD of rows
// so all shuffle/broadcast accounting flows through the spark substrate.
//
// Per the survey (Sec. III), DataFrames differ from raw RDDs in two ways
// that matter to the engines: the schema enables an optimizer, and the
// columnar encoding is far more compact than Java serialization. Only
// the first is modeled: a DataFrame shuffle is metered like any RDD
// shuffle, its bytes estimated from a sample of the rows it moves.
type DataFrame struct {
	ctx    *spark.Context
	schema Schema
	rdd    *spark.RDD[Row]
}

// NewDataFrame builds a DataFrame from rows. Rows shorter than the
// schema are padded with nils; longer rows are an error.
func NewDataFrame(ctx *spark.Context, schema Schema, rows []Row) (*DataFrame, error) {
	fixed := make([]Row, len(rows))
	for i, r := range rows {
		if len(r) > len(schema) {
			return nil, fmt.Errorf("sql: row %d has %d values for %d columns", i, len(r), len(schema))
		}
		row := make(Row, len(schema))
		copy(row, r)
		fixed[i] = row
	}
	return &DataFrame{ctx: ctx, schema: schema.Clone(), rdd: spark.Parallelize(ctx, fixed)}, nil
}

func fromRDD(ctx *spark.Context, schema Schema, rdd *spark.RDD[Row]) *DataFrame {
	return &DataFrame{ctx: ctx, schema: schema, rdd: rdd}
}

// Schema returns the column names.
func (d *DataFrame) Schema() Schema { return d.schema.Clone() }

// Count returns the number of rows.
func (d *DataFrame) Count() int { return d.rdd.Count() }

// Collect gathers all rows to the driver.
func (d *DataFrame) Collect() []Row { return d.rdd.Collect() }

// Filter keeps rows where pred evaluates to true.
func (d *DataFrame) Filter(pred Expr) (*DataFrame, error) {
	for _, c := range pred.Columns() {
		if !d.schema.Has(c) {
			return nil, fmt.Errorf("sql: unknown column %q", c)
		}
	}
	schema := d.schema
	out := d.rdd.Filter(func(r Row) bool {
		v, err := pred.Eval(r, schema)
		if err != nil {
			return false
		}
		b, _ := v.(bool)
		return b
	})
	return fromRDD(d.ctx, schema, out), nil
}

// Select projects (and optionally renames) columns. Each selection is
// "col" or "col AS alias".
func (d *DataFrame) Select(cols ...string) (*DataFrame, error) {
	idx := make([]int, len(cols))
	names := make(Schema, len(cols))
	for i, c := range cols {
		name, alias := splitAlias(c)
		j := d.schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", name)
		}
		idx[i] = j
		if alias != "" {
			names[i] = alias
		} else {
			names[i] = name
		}
	}
	out := spark.Map(d.rdd, func(r Row) Row {
		row := make(Row, len(idx))
		for i, j := range idx {
			row[i] = r[j]
		}
		return row
	})
	return fromRDD(d.ctx, names, out), nil
}

func splitAlias(c string) (name, alias string) {
	parts := strings.Fields(c)
	if len(parts) == 3 && strings.EqualFold(parts[1], "AS") {
		return parts[0], parts[2]
	}
	return strings.TrimSpace(c), ""
}

// rowKeyCols renders the cells at idx as one join key, NUL-separated. A
// lone string cell is its own key; other cells print through fmt.
func rowKeyCols(r Row, idx []int) string {
	if s, ok := r[idx[0]].(string); ok && len(idx) == 1 {
		return s
	}
	var b strings.Builder
	for i, j := range idx {
		if i > 0 {
			b.WriteByte(0)
		}
		if s, ok := r[j].(string); ok {
			b.WriteString(s)
		} else {
			fmt.Fprint(&b, r[j])
		}
	}
	return b.String()
}

// JoinStrategy selects the physical join implementation.
type JoinStrategy int

const (
	// JoinAuto picks broadcast when one side is under the context's
	// BroadcastThreshold, else a partitioned shuffle join — Catalyst's
	// size-based policy.
	JoinAuto JoinStrategy = iota
	// JoinPartitioned forces the shuffle hash join.
	JoinPartitioned
	// JoinBroadcast forces broadcasting the smaller side.
	JoinBroadcast
)

// Join computes the natural inner join on the given shared columns using
// the chosen strategy. The result schema is the left schema followed by
// the right schema minus the join columns.
func (d *DataFrame) Join(other *DataFrame, on []string, strategy JoinStrategy) (*DataFrame, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("sql: join requires at least one column (use CrossJoin for products)")
	}
	li := make([]int, len(on))
	ri := make([]int, len(on))
	for i, c := range on {
		li[i] = d.schema.Index(c)
		ri[i] = other.schema.Index(c)
		if li[i] < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", c)
		}
		if ri[i] < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", c)
		}
	}
	// Result schema and right-side kept columns.
	schema := d.schema.Clone()
	var keep []int
	for j, c := range other.schema {
		if !contains(on, c) {
			schema = append(schema, c)
			keep = append(keep, j)
		}
	}

	leftKeyed := spark.KeyBy(d.rdd, func(r Row) string { return rowKeyCols(r, li) })
	rightKeyed := spark.KeyBy(other.rdd, func(r Row) string { return rowKeyCols(r, ri) })

	useBroadcast := strategy == JoinBroadcast
	if strategy == JoinAuto {
		threshold := d.ctx.Conf().BroadcastThreshold
		useBroadcast = other.Count() < threshold || d.Count() < threshold
	}

	var joined *spark.RDD[spark.Pair[string, spark.Tuple2[Row, Row]]]
	if useBroadcast {
		if other.Count() <= d.Count() {
			joined = spark.BroadcastJoin(leftKeyed, rightKeyed)
		} else {
			swapped := spark.BroadcastJoin(rightKeyed, leftKeyed)
			joined = spark.MapValues(swapped, func(t spark.Tuple2[Row, Row]) spark.Tuple2[Row, Row] {
				return spark.Tuple2[Row, Row]{A: t.B, B: t.A}
			})
		}
	} else {
		joined = spark.Join(leftKeyed, rightKeyed)
	}

	out := spark.Map(joined, func(p spark.Pair[string, spark.Tuple2[Row, Row]]) Row {
		row := make(Row, 0, len(schema))
		row = append(row, p.Value.A...)
		for _, j := range keep {
			row = append(row, p.Value.B[j])
		}
		return row
	})
	return fromRDD(d.ctx, schema, out), nil
}

// CrossJoin computes the Cartesian product — the fallback Spark SQL used
// for multi-pattern queries in the hybrid study [21], flagged there as a
// significant drawback.
func (d *DataFrame) CrossJoin(other *DataFrame) *DataFrame {
	schema := append(d.schema.Clone(), other.schema...)
	prod := spark.Cartesian(d.rdd, other.rdd)
	out := spark.Map(prod, func(t spark.Tuple2[Row, Row]) Row {
		row := make(Row, 0, len(schema))
		row = append(row, t.A...)
		row = append(row, t.B...)
		return row
	})
	return fromRDD(d.ctx, schema, out)
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
