// Package sql simulates Spark SQL: DataFrames (schema'd, immutable,
// partitioned tables built on the spark RDD substrate), a SQL subset
// parser, and a Catalyst-style optimizer with join reordering and
// size-based broadcast-join selection. S2RDF [24] and the GraphFrames
// engine are built on it.
package sql

// Row is one record of a DataFrame; values are aligned with the schema.
type Row []any

// Schema is the ordered list of column names of a DataFrame.
type Schema []string

// Index returns the position of column name, or -1 if absent.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c == name {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains column name.
func (s Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Shared returns the column names present in both schemas, in s order.
func (s Schema) Shared(other Schema) []string {
	var out []string
	for _, c := range s {
		if other.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema { return append(Schema(nil), s...) }
