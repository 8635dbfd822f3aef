// Package core defines the framework of the reproduction: the Engine
// interface every surveyed system implements, the SystemInfo taxonomy
// metadata that regenerates the paper's Figure 1 and Tables I–II, the
// engine registry, and the assessment runner that measures every engine
// over shaped workloads and verifies its answers against the reference
// SPARQL evaluator.
package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
)

// DataModel is the survey's first dimension: how RDF data is modeled
// for processing.
type DataModel int

// Data models (survey Sec. III).
const (
	// TripleModel stores and processes RDF in its natural (s,p,o) form.
	TripleModel DataModel = iota
	// GraphModel represents RDF as a directed labeled graph.
	GraphModel
)

func (m DataModel) String() string {
	if m == TripleModel {
		return "The Triple Model"
	}
	return "The Graph Model"
}

// Abstraction is the survey's second dimension: which Spark API the
// implementation relies on.
type Abstraction int

// Spark abstractions (survey Sec. III).
const (
	RDDAbstraction Abstraction = iota
	DataFramesAbstraction
	SparkSQLAbstraction
	GraphXAbstraction
	GraphFramesAbstraction
)

func (a Abstraction) String() string {
	switch a {
	case RDDAbstraction:
		return "RDD"
	case DataFramesAbstraction:
		return "DataFrames"
	case SparkSQLAbstraction:
		return "Spark SQL"
	case GraphXAbstraction:
		return "GraphX"
	default:
		return "GraphFrames"
	}
}

// Abstractions lists the dimension values in Table I row order.
func Abstractions() []Abstraction {
	return []Abstraction{RDDAbstraction, DataFramesAbstraction, SparkSQLAbstraction, GraphXAbstraction, GraphFramesAbstraction}
}

// Fragment is the SPARQL fragment a system supports (Table II).
type Fragment string

// SPARQL fragments.
const (
	FragmentBGP     Fragment = "BGP"
	FragmentBGPPlus Fragment = "BGP+"
)

// SystemInfo is a system's row in the survey's taxonomy. Each engine
// self-describes; the table and figure renderers consume only this, so
// the reproduction of Tables I–II is generated from the living code.
type SystemInfo struct {
	// Name is the system name, e.g. "S2RDF".
	Name string
	// Citation is the reference number in the paper, e.g. "[24]".
	Citation string
	// Model is the data-model dimension.
	Model DataModel
	// Abstractions lists every Spark abstraction the system uses
	// (the hybrid system [21] spans RDD and DataFrames).
	Abstractions []Abstraction
	// QueryProcessing names the processing style (Table II column 2).
	QueryProcessing string
	// Optimized reports whether the system applies query optimizations
	// (Table II column 3).
	Optimized bool
	// Partitioning names the partitioning strategy (Table II column 4).
	Partitioning string
	// SPARQL is the supported fragment (Table II column 5).
	SPARQL Fragment
}

// Engine is a distributed RDF query-answering system. Implementations
// live in internal/systems, one per surveyed paper.
type Engine interface {
	// Info returns the system's taxonomy row.
	Info() SystemInfo
	// Load ingests the dataset, building the system's storage layout
	// (partitions, indexes, tables). It may be called once per engine.
	Load(triples []rdf.Triple) error
	// Execute answers q over the loaded data.
	Execute(q *sparql.Query) (*sparql.Results, error)
	// Context exposes the engine's spark context for metering.
	Context() *spark.Context
}

// Registry holds engines in registration order.
type Registry struct {
	engines []Engine
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends an engine.
func (r *Registry) Register(e Engine) { r.engines = append(r.engines, e) }

// Engines returns the registered engines in order.
func (r *Registry) Engines() []Engine { return r.engines }

// Get returns the engine with the given system name.
func (r *Registry) Get(name string) (Engine, bool) {
	for _, e := range r.engines {
		if e.Info().Name == name {
			return e, true
		}
	}
	return nil, false
}

// Names lists registered system names in order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.engines))
	for i, e := range r.engines {
		out[i] = e.Info().Name
	}
	return out
}

// Measurement is one (engine, query) cell of the assessment: wall time,
// the cluster activity diff, result size, and whether the answer
// matched the reference evaluator.
type Measurement struct {
	System   string
	Query    string
	Shape    sparql.Shape
	Duration time.Duration
	Activity spark.Metrics
	Rows     int
	Correct  bool
	Err      error
}

// RunQuery executes q on e, metering activity and checking the result
// against the reference answer (pass nil to skip the check).
func RunQuery(e Engine, name string, q *sparql.Query, reference *sparql.Results) Measurement {
	return runQuery(e, name, q, reference, nil)
}

// runQuery is RunQuery given full, the reference answer to q without
// its LIMIT, for an ORDER BY + LIMIT query (nil otherwise); with it,
// the check is topKMatches instead of multiset equality.
func runQuery(e Engine, name string, q *sparql.Query, reference, full *sparql.Results) Measurement {
	m := Measurement{System: e.Info().Name, Query: name, Shape: sparql.ClassifyShape(q)}
	before := e.Context().Snapshot()
	start := time.Now()
	res, err := e.Execute(q)
	m.Duration = time.Since(start)
	m.Activity = e.Context().Snapshot().Diff(before)
	if err != nil {
		m.Err = err
		return m
	}
	m.Rows = res.Len()
	switch {
	case reference == nil:
		m.Correct = true
	case full != nil:
		m.Correct = topKMatches(q.OrderBy, res, reference, full)
	default:
		m.Correct = res.Equal(reference)
	}
	return m
}

// topKMatches checks an ORDER BY + LIMIT answer. A LIMIT that cuts
// through a group of rows tied on every ORDER BY key may keep any of
// them, so got is correct when its rows outside the reference's last
// tie group are exactly the reference's (as a multiset), and its rows
// inside it are drawn from that whole group in full. A cut that OFFSET
// makes through the first group is still compared exactly.
func topKMatches(keys []sparql.OrderKey, got, reference, full *sparql.Results) bool {
	if got.IsAsk || got.IsGraph || got.Len() != reference.Len() {
		return false
	}
	if reference.Len() == 0 {
		return true
	}
	last := reference.Len() - 1
	split := func(res *sparql.Results) (before, group []string) {
		for i := range res.Len() {
			if tied(keys, res, i, reference, last) {
				group = append(group, res.CanonicalRow(i))
			} else {
				before = append(before, res.CanonicalRow(i))
			}
		}
		slices.Sort(before)
		return before, group
	}
	gotBefore, gotGroup := split(got)
	refBefore, _ := split(reference)
	_, fullGroup := split(full)
	if !slices.Equal(gotBefore, refBefore) {
		return false
	}
	avail := make(map[string]int, len(fullGroup))
	for _, k := range fullGroup {
		avail[k]++
	}
	for _, k := range gotGroup {
		if avail[k] == 0 {
			return false
		}
		avail[k]--
	}
	return true
}

// tied reports whether row i of a and row j of b compare equal on every
// ORDER BY key under ORDER BY's order, sparql.CompareTerms (two unbound
// values tie, and so does a key neither answer projects).
func tied(keys []sparql.OrderKey, a *sparql.Results, i int, b *sparql.Results, j int) bool {
	term := func(res *sparql.Results, row int, v sparql.Var) rdf.Term {
		if c := slices.Index(res.Vars, v); c >= 0 {
			if t, ok := res.Term(row, c); ok {
				return t
			}
		}
		return sparql.Unbound
	}
	for _, k := range keys {
		if sparql.CompareTerms(term(a, i, k.Var), term(b, j, k.Var)) != 0 {
			return false
		}
	}
	return true
}

// Assessment runs every registered engine over a workload and collects
// the full measurement matrix.
type Assessment struct {
	Dataset      string
	Triples      int
	Measurements []Measurement
}

// Workload couples a dataset with named queries.
type Workload struct {
	Name    string
	Triples []rdf.Triple
	Queries []struct {
		Name  string
		Query *sparql.Query
	}
}

// AddQuery appends a named query to the workload.
func (w *Workload) AddQuery(name string, q *sparql.Query) {
	w.Queries = append(w.Queries, struct {
		Name  string
		Query *sparql.Query
	}{name, q})
}

// RunAssessment loads the workload dataset into every engine and
// measures every query, verifying against the reference evaluator.
func RunAssessment(engines []Engine, w Workload) (*Assessment, error) {
	ref := rdf.NewGraph(w.Triples)
	a := &Assessment{Dataset: w.Name, Triples: len(w.Triples)}
	for _, e := range engines {
		if err := e.Load(w.Triples); err != nil {
			return nil, fmt.Errorf("%s load: %w", e.Info().Name, err)
		}
	}
	for _, nq := range w.Queries {
		expected, err := sparql.Evaluate(nq.Query, ref)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", nq.Name, err)
		}
		var full *sparql.Results
		if len(nq.Query.OrderBy) > 0 && nq.Query.Limit >= 0 {
			unlimited := *nq.Query
			unlimited.Limit = -1
			if full, err = sparql.Evaluate(&unlimited, ref); err != nil {
				return nil, fmt.Errorf("reference %s without LIMIT: %w", nq.Name, err)
			}
		}
		for _, e := range engines {
			a.Measurements = append(a.Measurements, runQuery(e, nq.Name, nq.Query, expected, full))
		}
	}
	return a, nil
}

// BySystem groups measurements per system name, preserving query order.
func (a *Assessment) BySystem() map[string][]Measurement {
	out := map[string][]Measurement{}
	for _, m := range a.Measurements {
		out[m.System] = append(out[m.System], m)
	}
	return out
}

// ByShape groups measurements per query shape.
func (a *Assessment) ByShape() map[sparql.Shape][]Measurement {
	out := map[sparql.Shape][]Measurement{}
	for _, m := range a.Measurements {
		out[m.Shape] = append(out[m.Shape], m)
	}
	return out
}

// Shapes returns the shapes present, in taxonomy order.
func (a *Assessment) Shapes() []sparql.Shape {
	seen := map[sparql.Shape]bool{}
	for _, m := range a.Measurements {
		seen[m.Shape] = true
	}
	var out []sparql.Shape
	for _, s := range []sparql.Shape{sparql.ShapeStar, sparql.ShapeLinear, sparql.ShapeSnowflake, sparql.ShapeComplex} {
		if seen[s] {
			out = append(out, s)
		}
	}
	return out
}

// SortedSystems returns system names present in the assessment, sorted.
func (a *Assessment) SortedSystems() []string {
	seen := map[string]bool{}
	for _, m := range a.Measurements {
		seen[m.System] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
