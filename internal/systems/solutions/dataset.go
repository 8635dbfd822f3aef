package solutions

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/spark/graphx"
	"repro/internal/sparql"
)

// Dataset is a dataset as every engine builds its layout from it: the
// distinct triples in first-occurrence order, encoded through one
// dictionary, with their statistics and each term's N-Triples
// rendering. It is read-only once built: queries look their constants
// up and never add a term.
type Dataset struct {
	Dict    *rdf.Dictionary
	Triples []rdf.EncodedTriple
	Stats   rdf.Stats

	terms    []rdf.Term            // id → term
	rendered []string              // id → N-Triples rendering
	ids      map[string]rdf.TermID // rendering → id
}

// Encode dedupes and encodes triples into a Dataset.
func Encode(triples []rdf.Triple) (*Dataset, error) {
	dict, enc, err := rdf.EncodeDistinct(func(add func(rdf.Triple) error) error {
		for _, t := range triples {
			if err := add(t); err != nil {
				return err
			}
		}
		return nil
	}, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Dict: dict, Triples: enc, Stats: rdf.ComputeEncodedStats(dict, enc), terms: dict.Terms()}
	d.rendered = make([]string, len(d.terms))
	d.ids = make(map[string]rdf.TermID, len(d.terms))
	for id, t := range d.terms {
		d.rendered[id] = t.String()
		d.ids[d.rendered[id]] = rdf.TermID(id)
	}
	return d, nil
}

// Term returns the term of id.
func (d *Dataset) Term(id rdf.TermID) rdf.Term { return d.terms[id] }

// ID returns t's id, or, for a term the dataset does not hold, an id
// no triple holds (one no Row slot is Bound to).
func (d *Dataset) ID(t rdf.Term) rdf.TermID {
	if id, ok := d.Dict.Lookup(t); ok {
		return id
	}
	return unbound
}

// Rendered returns id's N-Triples rendering, the string a DataFrame
// cell holds for it.
func (d *Dataset) Rendered(id rdf.TermID) string { return d.rendered[id] }

// Parse returns the id whose rendering is s; false when no term of the
// dataset renders as s.
func (d *Dataset) Parse(s string) (rdf.TermID, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Graph returns the dataset as a GraphX property graph on ctx: one
// vertex per distinct subject or object, in first-occurrence order,
// whose id is its TermID, and one edge per triple labeled with its
// predicate's id.
func (d *Dataset) Graph(ctx *spark.Context) *graphx.Graph[struct{}, rdf.TermID] {
	seen := map[rdf.TermID]bool{}
	var vertices []graphx.Vertex[struct{}]
	edges := make([]graphx.Edge[rdf.TermID], len(d.Triples))
	for i, t := range d.Triples {
		for _, id := range [2]rdf.TermID{t.S, t.O} {
			if !seen[id] {
				seen[id] = true
				vertices = append(vertices, graphx.Vertex[struct{}]{ID: graphx.VertexID(id)})
			}
		}
		edges[i] = graphx.Edge[rdf.TermID]{Src: graphx.VertexID(t.S), Dst: graphx.VertexID(t.O), Attr: t.P}
	}
	return graphx.New(ctx, vertices, edges)
}

// Schema returns the schema of q over d for an engine that answers q,
// or the error that says why the engine named name does not: q is a
// DESCRIBE, nothing is loaded (d is nil), or bgpOnly is set and q's
// pattern is not one BGP.
func (d *Dataset) Schema(name string, q *sparql.Query, bgpOnly bool) (*Schema, error) {
	switch _, isBGP := q.BGPOf(); {
	case q.Form == sparql.FormDescribe:
		return nil, fmt.Errorf("%s: DESCRIBE is not supported (use the reference evaluator)", name)
	case d == nil:
		return nil, fmt.Errorf("%s: no dataset loaded", name)
	case bgpOnly && !isBGP:
		return nil, fmt.Errorf("%s: only BGP queries are supported (fragment per Table II)", name)
	}
	return NewSchema(q.Where, d), nil
}

// Source is where an engine's Load gets its Dataset. An engine embeds
// one: the zero Source encodes for that engine alone, and Share points
// the engines of one assessment at one loader, so that the first Load
// encodes and the others reuse its Dataset when they are handed the
// same slice — the same first element and length. Any other slice is
// encoded again.
type Source struct{ l *loader }

type loader struct {
	mu    sync.Mutex
	first *rdf.Triple
	n     int
	data  *Dataset
}

func (s *Source) source() *Source { return s }

// Dataset returns triples encoded, reusing the loader's Dataset when
// triples is the slice it was encoded from.
func (s *Source) Dataset(triples []rdf.Triple) (*Dataset, error) {
	if s.l == nil {
		s.l = &loader{}
	}
	l := s.l
	l.mu.Lock()
	defer l.mu.Unlock()
	var first *rdf.Triple
	if len(triples) > 0 {
		first = &triples[0]
	}
	if l.data != nil && first == l.first && len(triples) == l.n {
		return l.data, nil
	}
	d, err := Encode(triples)
	if err != nil {
		return nil, err
	}
	l.first, l.n, l.data = first, len(triples), d
	return d, nil
}

// Share points every engine of engines that embeds a Source at one new
// loader.
func Share[E any](engines []E) {
	l := &loader{}
	for _, e := range engines {
		if s, ok := any(e).(interface{ source() *Source }); ok {
			s.source().l = l
		}
	}
}
