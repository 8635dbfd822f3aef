// Package rdf implements the Resource Description Framework data model
// used throughout the reproduction: terms (IRIs, literals, blank
// nodes), triples, an N-Triples reader/writer, dictionary encoding of
// terms to dense integer ids (the optimization HAQWA [7] applies), and
// RDFS inference (the survey's Sec. II background).
package rdf

import "fmt"

// TermKind discriminates the three disjoint sets of RDF resources:
// URIs (U), literals (L) and blank nodes (B).
type TermKind uint8

// Term kinds.
const (
	IRI TermKind = iota
	Literal
	Blank
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	default:
		return "blank"
	}
}

// Term is one RDF resource. Terms are small values and compare with ==.
// For literals, Value holds the lexical form and Datatype the (optional)
// datatype IRI; Lang holds an optional language tag.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(value string) Term { return Term{Kind: Literal, Value: value} }

// NewTypedLiteral returns a literal with a datatype IRI.
func NewTypedLiteral(value, datatype string) Term {
	return Term{Kind: Literal, Value: value, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(value, lang string) Term {
	return Term{Kind: Literal, Value: value, Lang: lang}
}

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [128]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends the term's N-Triples rendering, String's bytes, to
// buf and returns the extended buffer. It is the one N-Triples
// renderer: shuffle keys, result comparison and the server's TSV and
// graph writers all build their bytes with it.
func (t Term) AppendTo(buf []byte) []byte {
	switch t.Kind {
	case IRI:
		buf = append(buf, '<')
		buf = append(buf, t.Value...)
		return append(buf, '>')
	case Blank:
		buf = append(buf, '_', ':')
		return append(buf, t.Value...)
	}
	buf = append(buf, '"')
	v, start := t.Value, 0
	for i := 0; i < len(v); i++ {
		var esc byte
		switch v[i] {
		case '\\', '"':
			esc = v[i]
		case '\n':
			esc = 'n'
		case '\r':
			esc = 'r'
		case '\t':
			esc = 't'
		default:
			continue
		}
		buf = append(buf, v[start:i]...)
		buf = append(buf, '\\', esc)
		start = i + 1
	}
	buf = append(buf, v[start:]...)
	buf = append(buf, '"')
	switch {
	case t.Lang != "":
		buf = append(buf, '@')
		buf = append(buf, t.Lang...)
	case t.Datatype != "":
		buf = append(buf, '^', '^', '<')
		buf = append(buf, t.Datatype...)
		buf = append(buf, '>')
	}
	return buf
}

// Well-known vocabulary IRIs.
const (
	RDFType           = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSSubClassOf    = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	RDFSSubPropertyOf = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf"
	RDFSDomain        = "http://www.w3.org/2000/01/rdf-schema#domain"
	RDFSRange         = "http://www.w3.org/2000/01/rdf-schema#range"
	XSDInteger        = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal        = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDString         = "http://www.w3.org/2001/XMLSchema#string"
)

// Triple is one RDF statement: (subject predicate object) from
// (U ∪ B) × U × (U ∪ L ∪ B).
type Triple struct {
	S, P, O Term
}

// Validate checks the positional constraints of the RDF data model.
func (t Triple) Validate() error {
	if t.S.IsLiteral() {
		return fmt.Errorf("rdf: subject cannot be a literal: %s", t.S)
	}
	if !t.P.IsIRI() {
		return fmt.Errorf("rdf: predicate must be an IRI: %s", t.P)
	}
	return nil
}

// String renders the triple as one N-Triples line (without newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}
