package workload

import (
	"fmt"

	"repro/internal/sparql"
)

// NamedQuery pairs a SPARQL query with its workload identity.
type NamedQuery struct {
	Name  string
	Shape sparql.Shape
	Text  string
	Query *sparql.Query
}

func mustNamed(name string, shape sparql.Shape, text string) NamedQuery {
	q, err := sparql.Parse(text)
	if err != nil {
		panic(fmt.Sprintf("workload query %s: %v", name, err))
	}
	if got := sparql.ClassifyShape(q); got != shape {
		panic(fmt.Sprintf("workload query %s classified as %v, want %v", name, got, shape))
	}
	return NamedQuery{Name: name, Shape: shape, Text: text, Query: q}
}

// UniversityQueries returns the shaped workload over the LUBM-style
// vocabulary: one set per shape of the survey's Sec. II.B taxonomy.
func UniversityQueries() []NamedQuery {
	p := func(local string) string { return "<" + UnivNS + local + ">" }
	return []NamedQuery{
		mustNamed("U-star-1", sparql.ShapeStar, fmt.Sprintf(
			`SELECT ?s ?n ?a WHERE { ?s %s ?n . ?s %s ?a . ?s <%s> %s }`,
			p("name"), p("age"), "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", p("Student"))),
		mustNamed("U-star-2", sparql.ShapeStar, fmt.Sprintf(
			`SELECT ?s ?d ?e WHERE { ?s %s ?d . ?s %s ?e . ?s %s ?n }`,
			p("worksFor"), p("emailAddress"), p("name"))),
		mustNamed("U-linear-1", sparql.ShapeLinear, fmt.Sprintf(
			`SELECT ?st ?prof ?dept WHERE { ?st %s ?prof . ?prof %s ?dept . ?dept %s ?univ }`,
			p("advisor"), p("worksFor"), p("subOrganizationOf"))),
		mustNamed("U-linear-2", sparql.ShapeLinear, fmt.Sprintf(
			`SELECT ?st ?c WHERE { ?st %s ?dept . ?dept %s ?u }`,
			p("memberOf"), p("subOrganizationOf"))),
		mustNamed("U-snowflake-1", sparql.ShapeSnowflake, fmt.Sprintf(
			`SELECT ?st ?sn ?prof ?pn WHERE { ?st %s ?sn . ?st %s ?prof . ?prof %s ?pn . ?prof %s ?dept }`,
			p("name"), p("advisor"), p("name"), p("worksFor"))),
		mustNamed("U-complex-1", sparql.ShapeComplex, fmt.Sprintf(
			`SELECT ?st ?c ?prof WHERE { ?st %s ?c . ?prof %s ?c . ?st %s ?prof }`,
			p("takesCourse"), p("teacherOf"), p("advisor"))),
		mustNamed("U-filter-1", sparql.ShapeComplex, fmt.Sprintf(
			`SELECT ?s ?a WHERE { ?s %s ?a . ?s %s ?n . FILTER(?a > 25) } ORDER BY ?a LIMIT 20`,
			p("age"), p("name"))),
		mustNamed("U-optional-1", sparql.ShapeComplex, fmt.Sprintf(
			`SELECT ?s ?e WHERE { ?s %s ?n OPTIONAL { ?s %s ?e } }`,
			p("name"), p("emailAddress"))),
		mustNamed("U-union-1", sparql.ShapeComplex, fmt.Sprintf(
			`SELECT DISTINCT ?x WHERE { { ?x <%s> %s } UNION { ?x <%s> %s } }`,
			"http://www.w3.org/1999/02/22-rdf-syntax-ns#type", p("Professor"),
			"http://www.w3.org/1999/02/22-rdf-syntax-ns#type", p("Course"))),
	}
}

// ShopQueries returns the shaped workload over the WatDiv-style
// vocabulary.
func ShopQueries() []NamedQuery {
	p := func(local string) string { return "<" + ShopNS + local + ">" }
	return []NamedQuery{
		mustNamed("S-star-1", sparql.ShapeStar, fmt.Sprintf(
			`SELECT ?p ?price ?cap WHERE { ?p %s ?price . ?p %s ?cap }`,
			p("price"), p("caption"))),
		mustNamed("S-linear-1", sparql.ShapeLinear, fmt.Sprintf(
			`SELECT ?a ?b ?prod WHERE { ?a %s ?b . ?b %s ?prod }`,
			p("follows"), p("likes"))),
		mustNamed("S-linear-2", sparql.ShapeLinear, fmt.Sprintf(
			`SELECT ?a ?c WHERE { ?a %s ?b . ?b %s ?c . ?c %s ?d }`,
			p("follows"), p("follows"), p("likes"))),
		mustNamed("S-snowflake-1", sparql.ShapeSnowflake, fmt.Sprintf(
			`SELECT ?u ?co ?prod ?price WHERE { ?u %s ?co . ?u %s ?prod . ?prod %s ?price . ?prod %s ?cap }`,
			p("country"), p("likes"), p("price"), p("caption"))),
		mustNamed("S-complex-1", sparql.ShapeComplex, fmt.Sprintf(
			`SELECT ?u ?r ?prod WHERE { ?u %s ?prod . ?r %s ?prod . ?u %s ?co }`,
			p("purchased"), p("sells"), p("country"))),
	}
}

// QueriesByShape filters a workload to one shape.
func QueriesByShape(qs []NamedQuery, shape sparql.Shape) []NamedQuery {
	var out []NamedQuery
	for _, q := range qs {
		if q.Shape == shape {
			out = append(out, q)
		}
	}
	return out
}
