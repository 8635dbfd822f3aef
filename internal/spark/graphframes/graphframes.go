// Package graphframes simulates the GraphFrames API: a graph whose
// vertices and edges are DataFrames, with motif (edge-pattern) finding
// compiled into DataFrame joins. The survey (Sec. III) notes that
// GraphFrames, unlike GraphX, "supports also queries over graphs" and
// inherits the scalability of DataFrames; Bahrami et al. [4] build
// their RDF engine on exactly this motif-matching capability.
package graphframes

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/spark/sql"
)

// Required column names, matching the GraphFrames convention.
const (
	ColID  = "id"
	ColSrc = "src"
	ColDst = "dst"
)

// GraphFrame is a property graph stored as two DataFrames.
type GraphFrame struct {
	vertices *sql.DataFrame
	edges    *sql.DataFrame
}

// New validates the schemas (vertices need "id"; edges need "src" and
// "dst") and builds the GraphFrame.
func New(vertices, edges *sql.DataFrame) (*GraphFrame, error) {
	if !vertices.Schema().Has(ColID) {
		return nil, fmt.Errorf("graphframes: vertices need an %q column (have %s)", ColID, vertices.Schema())
	}
	if !edges.Schema().Has(ColSrc) || !edges.Schema().Has(ColDst) {
		return nil, fmt.Errorf("graphframes: edges need %q and %q columns (have %s)", ColSrc, ColDst, edges.Schema())
	}
	return &GraphFrame{vertices: vertices, edges: edges}, nil
}

// Edges returns the edge DataFrame.
func (g *GraphFrame) Edges() *sql.DataFrame { return g.edges }

// edgePattern is one "(a)-[e]->(b)" term of a motif.
type edgePattern struct {
	src, edge, dst string // empty for anonymous
}

// ParseMotif parses a GraphFrames motif string: semicolon-separated
// edge patterns "(a)-[e]->(b)" where any of a, e, b may be empty
// (anonymous). Example: "(x)-[]->(y); (y)-[e]->(z)".
func ParseMotif(motif string) ([]edgePattern, error) {
	var pats []edgePattern
	for _, termRaw := range strings.Split(motif, ";") {
		term := strings.TrimSpace(termRaw)
		if term == "" {
			continue
		}
		var p edgePattern
		rest := term
		var ok bool
		p.src, rest, ok = parseDelim(rest, "(", ")")
		if !ok {
			return nil, fmt.Errorf("graphframes: bad motif term %q: want (src)", term)
		}
		rest = strings.TrimPrefix(strings.TrimSpace(rest), "-")
		p.edge, rest, ok = parseDelim(rest, "[", "]")
		if !ok {
			return nil, fmt.Errorf("graphframes: bad motif term %q: want [edge]", term)
		}
		rest = strings.TrimSpace(rest)
		if !strings.HasPrefix(rest, "->") {
			return nil, fmt.Errorf("graphframes: bad motif term %q: want ->", term)
		}
		rest = rest[2:]
		p.dst, rest, ok = parseDelim(rest, "(", ")")
		if !ok || strings.TrimSpace(rest) != "" {
			return nil, fmt.Errorf("graphframes: bad motif term %q: want (dst)", term)
		}
		pats = append(pats, p)
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("graphframes: empty motif")
	}
	return pats, nil
}

func parseDelim(s, open, close string) (name, rest string, ok bool) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, open) {
		return "", "", false
	}
	end := strings.Index(s, close)
	if end < 0 {
		return "", "", false
	}
	return strings.TrimSpace(s[len(open):end]), s[end+len(close):], true
}

// Find evaluates a motif and returns one row per binding that
// satisfies every constraint in where. Named vertex variables become
// columns holding vertex ids; a named edge variable e becomes one
// column per non-src/dst edge attribute, named "e.attr". Repeated
// vertex variables join naturally (same column name), which is what
// makes motifs express SPARQL basic graph patterns; a self-loop
// "(x)-[]->(x)" keeps only edges whose src equals their dst.
//
// GraphFrames' find returns a lazy DataFrame (Dave et al., GRADES
// 2016), and Catalyst pushes a filter that names only one join input
// below that join (Armbrust et al., SIGMOD 2015). So a constraint whose
// columns all belong to one edge step filters that step before any
// join, and any other right after the first join that covers it.
func (g *GraphFrame) Find(motif string, where ...sql.Expr) (*sql.DataFrame, error) {
	pats, err := ParseMotif(motif)
	if err != nil {
		return nil, err
	}
	// The edge attribute columns other than src and dst.
	extraCols := slices.DeleteFunc(g.edges.Schema(), func(c string) bool { return c == ColSrc || c == ColDst })

	pending := where
	var result *sql.DataFrame
	hidden := map[string]bool{}
	hide := func(format string, i int) string {
		name := fmt.Sprintf(format, i)
		hidden[name] = true
		return name
	}
	for i, p := range pats {
		var loop []sql.Expr
		srcName, dstName := p.src, p.dst
		if srcName == "" {
			srcName = hide("_anon_src_%d", i)
		}
		switch {
		case dstName == "":
			dstName = hide("_anon_dst_%d", i)
		case dstName == srcName:
			dstName = hide("_loop_dst_%d", i)
			loop = append(loop, sql.ColEq(srcName, dstName))
		}
		cols := []string{ColSrc + " AS " + srcName, ColDst + " AS " + dstName}
		if p.edge != "" {
			for _, c := range extraCols {
				cols = append(cols, c+" AS "+p.edge+"."+c)
			}
		}
		step, err := g.edges.Select(cols...)
		if err == nil {
			step, err = filterCovered(step, &pending, loop...)
		}
		if err != nil {
			return nil, err
		}
		if result == nil {
			result = step
			continue
		}
		if shared := result.Schema().Shared(step.Schema()); len(shared) == 0 {
			result = result.CrossJoin(step)
		} else if result, err = result.Join(step, shared, sql.JoinAuto); err != nil {
			return nil, err
		}
		if result, err = filterCovered(result, &pending); err != nil {
			return nil, err
		}
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("graphframes: constraint on columns %v the motif does not bind", pending[0].Columns())
	}

	keep := slices.DeleteFunc(result.Schema(), func(c string) bool { return hidden[c] })
	if len(keep) == 0 {
		return result, nil
	}
	return result.Select(keep...)
}

// filterCovered filters df, in one pass, by cs and by every constraint
// in *pending whose columns df holds, and removes those from *pending.
func filterCovered(df *sql.DataFrame, pending *[]sql.Expr, cs ...sql.Expr) (*sql.DataFrame, error) {
	schema, rest := df.Schema(), []sql.Expr(nil)
	for _, c := range *pending {
		if slices.ContainsFunc(c.Columns(), func(col string) bool { return !schema.Has(col) }) {
			rest = append(rest, c)
		} else {
			cs = append(cs, c)
		}
	}
	*pending = rest
	if len(cs) == 0 {
		return df, nil
	}
	pred := cs[0]
	for _, c := range cs[1:] {
		pred = sql.BinOp{Op: "AND", L: pred, R: c}
	}
	return df.Filter(pred)
}

// FilterEdges returns a GraphFrame whose edges satisfy pred; vertices
// are kept as-is (motif results only ever reference edge endpoints).
func (g *GraphFrame) FilterEdges(pred sql.Expr) (*GraphFrame, error) {
	fe, err := g.edges.Filter(pred)
	if err != nil {
		return nil, err
	}
	return &GraphFrame{vertices: g.vertices, edges: fe}, nil
}
