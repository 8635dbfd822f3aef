// Package graphframes simulates the GraphFrames API: a graph whose
// vertices and edges are DataFrames, with motif (edge-pattern) finding
// compiled into DataFrame joins. The survey (Sec. III) notes that
// GraphFrames, unlike GraphX, "supports also queries over graphs" and
// inherits the scalability of DataFrames; Bahrami et al. [4] build
// their RDF engine on exactly this motif-matching capability.
package graphframes

import (
	"fmt"
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

// Find evaluates a motif and returns one row per binding. Named vertex
// variables become columns holding vertex ids; a named edge variable e
// becomes one column per non-src/dst edge attribute, named "e.attr".
// Repeated vertex variables join naturally (same column name), which is
// what makes motifs express SPARQL basic graph patterns.
func (g *GraphFrame) Find(motif string) (*sql.DataFrame, error) {
	pats, err := ParseMotif(motif)
	if err != nil {
		return nil, err
	}
	extraCols := extraEdgeCols(g.edges.Schema())

	var result *sql.DataFrame
	hidden := map[string]bool{}
	for i, p := range pats {
		cols := make([]string, 0, 2+len(extraCols))
		srcName := p.src
		if srcName == "" {
			srcName = fmt.Sprintf("_anon_src_%d", i)
			hidden[srcName] = true
		}
		dstName := p.dst
		if dstName == "" {
			dstName = fmt.Sprintf("_anon_dst_%d", i)
			hidden[dstName] = true
		}
		cols = append(cols, ColSrc+" AS "+srcName, ColDst+" AS "+dstName)
		if p.edge != "" {
			for _, c := range extraCols {
				cols = append(cols, c+" AS "+p.edge+"."+c)
			}
		}
		step, err := g.edges.Select(cols...)
		if err != nil {
			return nil, err
		}
		if result == nil {
			result = step
			continue
		}
		shared := result.Schema().Shared(step.Schema())
		if len(shared) == 0 {
			result = result.CrossJoin(step)
			continue
		}
		result, err = result.Join(step, shared, sql.JoinAuto)
		if err != nil {
			return nil, err
		}
	}

	// Drop the anonymous helper columns.
	var keep []string
	for _, c := range result.Schema() {
		if !hidden[c] {
			keep = append(keep, c)
		}
	}
	if len(keep) == 0 {
		return result, nil
	}
	return result.Select(keep...)
}

// extraEdgeCols lists edge attribute columns other than src/dst.
func extraEdgeCols(s sql.Schema) []string {
	var out []string
	for _, c := range s {
		if c != ColSrc && c != ColDst {
			out = append(out, c)
		}
	}
	return out
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
