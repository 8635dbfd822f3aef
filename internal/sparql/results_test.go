package sparql

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// Results.Equal, a count-map multiset comparison, against the
// comparison it replaced: render every row over its own result's Vars
// (terms tab-joined, UNBOUND where unbound), sort both sides, compare
// the slices. The pairs drawn repeat rows, leave variables unbound, bind
// variables outside Vars, and reorder Vars. Mutants it catches, each
// checked: the length check dropped (a strict sub-multiset compares
// equal); counting without decrementing (one row's duplicate in place
// of another compares equal).

func refRowKey(vars []Var, b Binding) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		if t, ok := b[v]; ok {
			parts[i] = t.String()
		} else {
			parts[i] = "UNBOUND"
		}
	}
	return strings.Join(parts, "\t")
}

func refEqual(r, other *Results) bool {
	canon := func(res *Results) []string {
		out := make([]string, len(res.Rows))
		for i, b := range res.Rows {
			out[i] = refRowKey(res.Vars, b)
		}
		sort.Strings(out)
		return out
	}
	return slices.Equal(canon(r), canon(other))
}

// randomResultsPair draws a result and a second one derived from it: a
// shuffle of its rows, then at most one edit that may or may not change
// the multiset.
func randomResultsPair(r *rand.Rand) (*Results, *Results) {
	terms := []rdf.Term{
		rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/b"), rdf.NewLiteral("x\ty"),
		rdf.NewLangLiteral("x", "en"), rdf.NewBlank("b0"),
	}
	all := []Var{"a", "b", "c"}
	row := func() Binding {
		b := Binding{}
		for _, v := range append(all, "hidden") {
			if r.Intn(4) > 0 { // a quarter of the variables stay unbound
				b[v] = terms[r.Intn(len(terms))]
			}
		}
		return b
	}
	vars := all[:1+r.Intn(len(all))]
	a := &Results{Vars: vars}
	for n := r.Intn(8); n > 0; n-- {
		if len(a.Rows) > 0 && r.Intn(3) == 0 {
			a.Rows = append(a.Rows, a.Rows[r.Intn(len(a.Rows))]) // a repeated row
		} else {
			a.Rows = append(a.Rows, row())
		}
	}
	b := &Results{Vars: slices.Clone(vars), Rows: slices.Clone(a.Rows)}
	r.Shuffle(len(b.Rows), func(i, j int) { b.Rows[i], b.Rows[j] = b.Rows[j], b.Rows[i] })
	switch n := len(b.Rows); r.Intn(6) {
	case 0:
		if n > 1 { // one row's duplicate in place of another
			b.Rows[r.Intn(n)] = b.Rows[r.Intn(n)]
		}
	case 1:
		if n > 0 {
			b.Rows = b.Rows[1:]
		}
	case 2:
		b.Rows = append(b.Rows, row())
	case 3:
		if n > 0 {
			b.Rows[0] = row()
		}
	case 4:
		r.Shuffle(len(b.Vars), func(i, j int) { b.Vars[i], b.Vars[j] = b.Vars[j], b.Vars[i] })
	}
	return a, b
}

func TestResultsEqualMatchesSortedCanonical(t *testing.T) {
	var equal, differ int
	check := func(seed int64) bool {
		a, b := randomResultsPair(rand.New(rand.NewSource(seed)))
		want := refEqual(a, b)
		if want {
			equal++
		} else {
			differ++
		}
		if a.Equal(b) != want || b.Equal(a) != want {
			t.Logf("vars %v / %v rows %v / %v: Equal %v / %v, want %v", a.Vars, b.Vars, a.Rows, b.Rows, a.Equal(b), b.Equal(a), want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	if equal < 500 || differ < 500 {
		t.Fatalf("drew %d equal and %d different pairs: the generator no longer tests both", equal, differ)
	}
}
