package solutions

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// nestedJoin is the loop Join, LeftJoin and Table.Probe replaced in six
// engines; it stays here as their reference.
func nestedJoin(left, right []sparql.Binding, outer bool) []sparql.Binding {
	var out []sparql.Binding
	for _, l := range left {
		matched := false
		for _, r := range right {
			if l.Compatible(r) {
				out = append(out, l.Merge(r))
				matched = true
			}
		}
		if outer && !matched {
			out = append(out, l.Clone())
		}
	}
	return out
}

var testVars = []sparql.Var{"a", "b", "c", "d"}

// randomSide draws n solutions over testVars: modes[i] says whether
// variable i is never (0), sometimes (1) or always (2) bound on this
// side, and terms come from a pool of `terms` values, so keys repeat,
// rows repeat and buckets fan out.
func randomSide(r *rand.Rand, n, terms int, modes []int) []sparql.Binding {
	rows := make([]sparql.Binding, n)
	for i := range rows {
		b := sparql.Binding{}
		for v, mode := range modes {
			if mode == 2 || mode == 1 && r.Intn(2) == 0 {
				b[testVars[v]] = rdf.NewIRI(fmt.Sprintf("http://e/%d", r.Intn(terms)))
			}
		}
		rows[i] = b
	}
	return rows
}

func sameSolutions(a, b []sparql.Binding) bool {
	return slices.EqualFunc(a, b, func(x, y sparql.Binding) bool { return maps.Equal(x, y) })
}

func cloneSolutions(rows []sparql.Binding) []sparql.Binding {
	out := make([]sparql.Binding, len(rows))
	for i, b := range rows {
		out[i] = b.Clone()
	}
	return out
}

// Random solution sequences over at most four variables — every
// variable never, sometimes or always bound on each side independently
// (so: no shared variable at all, a key some probe rows do not bind, a
// variable only some build rows bind), an empty side, duplicate rows,
// build sides either side of scanBelow: Join, LeftJoin and a Table
// chosen from a three-row sample of the probe side all give the nested
// loop's rows in the nested loop's order, and leave their inputs as
// they found them.
func TestJoinMatchesNestedLoopProperty(t *testing.T) {
	sizes := []int{0, 1, 2, scanBelow - 1, scanBelow, scanBelow + 1, 40}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl, nr := sizes[r.Intn(len(sizes))], sizes[r.Intn(len(sizes))]
		lmodes, rmodes := make([]int, len(testVars)), make([]int, len(testVars))
		for v := range testVars {
			lmodes[v], rmodes[v] = r.Intn(3), r.Intn(3)
		}
		terms := 1 + r.Intn(1+max(nl, nr)/2)
		left, right := randomSide(r, nl, terms, lmodes), randomSide(r, nr, terms, rmodes)
		leftBefore, rightBefore := cloneSolutions(left), cloneSolutions(right)
		sampled := NewTable(right, left[:min(3, nl)])
		for _, outer := range []bool{false, true} {
			want := nestedJoin(left, right, outer)
			var probed []sparql.Binding
			for _, l := range left {
				probed = sampled.Probe(l, outer, probed)
			}
			got := map[string][]sparql.Binding{"join": Join(left, right), "probe": probed}
			if outer {
				got["join"] = LeftJoin(left, right)
			}
			for name, rows := range got {
				if !sameSolutions(rows, want) {
					t.Logf("seed %d: %d × %d rows, modes %v × %v, %d terms, outer %v: %s gave %d rows, nested loop %d\n got  %v\n want %v",
						seed, nl, nr, lmodes, rmodes, terms, outer, name, len(rows), len(want), rows, want)
					return false
				}
			}
		}
		if !sameSolutions(left, leftBefore) || !sameSolutions(right, rightBefore) {
			t.Logf("seed %d: the join wrote to its inputs", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// A Table is only read by its probes: SPARQLGX builds one on the
// broadcast side and every task of its FlatMap probes it. Run with
// -race.
func TestTableSharedByConcurrentProbes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	left := randomSide(r, 300, 40, []int{2, 1, 0, 2})
	right := randomSide(r, 200, 40, []int{2, 2, 1, 0})
	table := NewTable(right, left[:32])
	if table.head == nil {
		t.Fatal("the table under test has no index")
	}
	want := nestedJoin(left, right, true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []sparql.Binding
			for _, l := range left {
				got = table.Probe(l, true, got)
			}
			if !sameSolutions(got, want) {
				t.Errorf("a concurrent probe gave %d rows, nested loop %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
}

// The key is a variable bound in every build row that the probe side
// binds — the more selective of two — and there is none for a short
// build side or a probe side that binds nothing.
func TestNewTableKeyChoice(t *testing.T) {
	iri := func(s string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://e/%s%d", s, i)) }
	var build []sparql.Binding
	for i := 0; i < 20; i++ {
		b := sparql.Binding{"dept": iri("d", i%2), "st": iri("s", i)}
		if i%3 == 0 {
			b["email"] = iri("e", i)
		}
		build = append(build, b)
	}
	for _, tc := range []struct {
		name  string
		build []sparql.Binding
		probe sparql.Binding
		key   sparql.Var
	}{
		{"most distinct of two", build, sparql.Binding{"dept": iri("d", 0), "st": iri("s", 1)}, "st"},
		{"only one bound by the probe", build, sparql.Binding{"dept": iri("d", 0), "n": iri("n", 1)}, "dept"},
		{"not bound in every build row", build, sparql.Binding{"email": iri("e", 0)}, ""},
		{"probe binds nothing", build, sparql.Binding{}, ""},
		{"short build side", build[:scanBelow-1], sparql.Binding{"st": iri("s", 1)}, ""},
	} {
		table := NewTable(tc.build, []sparql.Binding{tc.probe})
		if table.key != tc.key || (table.head != nil) != (tc.key != "") {
			t.Errorf("%s: key %q (indexed %v), want %q", tc.name, table.key, table.head != nil, tc.key)
		}
	}
}

// Key's bytes are shuffle keys, and spark.shuffle_bytes is sized from
// them: they are pinned.
func TestKeyBytes(t *testing.T) {
	b := sparql.Binding{"x": rdf.NewIRI("http://e/x"), "n": rdf.NewLiteral("Ann")}
	got := Key(b, []sparql.Var{"x", "unbound", "n"})
	if want := "<http://e/x>\x00\x00\"Ann\""; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
}

// The walker over a stub BGP evaluator: groups join, OPTIONAL keeps the
// unmatched left row, UNION concatenates, FILTER goes through the hook
// when there is one, and a pattern outside the fragment is refused in
// the engine's name.
func TestEvalPattern(t *testing.T) {
	iri := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://e/%d", i)) }
	tp := func(p string) sparql.BGP {
		return sparql.BGP{Patterns: []sparql.TriplePattern{{
			S: sparql.VarElem("s"), P: sparql.TermElem(rdf.NewIRI(p)), O: sparql.VarElem(sparql.Var(p)),
		}}}
	}
	// ?s name ?name for subjects 0–2; ?s mail ?mail for subject 1 only.
	evalBGP := func(bgp sparql.BGP) ([]sparql.Binding, error) {
		p := bgp.Patterns[0].P.Term.Value
		subjects := map[string][]int{"name": {0, 1, 2}, "mail": {1}}[p]
		var rows []sparql.Binding
		for _, s := range subjects {
			rows = append(rows, sparql.Binding{"s": iri(s), sparql.Var(p): iri(10 + s)})
		}
		return rows, nil
	}
	render := func(rows []sparql.Binding) string {
		var out []string
		for _, b := range rows {
			out = append(out, Key(b, []sparql.Var{"s", "name", "mail"}))
		}
		return strings.ReplaceAll(strings.Join(out, " | "), "\x00", ",")
	}
	isOne := sparql.MustParse(`SELECT ?s WHERE { ?s <name> ?name FILTER(?s = <http://e/1>) }`).Where.(sparql.Filter).Cond
	hooked := 0
	hook := func(rows []sparql.Binding, cond sparql.FilterExpr) []sparql.Binding {
		hooked++
		return rows[:1]
	}
	for _, tc := range []struct {
		name   string
		p      sparql.GraphPattern
		filter func([]sparql.Binding, sparql.FilterExpr) []sparql.Binding
		want   string
	}{
		{"group", sparql.Group{Parts: []sparql.GraphPattern{tp("name"), tp("mail")}}, nil,
			"<http://e/1>,<http://e/11>,<http://e/11>"},
		{"optional", sparql.Optional{Left: tp("name"), Right: tp("mail")}, nil,
			"<http://e/0>,<http://e/10>, | <http://e/1>,<http://e/11>,<http://e/11> | <http://e/2>,<http://e/12>,"},
		{"union", sparql.Union{Left: tp("mail"), Right: tp("name")}, nil,
			"<http://e/1>,,<http://e/11> | <http://e/0>,<http://e/10>, | <http://e/1>,<http://e/11>, | <http://e/2>,<http://e/12>,"},
		{"driver filter", sparql.Filter{Inner: tp("name"), Cond: isOne}, nil,
			"<http://e/1>,<http://e/11>,"},
		{"engine filter", sparql.Filter{Inner: tp("name"), Cond: isOne}, hook,
			"<http://e/0>,<http://e/10>,"},
	} {
		rows, err := EvalPattern(tc.p, "stub", evalBGP, tc.filter)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := render(rows); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
	if hooked != 1 {
		t.Errorf("the filter hook ran %d times, want 1", hooked)
	}
	_, err := EvalPattern(sparql.Group{Parts: []sparql.GraphPattern{nil}}, "stub", evalBGP, nil)
	if err == nil || err.Error() != "stub: unsupported pattern <nil>" {
		t.Errorf("unsupported pattern: error %v", err)
	}
}
