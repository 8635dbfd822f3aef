// The row operations are checked against the map semantics they
// replaced: binding's Compatible and Merge (refCompatible,
// refMerge), the Binding-keyed shuffle key (refKey), the per-engine
// triple binders (refMatch) and the nested join loop (nestedJoin), which
// also holds the join kernel the engines call, sparql.JoinRows, over
// their rows. Each property fails on these mutants of the code under
// test:
//
//   - Merge skips its compatibility check (a shared slot bound to two
//     terms merges);
//   - Merge treats a slot unbound in its first row as a conflict;
//   - Merge keeps only its first row's slots;
//   - Key writes no NUL before an unbound slot, or renders it non-empty;
//   - Pattern.Matches ignores a repeated variable;
//   - the kernel's hash join, with outer set, drops an unmatched left row;
//   - the kernel hashes on a slot some row of one side leaves unbound.
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

// binding is a solution as a map, the form the engines' rows replaced.
type binding map[sparql.Var]rdf.Term

// refCompatible and refMerge are sparql.Binding's Compatible and Merge
// as the engines ran them before rows replaced bindings.
func refCompatible(a, b binding) bool {
	for k, v := range a {
		if ov, ok := b[k]; ok && ov != v {
			return false
		}
	}
	return true
}

func refMerge(a, b binding) binding {
	out := maps.Clone(a)
	maps.Copy(out, b)
	return out
}

// refKey is Key over a Binding, as the engines shuffled on it.
func refKey(b binding, vars []sparql.Var) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		if t, ok := b[v]; ok {
			parts[i] = t.String()
		}
	}
	return strings.Join(parts, "\x00")
}

// nestedJoin is the loop the engines' joins replaced; it stays here as
// the reference of the join kernel they call.
func nestedJoin(left, right []binding, outer bool) []binding {
	var out []binding
	for _, l := range left {
		matched := false
		for _, r := range right {
			if refCompatible(l, r) {
				out = append(out, refMerge(l, r))
				matched = true
			}
		}
		if outer && !matched {
			out = append(out, maps.Clone(l))
		}
	}
	return out
}

var testVars = []sparql.Var{"a", "b", "c", "d"}

// testData is a dataset that holds every term the tests bind: the IRIs
// http://e/0 … http://e/99, http://e/x, http://e/{d,s,e,n}0 …
// http://e/{d,s,e,n}19 and three literals.
var testData = func() *Dataset {
	terms := []rdf.Term{rdf.NewIRI("http://e/x"), rdf.NewLiteral("Ann"), rdf.NewLiteral("l"), rdf.NewTypedLiteral("30", rdf.XSDInteger)}
	for i := 0; i < 100; i++ {
		terms = append(terms, rdf.NewIRI(fmt.Sprintf("http://e/%d", i)))
	}
	for _, p := range []string{"d", "s", "e", "n"} {
		for i := 0; i < 20; i++ {
			terms = append(terms, rdf.NewIRI(fmt.Sprintf("http://e/%s%d", p, i)))
		}
	}
	var triples []rdf.Triple
	for _, t := range terms {
		triples = append(triples, rdf.Triple{S: t, P: rdf.NewIRI("http://e/p"), O: t})
	}
	d, err := Encode(triples)
	if err != nil {
		panic(err)
	}
	return d
}()

// id returns t's id in testData, which must hold t.
func id(t rdf.Term) rdf.TermID {
	id, ok := testData.Dict.Lookup(t)
	if !ok {
		panic(fmt.Sprintf("%v is not in the test dataset", t))
	}
	return id
}

// schemaOf returns the schema of a BGP that mentions vars.
func schemaOf(vars ...sparql.Var) *Schema {
	var tps []sparql.TriplePattern
	for _, v := range vars {
		tps = append(tps, sparql.TriplePattern{S: sparql.VarElem(v), P: sparql.TermElem(rdf.NewIRI("http://e/p")), O: sparql.VarElem(v)})
	}
	return NewSchema(sparql.BGP{Patterns: tps}, testData)
}

func bindings(s *Schema, rows []Row) []binding {
	out := make([]binding, len(rows))
	for i, r := range rows {
		out[i] = binding{}
		for j, v := range s.Vars {
			if Bound(r[j]) {
				out[i][v] = testData.Term(r[j])
			}
		}
	}
	return out
}

// randomSide draws n rows over testVars: modes[i] says whether variable
// i is never (0), sometimes (1) or always (2) bound on this side, and
// terms come from a pool of `terms` values, so keys repeat, rows repeat,
// buckets fan out and shared slots disagree.
func randomSide(r *rand.Rand, s *Schema, n, terms int, modes []int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		row := s.Row()
		for v, mode := range modes {
			if mode == 2 || mode == 1 && r.Intn(2) == 0 {
				row[s.Slot(testVars[v])] = id(rdf.NewIRI(fmt.Sprintf("http://e/%d", r.Intn(terms))))
			}
		}
		rows[i] = row
	}
	return rows
}

func sameSolutions(a, b []binding) bool {
	return slices.EqualFunc(a, b, func(x, y binding) bool { return maps.Equal(x, y) })
}

func cloneRows(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

func sameRows(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool { return slices.Equal(x, y) })
}

// Random row pairs over four slots, each unbound or bound to one of a
// few terms on either side (so slots bound on one side only, shared
// slots that agree and shared slots that disagree): Merge accepts
// exactly the pairs refCompatible does, and gives refMerge's solution;
// Key over any ascending slot set renders refKey's bytes; neither
// writes to its inputs.
func TestMergeAndKeyMatchMapReferenceProperty(t *testing.T) {
	s := schemaOf(testVars...)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		modes := []int{1, 1, 1, 1}
		rows := randomSide(r, s, 2, 1+r.Intn(3), modes)
		a, b := rows[0], rows[1]
		before := cloneRows(rows)
		ba, bb := bindings(s, rows)[0], bindings(s, rows)[1]
		m, ok := Merge(a, b)
		if ok != refCompatible(ba, bb) {
			t.Logf("seed %d: Merge(%v, %v) ok = %v, reference %v", seed, ba, bb, ok, !ok)
			return false
		}
		if ok && !maps.Equal(bindings(s, []Row{m})[0], refMerge(ba, bb)) {
			t.Logf("seed %d: Merge(%v, %v) = %v, reference %v", seed, ba, bb, bindings(s, []Row{m})[0], refMerge(ba, bb))
			return false
		}
		var vars []sparql.Var
		for _, v := range testVars {
			if r.Intn(2) == 0 {
				vars = append(vars, v)
			}
		}
		if got, want := s.Key(a, s.Slots(vars)), refKey(ba, vars); got != want {
			t.Logf("seed %d: Key(%v, %v) = %q, reference %q", seed, ba, vars, got, want)
			return false
		}
		if !sameRows(rows, before) {
			t.Logf("seed %d: Merge or Key wrote to its inputs", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// refMatch is the per-engine binder Pattern replaced: constants equal,
// and a variable bound once per solution.
func refMatch(tp sparql.TriplePattern, t rdf.Triple) (binding, bool) {
	b := binding{}
	for i, el := range []sparql.TPElem{tp.S, tp.P, tp.O} {
		term := [3]rdf.Term{t.S, t.P, t.O}[i]
		if !el.IsVar {
			if el.Term != term {
				return nil, false
			}
			continue
		}
		if cur, ok := b[el.Var]; ok && cur != term {
			return nil, false
		}
		b[el.Var] = term
	}
	return b, true
}

// Random patterns (each position a constant or one of two variables, so
// variables repeat) against random triples over a three-term pool:
// Pattern.Match agrees with refMatch. A constant may be a fourth term
// the dataset does not hold, which no triple of it can match.
func TestPatternMatchProperty(t *testing.T) {
	pool := []rdf.Term{rdf.NewIRI("http://e/0"), rdf.NewIRI("http://e/1"), rdf.NewLiteral("l"), rdf.NewIRI("http://e/absent")}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		elem := func() sparql.TPElem {
			if k := r.Intn(4); k < 2 {
				return sparql.VarElem(testVars[k])
			}
			return sparql.TermElem(pool[r.Intn(len(pool))])
		}
		tp := sparql.TriplePattern{S: elem(), P: elem(), O: elem()}
		tr := rdf.Triple{S: pool[r.Intn(3)], P: pool[r.Intn(3)], O: pool[r.Intn(3)]}
		s := NewSchema(sparql.BGP{Patterns: []sparql.TriplePattern{tp}}, testData)
		row, ok := s.Pattern(tp).Match(rdf.EncodedTriple{S: id(tr.S), P: id(tr.P), O: id(tr.O)})
		want, wantOK := refMatch(tp, tr)
		if ok != wantOK || ok && !maps.Equal(bindings(s, []Row{row})[0], want) {
			t.Logf("seed %d: %v on %v: got %v %v, want %v %v", seed, tp, tr, row, ok, want, wantOK)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Random solution sequences over at most four variables — every
// variable never, sometimes or always bound on each side independently
// (so: no shared variable at all, a key some rows do not bind, a
// variable only some rows of one side bind), an empty side, duplicate
// rows, either side the larger: the join kernel, inner and outer, gives
// the nested loop's rows in the nested loop's order, and leaves its
// inputs as it found them.
func TestJoinMatchesNestedLoopProperty(t *testing.T) {
	s := schemaOf(testVars...)
	sizes := []int{0, 1, 2, 7, 8, 9, 40}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl, nr := sizes[r.Intn(len(sizes))], sizes[r.Intn(len(sizes))]
		lmodes, rmodes := make([]int, len(testVars)), make([]int, len(testVars))
		for v := range testVars {
			lmodes[v], rmodes[v] = r.Intn(3), r.Intn(3)
		}
		terms := 1 + r.Intn(1+max(nl, nr)/2)
		left, right := randomSide(r, s, nl, terms, lmodes), randomSide(r, s, nr, terms, rmodes)
		leftBefore, rightBefore := cloneRows(left), cloneRows(right)
		for _, outer := range []bool{false, true} {
			want := nestedJoin(bindings(s, left), bindings(s, right), outer)
			rows, err := sparql.JoinRows(left, right, outer)
			if err != nil || !sameSolutions(bindings(s, rows), want) {
				t.Logf("seed %d: %d × %d rows, modes %v × %v, %d terms, outer %v: %d rows (%v), nested loop %d\n got  %v\n want %v",
					seed, nl, nr, lmodes, rmodes, terms, outer, len(rows), err, len(want), bindings(s, rows), want)
				return false
			}
		}
		if !sameRows(left, leftBefore) || !sameRows(right, rightBefore) {
			t.Logf("seed %d: the join wrote to its inputs", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The kernel only reads its inputs: SPARQLGX's OPTIONAL broadcasts its
// right side, and every task left-joins its own partition with it, at
// once. Run with -race.
func TestJoinRowsShareARightSide(t *testing.T) {
	s := schemaOf(testVars...)
	r := rand.New(rand.NewSource(3))
	left := randomSide(r, s, 300, 40, []int{2, 1, 0, 2})
	right := randomSide(r, s, 200, 40, []int{2, 2, 1, 0})
	var wg sync.WaitGroup
	for task := 0; task < 4; task++ {
		part := left[task*75 : (task+1)*75]
		want := nestedJoin(bindings(s, part), bindings(s, right), true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sparql.JoinRows(part, right, true)
			if err != nil || !sameSolutions(bindings(s, got), want) {
				t.Errorf("a concurrent left join gave %d rows (%v), nested loop %d", len(got), err, len(want))
			}
		}()
	}
	wg.Wait()
}

// Key's bytes are shuffle keys, and spark.shuffle_bytes is sized from
// them: they are pinned.
func TestKeyBytes(t *testing.T) {
	s := schemaOf("n", "unbound", "x")
	r := s.Row()
	r[s.Slot("x")], r[s.Slot("n")] = id(rdf.NewIRI("http://e/x")), id(rdf.NewLiteral("Ann"))
	got := s.Key(r, s.Slots([]sparql.Var{"x", "unbound", "n"}))
	if want := "<http://e/x>\x00\x00\"Ann\""; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
}

// Keep reads a row's slots and decodes nothing: one test of a row,
// through every node type, allocates nothing.
func TestKeepAllocs(t *testing.T) {
	s := schemaOf(testVars...)
	r := s.Row()
	r[s.Slot("a")], r[s.Slot("b")] = id(rdf.NewIRI("http://e/1")), id(rdf.NewTypedLiteral("30", rdf.XSDInteger))
	cond := sparql.MustParse(`SELECT * WHERE { ?a <http://e/p> ?b . ?c <http://e/p> ?d
		FILTER((?b > 25 && !BOUND(?c)) || ?a = <http://e/2> || ?d < 3) }`).Where.(sparql.Filter).Cond
	keep := s.Keep(cond)
	if !keep(r) {
		t.Fatal("the row fails its FILTER")
	}
	if n := testing.AllocsPerRun(100, func() { keep(r) }); n != 0 {
		t.Fatalf("Keep allocates %.1f times per row, want 0", n)
	}
}

// The answer decodes the projected variables, and every variable for a
// CONSTRUCT. (A FILTER decodes nothing: TestKeepAllocs.)
func TestDecodeOnlyWhatIsRead(t *testing.T) {
	s := schemaOf(testVars...)
	r := randomSide(rand.New(rand.NewSource(1)), s, 1, 3, []int{2, 2, 2, 2})[0]
	answer := func(text string) *sparql.Results {
		res, err := sparql.Answer(sparql.MustParse(text), s.Vars, testData.Dict, []Row{r})
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return res
	}
	res := answer(`SELECT ?b WHERE { ?a <http://e/p> ?b . ?c <http://e/p> ?d }`)
	if b, _ := res.Term(0, 0); res.Len() != 1 || len(res.Vars) != 1 || b != testData.Term(r[s.Slot("b")]) {
		t.Errorf("SELECT ?b answered %v", res.Canonical())
	}
	graph := answer(`CONSTRUCT { ?a <http://e/q> ?d } WHERE { ?a <http://e/p> ?b . ?c <http://e/p> ?d }`)
	if len(graph.Triples) != 1 || graph.Triples[0].O != testData.Term(r[s.Slot("d")]) {
		t.Errorf("CONSTRUCT built %v", graph.Triples)
	}
}

// The reference's walker over a stub BGP evaluator, as an engine plugs
// one in: groups join, OPTIONAL keeps the unmatched left row, UNION
// concatenates, and FILTER goes through the hook when there is one. The
// hooks are called in the order the pattern is written, every
// sub-pattern of a Group, OPTIONAL and UNION even when a side answers
// nothing — an engine's Spark counters depend on it — and an error from
// the BGP hook ends the evaluation.
func TestEvalRows(t *testing.T) {
	iri := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://e/%d", i)) }
	tp := func(p string) sparql.BGP {
		return sparql.BGP{Patterns: []sparql.TriplePattern{{
			S: sparql.VarElem("s"), P: sparql.TermElem(rdf.NewIRI(p)), O: sparql.VarElem(sparql.Var(p)),
		}}}
	}
	s := NewSchema(sparql.Group{Parts: []sparql.GraphPattern{tp("name"), tp("mail"), tp("none"), tp("fail")}}, testData)
	// ?s name ?name for subjects 0–2; ?s mail ?mail for subject 1 only;
	// nothing for none, and an error for fail.
	var calls []string
	bgp := func(bgp sparql.BGP) ([]Row, error) {
		p := bgp.Patterns[0].P.Term.Value
		calls = append(calls, p)
		if p == "fail" {
			return nil, fmt.Errorf("stub: %s", p)
		}
		var rows []Row
		for _, subj := range map[string][]int{"name": {0, 1, 2}, "mail": {1}}[p] {
			r := s.Row()
			r[s.Slot("s")], r[s.Slot(sparql.Var(p))] = id(iri(subj)), id(iri(10+subj))
			rows = append(rows, r)
		}
		return rows, nil
	}
	filter := func(rows []Row, keep func(Row) bool) []Row {
		calls = append(calls, "filter")
		return rows[:min(1, len(rows))]
	}
	render := func(res *sparql.Results) string {
		var out []string
		for i := range res.Len() {
			var terms []string
			for _, v := range []sparql.Var{"s", "name", "mail"} {
				cell := ""
				if c := slices.Index(res.Vars, v); c >= 0 {
					if term, ok := res.Term(i, c); ok {
						cell = term.String()
					}
				}
				terms = append(terms, cell)
			}
			out = append(out, strings.Join(terms, ","))
		}
		return strings.Join(out, " | ")
	}
	isOne := sparql.MustParse(`SELECT ?s WHERE { ?s <name> ?name FILTER(?s = <http://e/1>) }`).Where.(sparql.Filter).Cond
	for _, tc := range []struct {
		name   string
		p      sparql.GraphPattern
		filter func([]Row, func(Row) bool) []Row
		want   string
		calls  string
	}{
		{"group", sparql.Group{Parts: []sparql.GraphPattern{tp("name"), tp("mail")}}, nil,
			"<http://e/1>,<http://e/11>,<http://e/11>", "name mail"},
		{"optional", sparql.Optional{Left: tp("name"), Right: tp("mail")}, nil,
			"<http://e/0>,<http://e/10>, | <http://e/1>,<http://e/11>,<http://e/11> | <http://e/2>,<http://e/12>,", "name mail"},
		{"union", sparql.Union{Left: tp("mail"), Right: tp("name")}, nil,
			"<http://e/1>,,<http://e/11> | <http://e/0>,<http://e/10>, | <http://e/1>,<http://e/11>, | <http://e/2>,<http://e/12>,", "mail name"},
		{"driver filter", sparql.Filter{Inner: tp("name"), Cond: isOne}, nil,
			"<http://e/1>,<http://e/11>,", "name"},
		{"engine filter", sparql.Filter{Inner: tp("name"), Cond: isOne}, filter,
			"<http://e/0>,<http://e/10>,", "name filter"},
		{"nothing skipped", sparql.Group{Parts: []sparql.GraphPattern{
			tp("none"),
			sparql.Optional{Left: tp("none"), Right: sparql.Filter{Inner: tp("mail"), Cond: isOne}},
			sparql.Union{Left: tp("none"), Right: tp("name")},
			sparql.Filter{Inner: tp("none"), Cond: isOne},
		}}, filter, "", "none none mail filter none name none filter"},
	} {
		calls = nil
		res, err := sparql.EvalRows(&sparql.Query{Form: sparql.FormSelect, Where: tc.p, Limit: -1}, s.Vars, testData.Dict, bgp, tc.filter)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := render(res); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
		if got := strings.Join(calls, " "); got != tc.calls {
			t.Errorf("%s: hook calls %q, want %q", tc.name, got, tc.calls)
		}
	}
	calls = nil
	failing := sparql.Group{Parts: []sparql.GraphPattern{tp("name"), sparql.Union{Left: tp("fail"), Right: tp("mail")}, tp("name")}}
	_, err := sparql.EvalRows(&sparql.Query{Form: sparql.FormSelect, Where: failing, Limit: -1}, s.Vars, testData.Dict, bgp, nil)
	if err == nil || err.Error() != "stub: fail" {
		t.Errorf("a failing BGP: error %v", err)
	}
	if got := strings.Join(calls, " "); got != "name fail" {
		t.Errorf("a failing BGP: hook calls %q, want \"name fail\"", got)
	}
}
