package sparql

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// Results.Equal compares two answers' id rows, each over a dictionary of
// its own, by translating one side's distinct ids into the other's
// space. It is held to two references over the same answers decoded
// into maps: the map-keyed Equal it replaced (refMapEqual: count one
// side's rendered row keys, take the other's off them) and, before that,
// rendering every row, sorting both sides and comparing the slices
// (refSortedEqual).
//
// The generator draws answers as term tables: rows repeat, variables
// stay unbound, rows bind variables outside Vars, and some values are
// aggregate results the dictionary lacks. Each side is encoded into its
// own dictionary in its own id order, with those values interned past
// it as an aggregate's are, and its columns over slots in a random
// order. The second side is a shuffle of the first, then at most one
// edit that may or may not change the multiset: one row's duplicate in
// place of another, a row dropped, added or replaced, Vars reordered, a
// bound cell unbound, or a cell bound to a term the first side lacks.
//
// Mutants it catches, each checked in a scratch copy:
//   - raw ids compared across dictionaries, with no translation;
//   - an overflow id treated as unbound;
//   - multiset equality weakened to set equality;
//   - the untranslatable-term check dropped (the translation's miss
//     taken as an id);
//   - the length check dropped (a strict sub-multiset compares equal);
//   - counting without decrementing.

// binding is a solution decoded into a map, as the references read it.
type binding map[Var]rdf.Term

// bindings decodes r's rows into maps.
func (r *Results) bindings() []binding {
	out := make([]binding, r.Len())
	for i := range out {
		out[i] = binding{}
		for c, v := range r.Vars {
			if t, ok := r.Term(i, c); ok {
				out[i][v] = t
			}
		}
	}
	return out
}

// bindingOf decodes one slot row of env into a map.
func (env *evalEnv) bindingOf(row slotRow) binding {
	b := make(binding, len(row))
	for i, id := range row {
		if id != unboundID {
			b[env.vars[i]] = env.term(id)
		}
	}
	return b
}

// newResults is the answer whose rows are the given terms over vars,
// Unbound marking an unbound cell, encoded into a dictionary of its own.
func newResults(vars []Var, rows [][]rdf.Term) *Results {
	dict := rdf.NewDictionary()
	ids := make([]slotRow, len(rows))
	cols := make([]int, len(vars))
	for i, row := range rows {
		ids[i] = make(slotRow, len(vars))
		for c, t := range row {
			ids[i][c] = unboundID
			if t != Unbound {
				ids[i][c] = dict.Encode(t)
			}
		}
	}
	for c := range cols {
		cols[c] = c
	}
	return &Results{Vars: vars, idRows: idRows{env: rowEnv(vars, dict), rows: ids, cols: cols}}
}

// refRowKey renders one binding canonically over vars.
func refRowKey(vars []Var, b binding) string {
	var buf []byte
	for i, v := range vars {
		if i > 0 {
			buf = append(buf, '\t')
		}
		if t, ok := b[v]; ok {
			buf = t.AppendTo(buf)
		} else {
			buf = append(buf, "UNBOUND"...)
		}
	}
	return string(buf)
}

// refMapEqual is the map-keyed Equal of SELECT answers.
func refMapEqual(vars []Var, rows []binding, otherVars []Var, other []binding) bool {
	if len(rows) != len(other) {
		return false
	}
	index := make(map[string]int, len(rows))
	var counts []int
	for _, b := range rows {
		key := refRowKey(vars, b)
		i, ok := index[key]
		if !ok {
			i = len(counts)
			index[key] = i
			counts = append(counts, 0)
		}
		counts[i]++
	}
	for _, b := range other {
		i, ok := index[refRowKey(otherVars, b)]
		if !ok || counts[i] == 0 {
			return false
		}
		counts[i]--
	}
	return true
}

// refSortedEqual compares the sorted renderings of both sides.
func refSortedEqual(vars []Var, rows []binding, otherVars []Var, other []binding) bool {
	canon := func(vars []Var, rows []binding) []string {
		out := make([]string, len(rows))
		for i, b := range rows {
			out[i] = refRowKey(vars, b)
		}
		sort.Strings(out)
		return out
	}
	return slices.Equal(canon(vars, rows), canon(otherVars, other))
}

// termAnswer is an answer as a term table: its variables and its rows.
type termAnswer struct {
	vars []Var
	rows []binding
}

var (
	// answerTerms are the values a drawn answer binds; the typed
	// integers are also what an aggregate computes.
	answerTerms = []rdf.Term{
		rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/b"), rdf.NewLiteral("x\ty"),
		rdf.NewLangLiteral("x", "en"), rdf.NewBlank("b0"),
		rdf.NewTypedLiteral("1", rdf.XSDInteger), rdf.NewTypedLiteral("2", rdf.XSDInteger),
	}
	// foreignTerm is bound by no answer the generator draws but by an
	// edit.
	foreignTerm = rdf.NewIRI("http://ex/foreign")
)

// answerDict encodes answerTerms and a few unused terms into a fresh
// dictionary in a random order, each typed integer only half the time:
// an answer over it interns the others past it, as an aggregate's
// values are.
func answerDict(r *rand.Rand) *rdf.Dictionary {
	dict := rdf.NewDictionary()
	order := slices.Clone(answerTerms)
	for i := r.Intn(4); i > 0; i-- {
		order = append(order, rdf.NewIRI("http://ex/unused"+string(rune('a'+i))))
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, t := range order {
		if t.Datatype != rdf.XSDInteger || r.Intn(2) == 0 {
			dict.Encode(t)
		}
	}
	return dict
}

// encode builds a's id rows over dict, or over a fresh answerDict when
// dict is nil. The rows carry one slot more than a's variables, bound
// outside Vars, and the columns map onto the slots in a random order.
func encode(r *rand.Rand, a termAnswer, dict *rdf.Dictionary) *Results {
	if dict == nil {
		dict = answerDict(r)
	}
	width := len(a.vars) + 1
	slots := r.Perm(width)
	vars := make([]Var, width)
	cols := make([]int, len(a.vars))
	for c, v := range a.vars {
		cols[c] = slots[c]
		vars[slots[c]] = v
	}
	vars[slots[width-1]] = "hidden"
	env := rowEnv(vars, dict)
	rows := make([]slotRow, len(a.rows))
	for i, b := range a.rows {
		rows[i] = make(slotRow, width)
		for s, v := range vars {
			rows[i][s] = unboundID
			if t, ok := b[v]; ok {
				rows[i][s] = env.intern(t)
			}
		}
	}
	return &Results{Vars: slices.Clone(a.vars), idRows: idRows{env: env, rows: rows, cols: cols}}
}

// randomRow draws a row over a, b, c and hidden.
func randomRow(r *rand.Rand) binding {
	b := binding{}
	for _, v := range []Var{"a", "b", "c", "hidden"} {
		if r.Intn(4) > 0 { // a quarter of the variables stay unbound
			b[v] = answerTerms[r.Intn(len(answerTerms))]
		}
	}
	return b
}

// randomAnswer draws an answer over one to three of a, b and c.
func randomAnswer(r *rand.Rand) termAnswer {
	all := []Var{"a", "b", "c"}
	a := termAnswer{vars: all[:1+r.Intn(len(all))]}
	for n := r.Intn(8); n > 0; n-- {
		if len(a.rows) > 0 && r.Intn(3) == 0 {
			a.rows = append(a.rows, a.rows[r.Intn(len(a.rows))]) // a repeated row
		} else {
			a.rows = append(a.rows, randomRow(r))
		}
	}
	return a
}

// derive draws a second answer from a.
func derive(r *rand.Rand, a termAnswer) termAnswer {
	row := func() binding { return randomRow(r) }
	b := termAnswer{vars: slices.Clone(a.vars), rows: slices.Clone(a.rows)}
	r.Shuffle(len(b.rows), func(i, j int) { b.rows[i], b.rows[j] = b.rows[j], b.rows[i] })
	edit := func(set func(binding, Var)) { // one cell of one row, copied
		if n := len(b.rows); n > 0 {
			i, v := r.Intn(n), b.vars[r.Intn(len(b.vars))]
			e := binding{}
			for k, t := range b.rows[i] {
				e[k] = t
			}
			set(e, v)
			b.rows[i] = e
		}
	}
	switch n := len(b.rows); r.Intn(8) {
	case 0:
		if n > 1 { // one row's duplicate in place of another
			b.rows[r.Intn(n)] = b.rows[r.Intn(n)]
		}
	case 1:
		if n > 0 {
			b.rows = b.rows[1:]
		}
	case 2:
		b.rows = append(b.rows, row())
	case 3:
		if n > 0 {
			b.rows[0] = row()
		}
	case 4:
		r.Shuffle(len(b.vars), func(i, j int) { b.vars[i], b.vars[j] = b.vars[j], b.vars[i] })
	case 5:
		edit(func(e binding, v Var) { delete(e, v) })
	case 6:
		edit(func(e binding, v Var) { e[v] = foreignTerm })
	}
	return b
}

func checkEqualProperty(t *testing.T, ref func([]Var, []binding, []Var, []binding) bool) {
	var equal, differ int
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAnswer(r)
		b := derive(r, a)
		want := ref(a.vars, a.rows, b.vars, b.rows)
		if want {
			equal++
		} else {
			differ++
		}
		ra, rb := encode(r, a, nil), encode(r, b, nil)
		for range 2 { // the second time through the memoized translations
			if ra.Equal(rb) != want || rb.Equal(ra) != want {
				t.Logf("vars %v / %v rows %v / %v: Equal %v / %v, want %v", a.vars, b.vars, a.rows, b.rows, ra.Equal(rb), rb.Equal(ra), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
	if equal < 500 || differ < 500 {
		t.Fatalf("drew %d equal and %d different pairs: the generator no longer tests both", equal, differ)
	}
}

func TestResultsEqualMatchesMapEqual(t *testing.T) { checkEqualProperty(t, refMapEqual) }

func TestResultsEqualMatchesSortedCanonical(t *testing.T) { checkEqualProperty(t, refSortedEqual) }

// An answer decodes back to the table it was encoded from, through
// bindings (Term), Canonical and newResults alike.
func TestResultsRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAnswer(r)
		res := encode(r, a, nil)
		table := make([][]rdf.Term, len(a.rows))
		want := make([]string, len(a.rows))
		for i, b := range a.rows {
			table[i] = make([]rdf.Term, len(a.vars))
			for c, v := range a.vars {
				table[i][c] = Unbound
				if t, ok := b[v]; ok {
					table[i][c] = t
				}
			}
			want[i] = refRowKey(a.vars, b)
		}
		got := res.bindings()
		for i, b := range a.rows {
			for _, v := range a.vars {
				if got[i][v] != b[v] {
					return false
				}
			}
		}
		built := newResults(a.vars, table)
		sort.Strings(want)
		return slices.Equal(res.Canonical(), want) && slices.Equal(built.Canonical(), want) &&
			built.Equal(res) && strings.Count(res.String(), "\n") == 1+len(a.rows)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
}

// Answers over one dictionary, as the nine engines of an assessment
// pass give them, compared at once against one reference (run with
// -race): each comparison reads both answers only, and matches the map
// reference, and so does one over a second dictionary.
func TestResultsEqualConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for round := 0; round < 50; round++ {
		a := randomAnswer(r)
		ref := encode(r, a, nil)
		shared := answerDict(r)
		answers := make([]termAnswer, 9)
		encoded := make([]*Results, len(answers))
		for i := range answers {
			answers[i] = derive(r, a)
			dict := shared
			if i == len(answers)-1 {
				dict = nil
			}
			encoded[i] = encode(r, answers[i], dict)
		}
		var wg sync.WaitGroup
		for i, b := range answers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, want := encoded[i].Equal(ref), refMapEqual(b.vars, b.rows, a.vars, a.rows); got != want {
					t.Errorf("round %d answer %d: Equal %v, want %v", round, i, got, want)
				}
			}()
		}
		wg.Wait()
	}
}
