package sparql

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

func allocTestGraph() *rdf.Graph {
	var ts []rdf.Triple
	for i := 0; i < 64; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		ts = append(ts,
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/name"), O: rdf.NewLiteral(fmt.Sprintf("n%d", i))},
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/age"), O: rdf.NewTypedLiteral(fmt.Sprint(20+i%8), rdf.XSDInteger)},
		)
	}
	return rdf.NewGraph(ts)
}

// Single-pattern evaluation must stay effectively allocation-free:
// matched rows are bump-allocated from the environment's arena, so the
// amortized heap cost of extending one binding row is a fraction of an
// allocation (one chunk per 256 rows). A regression to per-candidate
// cloning shows up here as n >= 1.
func TestMatchPatternAllocs(t *testing.T) {
	g := allocTestGraph()
	q := MustParse(`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`)
	env := newEvalEnv(q, g)
	bgp, ok := q.BGPOf()
	if !ok || len(bgp.Patterns) != 1 {
		t.Fatal("expected a single-pattern BGP")
	}
	cp := env.compilePattern(bgp.Patterns[0])
	row := env.emptyRow()
	out := make([]slotRow, 0, 128)

	matches := env.matchPattern(&cp, row, out[:0])
	if len(matches) != 64 {
		t.Fatalf("matchPattern returned %d rows, want 64", len(matches))
	}
	n := testing.AllocsPerRun(100, func() {
		out = env.matchPattern(&cp, row, out[:0])
	})
	if n >= 1 {
		t.Fatalf("single-pattern matchPattern allocates %.2f times per evaluation, want amortized < 1", n)
	}
}

// A bound-subject lookup through the public API must not copy the
// graph index: the candidate slice is a zero-copy view and candidate
// filtering happens in id space.
func TestEvaluateBoundSubjectAllocs(t *testing.T) {
	g := allocTestGraph()
	q := MustParse(`SELECT ?p ?o WHERE { <http://ex/s9> ?p ?o }`)
	// Warm the lazily built encoded view and stats.
	if _, err := Evaluate(q, g); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := Evaluate(q, g); err != nil {
			t.Fatal(err)
		}
	})
	// 2 result rows decode to 2 small maps plus fixed per-query setup;
	// anything near the old per-candidate map-churn regime (≈47) means
	// the zero-copy path rotted.
	if n > 30 {
		t.Fatalf("bound-subject Evaluate allocates %.1f times per query, want <= 30", n)
	}
}

// The hash-join engine must allocate O(1) on top of the output rows:
// the counting pass sizes the output slice and the arena before the
// emit pass runs, while the nested-loop baseline grows both
// incrementally. The ≥5× gap is the PR 2 acceptance bar; a regression
// to incremental growth (or a fallback that silently always fires)
// shows up here as the ratio collapsing.
func TestHashJoinAllocsVsNestedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic nested-loop baseline")
	}
	g := joinTestGraph(benchJoinRows)
	env, names, ages := joinSides(t, g)
	hash := testing.AllocsPerRun(2, func() { _ = env.joinRows(names, ages) })
	nested := testing.AllocsPerRun(2, func() { _ = env.nestedJoinRows(names, ages) })
	if hash*5 > nested {
		t.Fatalf("hash join allocates %.1f/run vs nested %.1f/run, want >= 5x fewer", hash, nested)
	}
	hashOpt := testing.AllocsPerRun(2, func() { _ = env.optionalRows(names, ages) })
	nestedOpt := testing.AllocsPerRun(2, func() { _ = env.nestedOptionalRows(names, ages) })
	if hashOpt*5 > nestedOpt {
		t.Fatalf("hash optional allocates %.1f/run vs nested %.1f/run, want >= 5x fewer", hashOpt, nestedOpt)
	}
}

// Concurrent Evaluate calls on a shared graph must be safe: the
// lazily built encoded view and cached stats are filled under a lock.
func TestEvaluateConcurrent(t *testing.T) {
	g := allocTestGraph()
	q := MustParse(`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } ORDER BY ?n LIMIT 10`)
	done := make(chan *Results, 8)
	for i := 0; i < 8; i++ {
		go func() {
			r, err := Evaluate(q, g)
			if err != nil {
				t.Error(err)
			}
			done <- r
		}()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if r := <-done; !r.Equal(first) {
			t.Fatal("concurrent evaluations disagree")
		}
	}
}

// FILTER reads an id-space row's slots and decodes nothing: one
// evaluation, through every node type and both kinds of comparison,
// allocates nothing.
func TestFilterAllocs(t *testing.T) {
	g := allocTestGraph()
	q := MustParse(`SELECT * WHERE { ?s <http://ex/name> ?n OPTIONAL { ?s <http://ex/age> ?a }
		FILTER((?a > 25 && BOUND(?n)) || !(?n = "n3")) }`)
	env := newEvalEnv(q, g)
	rows, err := env.evalPattern(q.Where.(Filter).Inner)
	if err != nil || len(rows) != 64 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	cond := CompileFilter(q.Where.(Filter).Cond, env.slots)
	kept := 0
	n := testing.AllocsPerRun(10, func() {
		kept = 0
		for _, row := range rows {
			if Holds(cond, idRow{env, row}) {
				kept++
			}
		}
	})
	if kept != 63 || n != 0 {
		t.Fatalf("FILTER kept %d of 64 rows (want 63) at %.1f allocs per pass, want 0", kept, n)
	}

	// Two numeric operands, a variable and a constant or two variables,
	// compare by value: the row's numeric column and the constant valued
	// at compile time, with no rdf.Term read. Mutant killed: eval
	// comparing every pair through compare's terms.
	ageRows, err := env.evalPattern(BGP{Patterns: []TriplePattern{{S: VarElem("s"), P: TermElem(rdf.NewIRI("http://ex/age")), O: VarElem("a")}}})
	if err != nil || len(ageRows) != 64 {
		t.Fatalf("%d age rows, %v", len(ageRows), err)
	}
	a := Operand{IsVar: true, Var: "a"}
	for _, c := range []struct {
		cond FilterExpr
		kept int
	}{
		{Comparison{Op: ">", L: a, R: TermElem(rdf.NewTypedLiteral("25", rdf.XSDInteger))}, 16},
		{Comparison{Op: "<=", L: a, R: a}, 64},
	} {
		cond := CompileFilter(c.cond, env.slots)
		terms, kept := 0, 0
		for _, row := range ageRows {
			if Holds(cond, termCounter{idRow{env, row}, &terms}) {
				kept++
			}
		}
		if kept != c.kept || terms != 0 {
			t.Fatalf("FILTER(%v) kept %d of 64 rows (want %d) and read %d terms, want 0", c.cond, kept, c.kept, terms)
		}
	}
}

// termCounter is an id row that counts the terms FILTER reads of it.
type termCounter struct {
	idRow
	terms *int
}

func (r termCounter) Term(slot int) rdf.Term {
	*r.terms++
	return r.idRow.Term(slot)
}

// rdf.NumericValue's alloc-free fast path must still admit the xsd:double
// special lexical forms that strconv understands.
func TestNumericValueSpecialForms(t *testing.T) {
	numericValue := rdf.NumericValue
	for _, c := range []struct {
		val  string
		want float64
		ok   bool
	}{
		{"42", 42, true},
		{"-3.5", -3.5, true},
		{".5", 0.5, true},
		{"INF", 0, true},
		{"-INF", 0, true},
		{"NaN", 0, true},
		{"abc", 0, false},
		{"", 0, false},
		{"12abc", 0, false},
	} {
		f, ok := numericValue(rdf.NewTypedLiteral(c.val, "http://www.w3.org/2001/XMLSchema#double"))
		if ok != c.ok {
			t.Fatalf("numericValue(%q) ok = %v, want %v", c.val, ok, c.ok)
		}
		if c.ok && c.val != "INF" && c.val != "-INF" && c.val != "NaN" && f != c.want {
			t.Fatalf("numericValue(%q) = %v, want %v", c.val, f, c.want)
		}
	}
	if f, ok := numericValue(rdf.NewTypedLiteral("INF", "http://www.w3.org/2001/XMLSchema#double")); !ok || f <= 0 {
		t.Fatalf("INF = %v,%v; want +Inf", f, ok)
	}
	if f, ok := numericValue(rdf.NewTypedLiteral("-INF", "http://www.w3.org/2001/XMLSchema#double")); !ok || f >= 0 {
		t.Fatalf("-INF = %v,%v; want -Inf", f, ok)
	}
}
