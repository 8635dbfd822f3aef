package sparql

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rdf"
)

// joinTestGraph builds n subjects each carrying a name and an age
// triple, for exercising joins between the two star branches.
func joinTestGraph(n int) *rdf.Graph {
	ts := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		ts = append(ts,
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/name"), O: rdf.NewLiteral(fmt.Sprintf("n%d", i))},
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/age"), O: rdf.NewTypedLiteral(fmt.Sprint(20+i%8), rdf.XSDInteger)},
		)
	}
	return rdf.NewGraph(ts)
}

// joinSides evaluates the two star branches separately, so the join
// itself can be driven directly.
func joinSides(t testing.TB, g *rdf.Graph) (*evalEnv, []slotRow, []slotRow) {
	q := MustParse(`SELECT * WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a }`)
	env := newEvalEnv(q, g)
	nameRows, err := env.evalPattern(BGP{Patterns: []TriplePattern{{
		S: VarElem("s"), P: TermElem(rdf.NewIRI("http://ex/name")), O: VarElem("n"),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ageRows, err := env.evalPattern(BGP{Patterns: []TriplePattern{{
		S: VarElem("s"), P: TermElem(rdf.NewIRI("http://ex/age")), O: VarElem("a"),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return env, nameRows, ageRows
}

func rowsEqual(a, b []slotRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// The hash join must produce byte-identical output, in the same order,
// as the nested loop it replaces — for both build-side choices.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	g := joinTestGraph(40)
	env, names, ages := joinSides(t, g)

	// Build on the right side (|b| <= |a|).
	if got, want := env.joinRows(names, ages[:17]), env.nestedJoinRows(names, ages[:17]); !rowsEqual(got, want) {
		t.Fatalf("build-right hash join diverged from nested loop:\n%v\n%v", got, want)
	}
	// Build on the left side (|a| < |b|).
	if got, want := env.joinRows(names[:17], ages), env.nestedJoinRows(names[:17], ages); !rowsEqual(got, want) {
		t.Fatalf("build-left hash join diverged from nested loop:\n%v\n%v", got, want)
	}
}

func TestHashOptionalMatchesNestedLoop(t *testing.T) {
	g := joinTestGraph(40)
	env, names, ages := joinSides(t, g)

	// Drop some right rows so unmatched lefts pass through.
	if got, want := env.optionalRows(names, ages[:11]), env.nestedOptionalRows(names, ages[:11]); !rowsEqual(got, want) {
		t.Fatalf("build-right optional diverged from nested loop:\n%v\n%v", got, want)
	}
	if got, want := env.optionalRows(names[:11], ages), env.nestedOptionalRows(names[:11], ages); !rowsEqual(got, want) {
		t.Fatalf("build-left optional diverged from nested loop:\n%v\n%v", got, want)
	}
}

// A cartesian join (no shared slots at all) must take the nested-loop
// fallback and produce the full cross product.
func TestCartesianJoinNoSharedSlots(t *testing.T) {
	g := rdf.NewGraph([]rdf.Triple{
		{S: rdf.NewIRI("http://ex/s1"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("x1")},
		{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/q"), O: rdf.NewLiteral("y1")},
		{S: rdf.NewIRI("http://ex/s3"), P: rdf.NewIRI("http://ex/q"), O: rdf.NewLiteral("y2")},
	})
	q := MustParse(`SELECT * WHERE { { ?a <http://ex/p> ?x } { ?b <http://ex/q> ?y } }`)
	res, err := Evaluate(q, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("cartesian join returned %d rows, want 2", res.Len())
	}
	for _, b := range res.bindings() {
		if b["a"] != rdf.NewIRI("http://ex/s1") || b["x"] != rdf.NewLiteral("x1") {
			t.Fatalf("cartesian row lost left bindings: %v", b)
		}
		if _, ok := b["b"]; !ok {
			t.Fatalf("cartesian row lost right bindings: %v", b)
		}
	}
	// The fallback itself: no shared slots means no hash key.
	env, names, _ := joinSides(t, joinTestGraph(4))
	if key := env.sharedKeySlots(names, names); len(key) == 0 {
		t.Fatal("expected a hash key for identical sides")
	}
}

// OPTIONAL where the left side has the join variable unbound in some
// rows: an unbound slot is compatible with every right value, which the
// hash path cannot express — the partial-binding fallback must fire and
// keep SPARQL's left-join semantics.
func TestOptionalJoinVarUnboundOnLeft(t *testing.T) {
	name := rdf.NewIRI("http://ex/name")
	knows := rdf.NewIRI("http://ex/knows")
	s1, s2, s3 := rdf.NewIRI("http://ex/s1"), rdf.NewIRI("http://ex/s2"), rdf.NewIRI("http://ex/s3")
	g := rdf.NewGraph([]rdf.Triple{
		{S: s1, P: name, O: rdf.NewLiteral("A")},
		{S: s2, P: name, O: rdf.NewLiteral("B")},
		{S: s3, P: name, O: rdf.NewLiteral("C")},
		{S: s1, P: knows, O: s2},
	})
	q := MustParse(`SELECT * WHERE {
		{ ?s <http://ex/name> ?n }
		OPTIONAL { ?s <http://ex/knows> ?k }
		OPTIONAL { ?k <http://ex/name> ?kn }
	}`)
	res, err := Evaluate(q, g)
	if err != nil {
		t.Fatal(err)
	}
	// s1 knows s2 → one extended row. s2 and s3 have ?k unbound, so the
	// second OPTIONAL joins them with every (?k, ?kn) name row: 3 each.
	if res.Len() != 7 {
		t.Fatalf("got %d rows, want 7: %v", res.Len(), res.bindings())
	}
	boundK := 0
	for _, b := range res.bindings() {
		if b["s"] == s1 {
			if b["k"] != s2 || b["kn"] != rdf.NewLiteral("B") {
				t.Fatalf("s1 row mis-joined: %v", b)
			}
			boundK++
		} else if _, ok := b["k"]; !ok {
			t.Fatalf("unbound-?k row should have been extended by the fallback: %v", b)
		}
	}
	if boundK != 1 {
		t.Fatalf("s1 matched %d times, want 1", boundK)
	}
}

// Union must not alias rows across its branches: modifying the combined
// sequence downstream (FILTER compacts in place) must leave both branch
// results intact and correct. Each disjunct drops one row of one branch
// (comparing a name with 23, or an age with "n3", is an error, and
// false || error is an error).
func TestUnionFilterInPlace(t *testing.T) {
	g := joinTestGraph(8)
	q := MustParse(`SELECT ?s ?v WHERE {
		{ { ?s <http://ex/name> ?v } UNION { ?s <http://ex/age> ?v } }
		FILTER(?v != "n3" || ?v != 23)
	}`)
	res, err := Evaluate(q, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 14 {
		t.Fatalf("union+filter returned %d rows, want 14", res.Len())
	}
	for _, b := range res.bindings() {
		if b["v"] == rdf.NewLiteral("n3") || b["v"] == rdf.NewTypedLiteral("23", rdf.XSDInteger) {
			t.Fatalf("filtered row survived: %v", b)
		}
	}
}
