package sparql

// The fingerprint properties run random query shapes under a fixed
// seed: renaming variables and substituting subject, object and FILTER
// constants leave the fingerprint fixed; cutting one shared variable
// occurrence loose (a different join graph) moves it. Each of these
// mutations of fingerprint.go, made in a scratch copy, fails them:
//   - writeVar hashing the variable's name beside its ordinal fails
//     TestFingerprintLiteralInvariance;
//   - writePattern dropping the object position fails
//     TestFingerprintStructureSensitivity.

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func fpOf(t *testing.T, text string) string {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return FingerprintQuery(q)
}

var fpHex = regexp.MustCompile(`^[0-9a-f]{16}$`)

// fpShape is a random query shape: its patterns' subjects and objects
// are variable indexes (>= 0), IRI constants (-1) or literal constants
// (-2, objects only); predicates are one of three IRIs. filter, when
// >= 0, is the variable a numeric FILTER compares.
type fpShape struct {
	patterns [][3]int
	vars     int
	filter   int
	limit    bool
}

func randomShape(rng *rand.Rand) fpShape {
	sh := fpShape{vars: 1 + rng.Intn(4), filter: -1, limit: rng.Intn(2) == 0}
	term := func(object bool) int {
		switch r := rng.Intn(10); {
		case r < 6:
			return rng.Intn(sh.vars)
		case object && r < 8:
			return -2
		}
		return -1
	}
	for range 2 + rng.Intn(4) {
		sh.patterns = append(sh.patterns, [3]int{term(false), rng.Intn(3), term(true)})
	}
	// At least one variable is shared, so the join graph has an edge.
	sh.patterns[0][0], sh.patterns[1][0] = 0, 0
	if rng.Intn(2) == 0 {
		sh.filter = 0
	}
	return sh
}

// text renders the shape with the variables named by names and every
// constant drawn from rng, so two renderings differ in spelling and
// data only.
func (sh fpShape) text(names []string, rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("SELECT * WHERE { ")
	pos := func(e int) {
		switch {
		case e >= 0:
			b.WriteString("?" + names[e])
		case e == -1:
			fmt.Fprintf(&b, "<http://ex/e%d>", rng.Intn(1000))
		default:
			fmt.Fprintf(&b, `"v%d"`, rng.Intn(1000))
		}
	}
	for _, p := range sh.patterns {
		pos(p[0])
		fmt.Fprintf(&b, " <http://ex/p%d> ", p[1])
		pos(p[2])
		b.WriteString(" . ")
	}
	if sh.filter >= 0 {
		fmt.Fprintf(&b, "FILTER(?%s > %d) ", names[sh.filter], rng.Intn(100))
	}
	b.WriteString("}")
	if sh.limit {
		fmt.Fprintf(&b, " LIMIT %d", 1+rng.Intn(500))
	}
	return b.String()
}

// randomNames spells n distinct variable names.
func randomNames(rng *rand.Rand, n int) []string {
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		name := fmt.Sprintf("%c%d", 'a'+rng.Intn(26), rng.Intn(100))
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

var fpQuick = &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}

// TestFingerprintLiteralInvariance pins the core normalization as a
// property: two renderings of one shape that differ only in variable
// spellings, subject/object constants, FILTER constants and the LIMIT
// argument share a fingerprint.
func TestFingerprintLiteralInvariance(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sh := randomShape(rng)
		a := sh.text(randomNames(rng, sh.vars), rng)
		b := sh.text(randomNames(rng, sh.vars), rng)
		fa, fb := fpOf(t, a), fpOf(t, b)
		if !fpHex.MatchString(fa) {
			t.Errorf("fingerprint %q is not 16 hex digits", fa)
			return false
		}
		if fa != fb {
			t.Errorf("same shape hashed differently:\n  %s -> %s\n  %s -> %s", a, fa, b, fb)
			return false
		}
		return true
	}
	if err := quick.Check(prop, fpQuick); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintStructureSensitivity pins the other direction: cutting
// one occurrence of a shared variable loose changes the join graph and
// moves the fingerprint (a property), and so do the other structural
// differences below — predicate identity, modifiers, term kinds, form.
func TestFingerprintStructureSensitivity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sh := randomShape(rng)
		uses := make([]int, sh.vars)
		var shared [][2]int // (pattern, position) of each shared occurrence
		for _, p := range sh.patterns {
			for _, e := range []int{p[0], p[2]} {
				if e >= 0 {
					uses[e]++
				}
			}
		}
		for i, p := range sh.patterns {
			for _, at := range []int{0, 2} {
				if p[at] >= 0 && uses[p[at]] > 1 {
					shared = append(shared, [2]int{i, at})
				}
			}
		}
		cut := sh
		cut.patterns = append([][3]int(nil), sh.patterns...)
		o := shared[rng.Intn(len(shared))]
		cut.patterns[o[0]][o[1]] = sh.vars // a fresh variable
		cut.vars++
		names := randomNames(rng, cut.vars)
		a := sh.text(names, rand.New(rand.NewSource(seed)))
		b := cut.text(names, rand.New(rand.NewSource(seed)))
		if fpOf(t, a) == fpOf(t, b) {
			t.Errorf("different join graphs collided:\n  %s\n  %s", a, b)
			return false
		}
		return true
	}
	if err := quick.Check(prop, fpQuick); err != nil {
		t.Fatal(err)
	}

	diff := [][2]string{
		{ // predicate identity is structure
			`SELECT ?s WHERE { ?s <http://ex/name> ?n }`,
			`SELECT ?s WHERE { ?s <http://ex/age> ?n }`,
		},
		{ // pattern count
			`SELECT ?s WHERE { ?s <http://ex/p> ?o }`,
			`SELECT ?s WHERE { ?s <http://ex/p> ?o . ?s <http://ex/p> ?o2 }`,
		},
		{ // DISTINCT is structure
			`SELECT ?s WHERE { ?s <http://ex/p> ?o }`,
			`SELECT DISTINCT ?s WHERE { ?s <http://ex/p> ?o }`,
		},
		{ // LIMIT presence is structure (its value is not)
			`SELECT ?s WHERE { ?s <http://ex/p> ?o }`,
			`SELECT ?s WHERE { ?s <http://ex/p> ?o } LIMIT 10`,
		},
		{ // ORDER BY direction is structure
			`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } ORDER BY ?o`,
			`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } ORDER BY DESC(?o)`,
		},
		{ // term kind of a constant is structure
			`SELECT ?s WHERE { ?s <http://ex/p> "v" }`,
			`SELECT ?s WHERE { ?s <http://ex/p> <http://ex/v> }`,
		},
		{ // form is structure
			`SELECT ?s WHERE { ?s <http://ex/p> ?o }`,
			`ASK { ?s <http://ex/p> ?o }`,
		},
	}
	for i, pair := range diff {
		a, b := fpOf(t, pair[0]), fpOf(t, pair[1])
		if a == b {
			t.Errorf("case %d: structurally different queries collided on %s:\n  %s\n  %s",
				i, a, pair[0], pair[1])
		}
	}
}

// TestFingerprintSweepOneShape is the registry-cardinality contract
// from the workload observatory: 10k distinct query texts of one shape
// — a point lookup with ever-changing literals — produce exactly one
// fingerprint, and Prepare memoizes the same hash.
func TestFingerprintSweepOneShape(t *testing.T) {
	want := ""
	for i := 0; i < 10000; i++ {
		text := fmt.Sprintf(`SELECT ?s WHERE { ?s <http://ex/name> "user-%d" } LIMIT %d`, i, i+1)
		prep, err := Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		got := prep.Fingerprint()
		if want == "" {
			want = got
			if got != FingerprintQuery(prep.Query()) {
				t.Fatalf("Prepared.Fingerprint %s != FingerprintQuery %s", got, FingerprintQuery(prep.Query()))
			}
			continue
		}
		if got != want {
			t.Fatalf("text %d hashed to %s, want %s", i, got, want)
		}
	}
}
