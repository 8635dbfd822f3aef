package systemstest

// Monotonicity: adding a triple to a dataset never removes a solution
// of a query with no OPTIONAL, negation, aggregate or LIMIT — BGPs,
// joins, UNION and FILTER only ever see more rows, and a FILTER's test
// of a row reads that row alone. Each system is held to itself, on 100
// of quick's seeds (fixed, so a mutant's kill reproduces): the query is
// one group drawn from RandomQueries' BGP, UNION and FILTER forms, or
// the join of two, and its answer over RandomDataset less one triple
// must be a sub-multiset of its answer over the whole dataset, for ten
// of the triples whose predicate the query names.
//
// Each mutant below was applied to a copy of the reference evaluator,
// whose walker and join kernel the reference, the sharded route, HAQWA,
// S2RDF and S2X share, and is killed by the property:
//
//   - the join drops its last right row (killed on HAQWA, where adding
//     a triple can reorder a join's right side, so that the row dropped
//     is another one);
//   - UNION keeps only one branch, its left one whenever that has a row
//     (killed on all five: a triple that gives the left branch its first
//     row drops the right branch).
//
// A positional drop is invisible wherever adding a triple keeps the
// other rows in their order, so only a route that reorders shows the
// first mutant.

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestAddingATripleKeepsEverySolution(t *testing.T) {
	for _, r := range routes() {
		t.Run(r.name, func(t *testing.T) {
			checks, grew := 0, 0
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				var bodies []string
				for n := 1 + rng.Intn(2); len(bodies) < n; {
					text := RandomQueries(rng, 1, true)[0]
					if !strings.Contains(text, "OPTIONAL") {
						bodies = append(bodies, strings.TrimSuffix(strings.TrimPrefix(text, "SELECT * WHERE "), "}")+"} ")
					}
				}
				text := "SELECT * WHERE { " + strings.Join(bodies, "") + "}"
				answer := func(data []rdf.Triple) []string {
					res, err := r.load(t, data)(sparql.MustParse(text))
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, text, err)
					}
					return res.Canonical()
				}
				// The dataset less one triple, then with it back in its
				// place: a few of the triples whose predicate the query
				// names, so that the triple tends to matter.
				all := RandomDataset(seed)
				want := answer(all)
				tried := 0
				for _, i := range rng.Perm(len(all)) {
					if tried == 10 || !strings.Contains(text, "<"+all[i].P.Value+">") {
						continue
					}
					tried++
					checks++
					got := answer(slices.Delete(slices.Clone(all), i, i+1))
					if !subMultiset(got, want) {
						t.Logf("seed %d: %s\n%d rows, %d with %v, which lack some of them", seed, text, len(got), len(want), all[i])
						return false
					}
					if len(want) > len(got) {
						grew++
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
				t.Fatal(err)
			}
			if grew < checks/10 {
				t.Fatalf("only %d of %d answers grew with their triple: the property checked too little", grew, checks)
			}
		})
	}
}

// subMultiset reports whether sorted a is a sub-multiset of sorted b.
func subMultiset(a, b []string) bool {
	for _, row := range a {
		for len(b) > 0 && b[0] < row {
			b = b[1:]
		}
		if len(b) == 0 || b[0] != row {
			return false
		}
		b = b[1:]
	}
	return true
}
