package systemstest

// The query-partitioning oracle (Rigger & Su, "Finding Bugs in Database
// Systems via Query Partitioning", OOPSLA 2020) on FILTER's third value.
// FILTER keeps a row only when its condition is true, so for a
// predicate p whose one source of error is an OPTIONAL variable ?o,
// each row of a query Q lands in exactly one of Q[FILTER p],
// Q[FILTER !p] and Q[FILTER !BOUND(?o)], and the multiset Q is their
// union. A system is held to itself, not to a second evaluator that
// could share its mistake. The property runs on quick's seeds over
// RandomDataset, for the reference, the sharded route and every engine
// of the BGP+ fragment.
//
// Each mutant below was applied to a copy of the one FILTER evaluator
// (sparql.Holds) and is killed by the property:
//
//   - ! of an error is true (a two-valued !): an unbound ?o row lands
//     in Q[FILTER !p] and in Q[FILTER !BOUND(?o)];
//   - a comparison with an unbound operand is false, not an error: the
//     same row, the same two parts;
//   - BOUND of an unbound variable is an error: the row lands in no
//     part;
//   - = between two IRIs is an error, as between two literals: every
//     bound row lands in no part.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems"
)

// answer is a system under test, loaded with one dataset.
type answer func(*sparql.Query) (*sparql.Results, error)

func TestQueryPartitioning(t *testing.T) {
	for _, r := range routes() {
		t.Run(r.name, func(t *testing.T) {
			checkPartitioned(t, func(triples []rdf.Triple) answer { return r.load(t, triples) })
		})
	}
}

// route is a system under test: load builds it over a dataset.
type route struct {
	name string
	load func(*testing.T, []rdf.Triple) answer
}

// routes returns the reference, the sharded route at 3 shards × 2
// replicas and every engine of the BGP+ fragment.
func routes() []route {
	out := []route{
		{"reference", func(_ *testing.T, triples []rdf.Triple) answer {
			g := rdf.NewGraph(triples)
			return func(q *sparql.Query) (*sparql.Results, error) { return sparql.Evaluate(q, g) }
		}},
		{"sharded", func(t *testing.T, triples []rdf.Triple) answer {
			sg, err := shard.BuildReplicatedByName(triples, "hash-subject", 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			return func(q *sparql.Query) (*sparql.Results, error) { return sg.PrepareQuery(q).Run(context.Background()) }
		}},
	}
	conf := spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4}
	for i, e := range systems.AllEngines(conf) {
		if e.Info().SPARQL != core.FragmentBGPPlus {
			continue
		}
		out = append(out, route{e.Info().Name, func(t *testing.T, triples []rdf.Triple) answer {
			e := systems.AllEngines(conf)[i]
			if err := e.Load(triples); err != nil {
				t.Fatal(err)
			}
			return e.Execute
		}})
	}
	return out
}

// checkPartitioned checks the partition on each of quick's seeds: on
// the seed's RandomDataset, a random BGP of RandomQueries with an
// OPTIONAL arm ?x → ?o, and p = (?o = <a node>). load builds the system
// over a dataset.
func checkPartitioned(t *testing.T, load func([]rdf.Triple) answer) {
	var tally [4]int // rows of Q and of each part, over every seed
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		run := load(RandomDataset(seed))
		q := strings.TrimSuffix(RandomQueries(rng, 1, false)[0], "}") +
			fmt.Sprintf("OPTIONAL { ?x <%s%s> ?o } ", randomNS, objPreds[rng.Intn(len(objPreds))])
		p := fmt.Sprintf("?o = <%sn%d>", randomNS, rng.Intn(10))
		var parts [4][]string
		for i, filter := range []string{"", "FILTER(" + p + ") ", "FILTER(!(" + p + ")) ", "FILTER(!BOUND(?o)) "} {
			res, err := run(sparql.MustParse(q + filter + "}"))
			if err != nil {
				t.Logf("seed %d: %s%s}: %v", seed, q, filter, err)
				return false
			}
			parts[i] = res.Canonical()
			tally[i] += len(parts[i])
		}
		union := slices.Concat(parts[1], parts[2], parts[3])
		slices.Sort(union)
		if !slices.Equal(parts[0], union) {
			t.Logf("seed %d: %s}\n%d rows, but FILTER(%s) keeps %d, its negation %d and !BOUND(?o) %d",
				seed, q, len(parts[0]), p, len(parts[1]), len(parts[2]), len(parts[3]))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if tally[1] == 0 || tally[2] == 0 || tally[3] == 0 {
		t.Fatalf("parts of %d rows: %v; the property checked too little", tally[0], tally[1:])
	}
}
