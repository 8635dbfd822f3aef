package sparql

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// oneShardSet holds the triples as a one-shard set: the smallest
// sharded backend, for tests of the sharded executor inside this
// package.
func oneShardSet(t testing.TB, triples []rdf.Triple) *ShardSet {
	t.Helper()
	dict := rdf.NewDictionary()
	enc := make([]rdf.EncodedTriple, len(triples))
	positions := make([]int32, len(triples))
	for i, tr := range triples {
		enc[i], positions[i] = dict.EncodeTriple(tr), int32(i)
	}
	view, err := rdf.NewPositionedView(dict, enc, positions)
	if err != nil {
		t.Fatal(err)
	}
	return &ShardSet{Dict: dict, Views: []*rdf.EncodedView{view}, Stats: rdf.ComputeEncodedStats(dict, enc)}
}

// newEvalEnv is the environment of one run of q over g with default
// options, for tests that drive the evaluator's parts directly.
func newEvalEnv(q *Query, g *rdf.Graph) *evalEnv {
	return PrepareQuery(q).newEnv(context.Background(), GraphSet(g), &runOpts{parallelism: 1})
}

// A bind-join batch past the merge key's index range fails typed
// instead of wrapping; the limit is lowered here to reach the boundary.
func TestBindJoinCapacityError(t *testing.T) {
	old := maxBindRows
	maxBindRows = 3
	defer func() { maxBindRows = old }()

	shardSet := func(subjects int) (*ShardSet, *rdf.Graph) {
		var triples []rdf.Triple
		for i := 0; i < subjects; i++ {
			s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
			triples = append(triples,
				rdf.Triple{S: s, P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("o")},
				rdf.Triple{S: s, P: rdf.NewIRI("http://ex/q"), O: s})
		}
		return oneShardSet(t, triples), rdf.NewGraph(triples)
	}
	prep, err := Prepare(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . ?s <http://ex/q> ?s }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	atLimit, g := shardSet(3) // the second pattern's batch is 3 rows
	want, err := prep.Run(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prep.RunSharded(ctx, atLimit)
	if err != nil || !got.Equal(want) || got.Len() != 3 {
		t.Fatalf("a batch of 3 rows at a limit of 3: err %v, %d rows", err, got.Len())
	}

	past, _ := shardSet(4)
	_, err = prep.RunSharded(ctx, past)
	var ce *rdf.CapacityError
	if !errors.As(err, &ce) || ce.What != "bind-join rows" || ce.Limit != 3 {
		t.Fatalf("a batch of 4 rows at a limit of 3: err = %v, want a bind-join rows CapacityError", err)
	}
}
