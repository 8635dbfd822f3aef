package shard

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// readDoc is an N-Triples document with everything a streamed boot
// must survive: the small University dataset, blank nodes, escaped,
// typed and language-tagged literals, comments, blank lines, and
// statements said twice.
func readDoc(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	if err := rdf.WriteNTriples(&b, triples); err != nil {
		t.Fatal(err)
	}
	ns := workload.UnivNS
	b.WriteString("# extra statements\n\n")
	b.WriteString("_:b0 <" + ns + "name> \"blank \\\"quoted\\\"\\tname\\n\" .\n")
	b.WriteString("_:b0 <" + ns + "advisor> <" + ns + "univ0.dept0.prof0> .\n")
	b.WriteString("<" + ns + "univ0.dept0.prof0> <" + ns + "knows> _:b1 .\n")
	b.WriteString("_:b1 <" + ns + "age> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n")
	b.WriteString("_:b1 <" + ns + "name> \"Zoë\"@fr .\n")
	b.WriteString("_:b1 <" + ns + "name> \"Zoë\" .\n")
	// Every fifth line again, after the whole document.
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	for i := 0; i < len(lines); i += 5 {
		b.WriteString(lines[i] + "\n")
	}
	b.WriteString("_:b0 <" + ns + "name> \"blank \\\"quoted\\\"\\tname\\n\" .\n")
	return b.String()
}

// TestReadMatchesBuild boots the sharded store from an N-Triples
// stream (Read over rdf.ReadNTriples, the rdfserve path) and from the
// parsed slice (BuildReplicated), under every registered strategy: the
// two must be the same store — shard sizes, statistics, co-location
// verdict, position columns — and answer every workload query alike.
func TestReadMatchesBuild(t *testing.T) {
	doc := readDoc(t)
	parsed, err := rdf.ParseNTriples(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	distinct := rdf.NewGraph(parsed).Triples()
	if len(distinct) == len(parsed) {
		t.Fatal("the document repeats no statement")
	}
	ctx := context.Background()
	for _, strat := range strategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			streamed, err := Read(func(add func(rdf.Triple) error) error {
				return rdf.ReadNTriples(strings.NewReader(doc), add)
			}, strat, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			sliced, err := BuildReplicated(parsed, strat, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed.ShardSizes(), sliced.ShardSizes()) {
				t.Fatalf("shard sizes %v streamed, %v from the slice", streamed.ShardSizes(), sliced.ShardSizes())
			}
			if !reflect.DeepEqual(streamed.Set().Stats, sliced.Set().Stats) {
				t.Fatalf("stats %+v streamed, %+v from the slice", streamed.Set().Stats, sliced.Set().Stats)
			}
			if streamed.SubjectColocated() != sliced.SubjectColocated() {
				t.Fatalf("SubjectColocated %v streamed, %v from the slice", streamed.SubjectColocated(), sliced.SubjectColocated())
			}
			if streamed.Len() != len(distinct) {
				t.Fatalf("Len %d, %d distinct triples", streamed.Len(), len(distinct))
			}
			for name, sg := range map[string]*ShardedGraph{"streamed": streamed, "sliced": sliced} {
				if err := checkPositions(sg, distinct); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			for _, nq := range workload.UniversityQueries() {
				want, err := runText(ctx, sliced, nq.Text)
				if err != nil {
					t.Fatal(err)
				}
				got, err := runText(ctx, streamed, nq.Text)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, want, got)
			}
		})
	}
}

// TestReadStopsOnError: an error from the stream (a malformed line)
// or from the store (the capacity check) ends the build with it.
func TestReadStopsOnError(t *testing.T) {
	_, err := Read(func(add func(rdf.Triple) error) error {
		return rdf.ReadNTriples(strings.NewReader("<http://ex/s> <http://ex/p> \"o\" .\nnot a triple\n"), add)
	}, partition.HashSubject{}, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line 2: err = %v", err)
	}
	old := maxTriples
	maxTriples = 1
	defer func() { maxTriples = old }()
	read := func(add func(rdf.Triple) error) error {
		for i := 0; i < 3; i++ {
			if err := add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("o")}); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := Read(read, partition.HashSubject{}, 2, 1); err == nil || !strings.Contains(err.Error(), "cannot hold more than 1 triples") {
		t.Fatalf("2 distinct triples at a limit of 1: err = %v", err)
	}
}

// runText prepares and runs one query on a sharded graph.
func runText(ctx context.Context, sg *ShardedGraph, text string) (*sparql.Results, error) {
	sp, err := sparql.Prepare(text)
	if err != nil {
		return nil, err
	}
	return sp.RunSharded(ctx, sg.Set(), sparql.WithParallelism(1))
}

// strategies lists every registered placement, label propagation at
// three rounds.
func strategies() []partition.Strategy {
	return []partition.Strategy{partition.HashSubject{}, partition.Vertical{}, partition.Semantic{},
		partition.WorkloadAware{}, partition.LabelPropagation{Rounds: 3}}
}
