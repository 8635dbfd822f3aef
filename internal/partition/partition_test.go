package partition

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// allStrategies iterates the registry: every registered strategy, with
// the workload-aware placement given the workload it co-locates for.
func allStrategies() []Strategy {
	linear := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
	all := All(WithRounds(4))
	for i, s := range all {
		if _, ok := s.(WorkloadAware); ok {
			all[i] = WorkloadAware{Queries: []*sparql.Query{linear}}
		}
	}
	return all
}

// encodeDistinct is the dataset as a strategy receives it: encoded
// through one dictionary, repeats dropped, first occurrences in order.
func encodeDistinct(triples []rdf.Triple) (*rdf.Dictionary, []rdf.EncodedTriple) {
	dict := rdf.NewDictionary()
	var enc []rdf.EncodedTriple
	seen := map[rdf.EncodedTriple]bool{}
	for _, t := range triples {
		if e := dict.EncodeTriple(t); !seen[e] {
			seen[e] = true
			enc = append(enc, e)
		}
	}
	return dict, enc
}

func TestRegistry(t *testing.T) {
	names := registryOrder
	if len(names) != 5 {
		t.Fatalf("registry holds %d strategies: %v", len(names), names)
	}
	for _, name := range names {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%q) built strategy named %q", name, s.Name())
		}
	}
	if _, err := ByName("no-such-strategy"); err == nil {
		t.Fatal("unknown name must error")
	}
	if lp, _ := ByName(LabelPropagation{}.Name(), WithRounds(7)); lp.(LabelPropagation).Rounds != 7 {
		t.Fatalf("rounds not threaded: %#v", lp)
	}
}

// TestRegistryCoverage pins the invariant All relies on instead of a
// runtime panic: every name in registration order has a builder, and
// All returns them all, in order, with options threaded through.
func TestRegistryCoverage(t *testing.T) {
	for _, name := range registryOrder {
		if builders[name] == nil {
			t.Fatalf("registered name %q has no builder", name)
		}
	}
	if len(builders) != len(registryOrder) {
		t.Fatalf("builders holds %d entries, registryOrder %d", len(builders), len(registryOrder))
	}
	all := All(WithRounds(3))
	if len(all) != len(registryOrder) {
		t.Fatalf("All returned %d strategies, want %d", len(all), len(registryOrder))
	}
	for i, s := range all {
		if s.Name() != registryOrder[i] {
			t.Fatalf("All[%d] = %q, want %q", i, s.Name(), registryOrder[i])
		}
		if lp, ok := s.(LabelPropagation); ok && lp.Rounds != 3 {
			t.Fatalf("All did not thread options: %#v", s)
		}
	}
}

func TestPlacementsAreValid(t *testing.T) {
	dict, enc := encodeDistinct(workload.GenerateUniversity(workload.SmallUniversity()))
	const n = 4
	for _, s := range allStrategies() {
		place := s.Place(dict, enc, n)
		if len(place) != len(enc) {
			t.Fatalf("%s: placement length %d", s.Name(), len(place))
		}
		for i, p := range place {
			if p < 0 || p >= n {
				t.Fatalf("%s: triple %d on partition %d", s.Name(), i, p)
			}
		}
	}
}

func TestPlacementsDeterministic(t *testing.T) {
	dict, enc := encodeDistinct(workload.GenerateUniversity(workload.SmallUniversity()))
	for _, s := range allStrategies() {
		a := s.Place(dict, enc, 4)
		b := s.Place(dict, enc, 4)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: non-deterministic at %d", s.Name(), i)
			}
		}
	}
}

func TestSubjectBasedStrategiesKeepStarsLocal(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	for _, s := range []Strategy{HashSubject{}, Semantic{}} {
		q := Evaluate(s, triples, 4)
		if q.StarLocality != 1.0 {
			t.Fatalf("%s: star locality %.2f, want 1.0", s.Name(), q.StarLocality)
		}
	}
}

func TestVerticalBreaksStars(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	q := Evaluate(Vertical{}, triples, 4)
	if q.StarLocality >= 0.9 {
		t.Fatalf("vertical star locality %.2f should be low", q.StarLocality)
	}
}

func TestWorkloadAwareCutsLinkEdges(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	hash := Evaluate(HashSubject{}, triples, 4)
	linear := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
	aware := Evaluate(WorkloadAware{Queries: []*sparql.Query{linear}}, triples, 4)
	if aware.EdgeCut >= hash.EdgeCut {
		t.Fatalf("workload-aware edge cut %.2f not below hash %.2f", aware.EdgeCut, hash.EdgeCut)
	}
	if aware.StarLocality != 1.0 {
		t.Fatalf("workload-aware must keep stars local, got %.2f", aware.StarLocality)
	}
}

func TestLabelPropagationReducesEdgeCut(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	hash := Evaluate(HashSubject{}, triples, 4)
	lp := Evaluate(LabelPropagation{Rounds: 5}, triples, 4)
	if lp.EdgeCut >= hash.EdgeCut {
		t.Fatalf("label propagation edge cut %.2f not below hash %.2f", lp.EdgeCut, hash.EdgeCut)
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	q := Evaluate(HashSubject{}, nil, 4)
	if q.Balance != 1.0 || q.EdgeCut != 0 || q.StarLocality != 1.0 {
		t.Fatalf("empty dataset quality = %+v", q)
	}
	one := []rdf.Triple{{S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://b")}}
	q = Evaluate(HashSubject{}, one, 2)
	if q.StarLocality != 1.0 {
		t.Fatalf("single triple quality = %+v", q)
	}
}

func TestQualityString(t *testing.T) {
	s := Quality{Balance: 1.5, EdgeCut: 0.25, StarLocality: 1}.String()
	if s == "" {
		t.Fatal("empty string")
	}
}
