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
	all := append([]Strategy(nil), registered...)
	for i, s := range all {
		switch s.(type) {
		case WorkloadAware:
			all[i] = WorkloadAware{Queries: []*sparql.Query{linear}}
		case LabelPropagation:
			all[i] = LabelPropagation{Rounds: 4}
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
		if e, _ := dict.TryEncodeTriple(t); !seen[e] {
			seen[e] = true
			enc = append(enc, e)
		}
	}
	return dict, enc
}

// quality scores s's placement of the distinct triples into n
// partitions on the two axes the survey discusses (Sec. V): the
// fraction of subjects whose triples share one partition (1 = every
// star is local, which the router's pushdown relies on), and the
// fraction of subject-object links whose object's triples share no
// partition with the link (0 = every linear join is local).
func quality(s Strategy, triples []rdf.Triple, n int) (starLocality, edgeCut float64) {
	dict, enc := encodeDistinct(triples)
	place := s.Place(dict, enc, n)
	parts := map[rdf.TermID]map[int]bool{} // subject → its partitions
	for i, e := range enc {
		if parts[e.S] == nil {
			parts[e.S] = map[int]bool{}
		}
		parts[e.S][place[i]] = true
	}
	local, links, cut := 0, 0, 0
	for _, ps := range parts {
		if len(ps) == 1 {
			local++
		}
	}
	for i, e := range enc {
		if ps, ok := parts[e.O]; ok {
			links++
			if !ps[place[i]] {
				cut++
			}
		}
	}
	starLocality = 1
	if len(parts) > 0 {
		starLocality = float64(local) / float64(len(parts))
	}
	if links > 0 {
		edgeCut = float64(cut) / float64(links)
	}
	return starLocality, edgeCut
}

func TestRegistry(t *testing.T) {
	if len(registered) != 5 {
		t.Fatalf("registry holds %d strategies: %v", len(registered), registered)
	}
	for _, r := range registered {
		name := r.Name()
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
}

// TestRegistryCoverage pins that registered names are distinct, so
// ByName reaches every registered strategy.
func TestRegistryCoverage(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range registered {
		if seen[s.Name()] {
			t.Fatalf("%q registered twice", s.Name())
		}
		seen[s.Name()] = true
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
		if locality, _ := quality(s, triples, 4); locality != 1.0 {
			t.Fatalf("%s: star locality %.2f, want 1.0", s.Name(), locality)
		}
	}
}

func TestVerticalBreaksStars(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	if locality, _ := quality(Vertical{}, triples, 4); locality >= 0.9 {
		t.Fatalf("vertical star locality %.2f should be low", locality)
	}
}

func TestWorkloadAwareCutsLinkEdges(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	_, hashCut := quality(HashSubject{}, triples, 4)
	linear := sparql.MustParse(fmt.Sprintf(
		`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS))
	locality, cut := quality(WorkloadAware{Queries: []*sparql.Query{linear}}, triples, 4)
	if cut >= hashCut {
		t.Fatalf("workload-aware edge cut %.2f not below hash %.2f", cut, hashCut)
	}
	if locality != 1.0 {
		t.Fatalf("workload-aware must keep stars local, got %.2f", locality)
	}
}

func TestLabelPropagationReducesEdgeCut(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	_, hashCut := quality(HashSubject{}, triples, 4)
	_, lpCut := quality(LabelPropagation{Rounds: 5}, triples, 4)
	if lpCut >= hashCut {
		t.Fatalf("label propagation edge cut %.2f not below hash %.2f", lpCut, hashCut)
	}
}

func TestPlacementEdgeCases(t *testing.T) {
	one := []rdf.Triple{{S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://b")}}
	for _, s := range allStrategies() {
		dict, enc := encodeDistinct(nil)
		if place := s.Place(dict, enc, 4); len(place) != 0 {
			t.Fatalf("%s placed %d triples of an empty dataset", s.Name(), len(place))
		}
		if locality, cut := quality(s, one, 2); locality != 1.0 || cut != 0 {
			t.Fatalf("%s: single triple star locality %.2f, edge cut %.2f", s.Name(), locality, cut)
		}
	}
}
