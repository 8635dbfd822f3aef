package partition

// The placement pin: every registered strategy places in id space, and
// its placement vector must equal, triple for triple, what the
// term-space body it replaced computes. Those bodies are kept below,
// verbatim but for their receivers, as the reference: the subject hash
// renders t.S.String() per triple, the class and predicate placements
// hash Term.Value, and label propagation numbers vertices by first
// appearance in a map keyed by rdf.Term.
//
// Mutants this test kills (each applied to a copy of partition.go,
// each failing TestPlacementMatchesTermSpaceReference):
//   - termHash memoized by predicate instead of subject
//     (HashSubject.Place passing t.P to h.partition);
//   - Semantic taking the last rdf:type of a subject instead of its first;
//   - the hash input being the TermID's decimal digits instead of the
//     term's rendered bytes;
//   - Vertical hashing the rendered predicate (<...>) instead of its Value;
//   - WorkloadAware hashing the subject instead of its union-find root;
//   - WorkloadAware's union order swapped (parent[find(t.O)] = find(t.S));
//   - LabelPropagation numbering vertices by TermID instead of by first
//     appearance on an edge;
//   - a memo slot written as the partition without the +1 offset, so
//     partition 0 is rehashed and every other slot read off by one.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/spark/graphx"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// TestPlacementMatchesTermSpaceReference pins every registered
// strategy's id-space placement to its term-space reference, on
// University and Shop at small and medium scale, with repeated triples
// in the input (the strategy sees the distinct triples, the reference
// rdf.Graph's decoded ones), at 1, 3 and 4 partitions — and on a random graph,
// whose subjects carry several types and first appear off an entity
// edge, which the generators' never do.
func TestPlacementMatchesTermSpaceReference(t *testing.T) {
	inputs := []struct {
		name    string
		triples []rdf.Triple
	}{
		{"university-small", workload.GenerateUniversity(workload.SmallUniversity())},
		{"university-medium", workload.GenerateUniversity(workload.MediumUniversity())},
		{"shop-small", workload.GenerateShop(workload.SmallShop())},
		{"shop-medium", workload.GenerateShop(workload.MediumShop())},
		{"random", randomGraph(rand.New(rand.NewSource(1)), 3000)},
	}
	for _, in := range inputs {
		// Say every seventh statement again, later.
		noisy := slices.Clone(in.triples)
		for i := 0; i < len(in.triples); i += 7 {
			noisy = append(noisy, in.triples[i])
		}
		dict, enc := encodeDistinct(noisy)
		distinct := rdf.NewGraph(noisy).Triples()
		if len(distinct) != len(enc) {
			t.Fatalf("%s: %d distinct triples, %d encoded", in.name, len(distinct), len(enc))
		}
		for _, s := range allStrategies() {
			for _, n := range []int{1, 3, 4} {
				t.Run(fmt.Sprintf("%s/%s/n=%d", in.name, s.Name(), n), func(t *testing.T) {
					got, want := s.Place(dict, enc, n), referencePlace(s, distinct, n)
					if len(got) != len(want) {
						t.Fatalf("placed %d triples, reference %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("triple %d %v: partition %d, reference %d", i, distinct[i], got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// randomGraph draws size triples over a small vocabulary: IRI and
// blank subjects, several rdf:type classes per subject, the
// workload-aware link predicates, and plain, typed, language-tagged and
// escaped literal objects.
func randomGraph(r *rand.Rand, size int) []rdf.Triple {
	var entities, classes []rdf.Term
	for i := 0; i < 60; i++ {
		entities = append(entities, rdf.NewIRI(fmt.Sprintf("%se%d", workload.UnivNS, i)))
	}
	for i := 0; i < 10; i++ {
		entities = append(entities, rdf.NewBlank(fmt.Sprintf("b%d", i)))
	}
	for i := 0; i < 5; i++ {
		classes = append(classes, rdf.NewIRI(fmt.Sprintf("%sC%d", workload.UnivNS, i)))
	}
	preds := []rdf.Term{rdf.NewIRI(rdf.RDFType), rdf.NewIRI(workload.UnivNS + "advisor"),
		rdf.NewIRI(workload.UnivNS + "worksFor"), rdf.NewIRI(workload.UnivNS + "name")}
	lits := []rdf.Term{rdf.NewLiteral("x"), rdf.NewTypedLiteral("7", rdf.XSDInteger),
		rdf.NewLangLiteral("chat", "fr"), rdf.NewLiteral("a \"quoted\"\nline")}
	out := make([]rdf.Triple, 0, size)
	for len(out) < size {
		t := rdf.Triple{S: entities[r.Intn(len(entities))], P: preds[r.Intn(len(preds))]}
		switch {
		case t.P.Value == rdf.RDFType:
			t.O = classes[r.Intn(len(classes))]
		case r.Intn(3) == 0:
			t.O = lits[r.Intn(len(lits))]
		default:
			t.O = entities[r.Intn(len(entities))]
		}
		out = append(out, t)
	}
	return out
}

// referencePlace runs the term-space body of s's strategy.
func referencePlace(s Strategy, triples []rdf.Triple, n int) []int {
	switch s := s.(type) {
	case HashSubject:
		return refHashSubject(triples, n)
	case Vertical:
		return refVertical(triples, n)
	case Semantic:
		return refSemantic(triples, n)
	case WorkloadAware:
		return refWorkloadAware(s, triples, n)
	case LabelPropagation:
		return refLabelPropagation(s, triples, n)
	}
	panic("no term-space reference for " + s.Name())
}

func refHashSubject(triples []rdf.Triple, n int) []int {
	p := spark.NewHashPartitioner[string](n)
	out := make([]int, len(triples))
	for i, t := range triples {
		out[i] = p.Partition(t.S.String())
	}
	return out
}

func refVertical(triples []rdf.Triple, n int) []int {
	p := spark.NewHashPartitioner[string](n)
	out := make([]int, len(triples))
	for i, t := range triples {
		out[i] = p.Partition(t.P.Value)
	}
	return out
}

func refSemantic(triples []rdf.Triple, n int) []int {
	classOf := map[rdf.Term]string{}
	for _, t := range triples {
		if t.P.Value == rdf.RDFType {
			if _, ok := classOf[t.S]; !ok {
				classOf[t.S] = t.O.Value
			}
		}
	}
	p := spark.NewHashPartitioner[string](n)
	out := make([]int, len(triples))
	for i, t := range triples {
		if c, ok := classOf[t.S]; ok {
			out[i] = p.Partition(c)
		} else {
			out[i] = p.Partition(t.S.String())
		}
	}
	return out
}

func refWorkloadAware(w WorkloadAware, triples []rdf.Triple, n int) []int {
	linkPreds := map[string]bool{}
	for _, q := range w.Queries {
		bgp, ok := q.BGPOf()
		if !ok {
			continue
		}
		subjects := map[sparql.Var]bool{}
		for _, tp := range bgp.Patterns {
			if tp.S.IsVar {
				subjects[tp.S.Var] = true
			}
		}
		for _, tp := range bgp.Patterns {
			if !tp.P.IsVar && tp.O.IsVar && subjects[tp.O.Var] {
				linkPreds[tp.P.Term.Value] = true
			}
		}
	}
	parent := map[rdf.Term]rdf.Term{}
	var find func(rdf.Term) rdf.Term
	find = func(x rdf.Term) rdf.Term {
		if p, ok := parent[x]; ok && p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		return parent[x]
	}
	union := func(a, b rdf.Term) { parent[find(a)] = find(b) }
	for _, t := range triples {
		if linkPreds[t.P.Value] && !t.O.IsLiteral() {
			union(t.S, t.O)
		}
	}
	p := spark.NewHashPartitioner[string](n)
	out := make([]int, len(triples))
	for i, t := range triples {
		out[i] = p.Partition(find(t.S).String())
	}
	return out
}

func refLabelPropagation(l LabelPropagation, triples []rdf.Triple, n int) []int {
	ctx := spark.NewContext(spark.DefaultConfig())
	rounds := l.Rounds
	if rounds <= 0 {
		rounds = 5
	}
	ids := map[rdf.Term]graphx.VertexID{}
	var vertices []graphx.Vertex[int]
	idOf := func(t rdf.Term) graphx.VertexID {
		if id, ok := ids[t]; ok {
			return id
		}
		id := graphx.VertexID(len(ids) + 1)
		ids[t] = id
		vertices = append(vertices, graphx.Vertex[int]{ID: id, Attr: spark.NewHashPartitioner[string](n).Partition(t.String())})
		return id
	}
	var edges []graphx.Edge[struct{}]
	for _, t := range triples {
		if t.O.IsLiteral() {
			continue
		}
		edges = append(edges, graphx.Edge[struct{}]{Src: idOf(t.S), Dst: idOf(t.O)})
	}
	g := graphx.New(ctx, vertices, edges)

	labels := map[graphx.VertexID]int{}
	for _, v := range g.Vertices().Collect() {
		labels[v.ID] = v.Attr
	}
	sizes := make([]int, n)
	for _, lbl := range labels {
		sizes[lbl]++
	}
	for round := 0; round < rounds; round++ {
		current := labels
		votes := graphx.AggregateMessages(g,
			func(c *graphx.EdgeContext[int, struct{}, []int]) {
				c.SendToDst([]int{current[c.Triplet.Src]})
				c.SendToSrc([]int{current[c.Triplet.Dst]})
			},
			func(a, b []int) []int { return append(a, b...) })
		ctx.AddSupersteps(1)
		changed := 0
		vids := make([]graphx.VertexID, 0, len(labels))
		for vid := range labels {
			vids = append(vids, vid)
		}
		sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
		for _, vid := range vids {
			vs := votes[vid]
			if len(vs) == 0 {
				continue
			}
			counts := map[int]int{}
			for _, lbl := range vs {
				counts[lbl]++
			}
			best, bestScore := labels[vid], -1.0
			for lbl, c := range counts {
				score := float64(c) / (1 + float64(sizes[lbl])/float64(len(labels)))
				if score > bestScore || (score == bestScore && lbl < best) {
					best, bestScore = lbl, score
				}
			}
			if best != labels[vid] {
				sizes[labels[vid]]--
				sizes[best]++
				labels[vid] = best
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}
	p := spark.NewHashPartitioner[string](n)
	out := make([]int, len(triples))
	for i, t := range triples {
		if id, ok := ids[t.S]; ok {
			out[i] = labels[id]
		} else {
			out[i] = p.Partition(t.S.String())
		}
	}
	return out
}
