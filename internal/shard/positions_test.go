package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// checkPositions verifies the gather key of a built ShardedGraph
// against the distinct dataset it was built from: on every shard view,
// through every accessor, the position column is as long
// as the triples beside it, ascends (a key's triples keep dataset
// order), and names the very triple it sits beside; and the shards'
// insertion lists together hold every global position exactly once.
func checkPositions(sg *ShardedGraph, distinct []rdf.Triple) error {
	dict := sg.Dict()
	want := make([]rdf.EncodedTriple, len(distinct))
	for i, tr := range distinct {
		e, err := dict.TryEncodeTriple(tr)
		if err != nil {
			return err
		}
		want[i] = e
	}
	// Ids the dictionary knows, a few it never assigned, and one it
	// assigns only now, after every view was built.
	late := dict.Encode(rdf.NewIRI("http://ex/assigned-after-build"))
	ids := []rdf.TermID{late, late + 1, late + 2, ^rdf.TermID(0) - 1}
	for id := rdf.TermID(0); id < late; id++ {
		ids = append(ids, id)
	}

	set := sg.Set()
	for s, v := range set.Views {
		check := func(accessor string, with []rdf.EncodedTriple, ts []rdf.EncodedTriple, pos []int32) error {
			where := fmt.Sprintf("shard %d %s", s, accessor)
			if !slices.Equal(ts, with) {
				return fmt.Errorf("%s: scan triples %v, lookup %v", where, ts, with)
			}
			if len(pos) != len(ts) {
				return fmt.Errorf("%s: %d positions beside %d triples", where, len(pos), len(ts))
			}
			for i, p := range pos {
				if i > 0 && p <= pos[i-1] {
					return fmt.Errorf("%s: positions %v do not ascend", where, pos)
				}
				if p < 0 || int(p) >= len(want) || want[p] != ts[i] {
					return fmt.Errorf("%s: triple %d %v tagged with position %d", where, i, ts[i], p)
				}
			}
			return nil
		}
		ts, pos := v.ScanAll()
		if err := check("ScanAll", ts, ts, pos); err != nil {
			return err
		}
		for _, id := range ids {
			ts, pos := v.ScanSubject(id)
			if err := check(fmt.Sprintf("ScanSubject(%d)", id), v.WithSubject(id), ts, pos); err != nil {
				return err
			}
			ts, pos = v.ScanPredicate(id)
			if err := check(fmt.Sprintf("ScanPredicate(%d)", id), v.WithPredicate(id), ts, pos); err != nil {
				return err
			}
			ts, pos = v.ScanObject(id)
			if err := check(fmt.Sprintf("ScanObject(%d)", id), v.WithObject(id), ts, pos); err != nil {
				return err
			}
		}
	}

	held := make([]int, len(want))
	for _, v := range set.Views {
		_, pos := v.ScanAll()
		for _, p := range pos {
			held[p]++
		}
	}
	for p, n := range held {
		if n != 1 {
			return fmt.Errorf("global position %d is held by %d shards", p, n)
		}
	}
	return nil
}

// The position column against brute force: random multisets with
// repeats, every registered strategy, shards {1,3,4} × replicas {1,2}.
func TestPositionColumnsMatchDataset(t *testing.T) {
	var subjects, predicates, objects []rdf.Term
	for i := 0; i < 7; i++ {
		subjects = append(subjects, rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)))
	}
	for i := 0; i < 4; i++ {
		predicates = append(predicates, rdf.NewIRI(fmt.Sprintf("http://ex/p%d", i)))
	}
	predicates = append(predicates, rdf.NewIRI(rdf.RDFType))
	objects = append(append(objects, subjects...),
		rdf.NewLiteral("x"), rdf.NewLangLiteral("x", "en"), rdf.NewIRI("http://ex/Class"))

	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// A small vocabulary: triples repeat and share keys everywhere.
		var triples []rdf.Triple
		for n := r.Intn(120); n > 0; n-- {
			triples = append(triples, rdf.Triple{
				S: subjects[r.Intn(len(subjects))],
				P: predicates[r.Intn(len(predicates))],
				O: objects[r.Intn(len(objects))],
			})
		}
		distinct := rdf.NewGraph(triples).Triples()
		for _, strat := range strategies() {
			for _, shards := range []int{1, 3, 4} {
				for _, replicas := range []int{1, 2} {
					sg, err := BuildReplicated(triples, strat, shards, replicas)
					if err == nil {
						err = checkPositions(sg, distinct)
					}
					if err != nil {
						t.Logf("seed %d, %s, %d shards × %d replicas: %v", seed, strat.Name(), shards, replicas, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
