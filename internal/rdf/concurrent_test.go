package rdf

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// Many goroutines hitting a cold graph's derived state at once must be
// safe (run with -race) and must all see the same encoded view, the
// same statistics, and the same decoded triples — the
// single-writer/many-reader contract the query service builds on. Each
// goroutine enters through a different cold accessor first, so every
// pair of lazy fills races at least once.
func TestGraphConcurrentLazyInit(t *testing.T) {
	var ts []Triple
	for i := 0; i < 200; i++ {
		ts = append(ts, Triple{
			S: NewIRI(fmt.Sprintf("http://ex/s%d", i%50)),
			P: NewIRI(fmt.Sprintf("http://ex/p%d", i%7)),
			O: NewLiteral(fmt.Sprintf("o%d", i)),
		})
	}
	g := NewGraph(ts)

	const goroutines = 16
	views := make([]*EncodedView, goroutines)
	stats := make([]Stats, goroutines)
	lists := make([][]Triple, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fills := []func(){
				func() { views[i] = g.Encoded() },
				func() { stats[i] = g.Stats() },
				func() { lists[i] = g.Triples() },
			}
			for k := range fills {
				fills[(i+k)%len(fills)]()
			}
			// Exercise the read paths that share the lazily built
			// structures: index lookups, dictionary decoding.
			for _, e := range views[i].WithPredicate(views[i].Dict().Encode(NewIRI("http://ex/p0"))) {
				if _, err := views[i].Dict().Decode(e.O); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if views[i] != views[0] {
			t.Fatal("goroutines saw different encoded views")
		}
		if stats[i].Triples != stats[0].Triples || stats[i].DistinctPredicates != stats[0].DistinctPredicates {
			t.Fatalf("goroutine %d saw different stats: %+v vs %+v", i, stats[i], stats[0])
		}
	}
	if !slices.Equal(lists[0], ts) {
		t.Fatal("Triples() differs from the triples added")
	}
	for i := 1; i < goroutines; i++ {
		if !slices.Equal(lists[i], lists[0]) {
			t.Fatalf("goroutine %d saw a different Triples() list", i)
		}
	}
	if views[0].Len() != g.Len() {
		t.Fatalf("encoded view holds %d triples, graph %d", views[0].Len(), g.Len())
	}
	if stats[0].Triples != g.Len() {
		t.Fatalf("stats count %d, graph %d", stats[0].Triples, g.Len())
	}
}
