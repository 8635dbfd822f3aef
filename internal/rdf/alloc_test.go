package rdf

import (
	"fmt"
	"reflect"
	"testing"
)

func allocGraph(n int) *Graph {
	ts := make([]Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		s := NewIRI(fmt.Sprintf("http://ex/s%d", i))
		ts = append(ts,
			Triple{S: s, P: NewIRI("http://ex/name"), O: NewLiteral(fmt.Sprintf("n%d", i))},
			Triple{S: s, P: NewIRI("http://ex/age"), O: NewTypedLiteral(fmt.Sprint(20+i%50), XSDInteger)},
		)
	}
	return NewGraph(ts)
}

// The positional lookups are zero-copy index views; a regression to
// copying would silently reintroduce an allocation per candidate scan
// in the evaluator's hottest loop.
func TestGraphLookupsDoNotAllocate(t *testing.T) {
	v := allocGraph(100).Encoded()
	dict := v.Dict()
	s := dict.Encode(NewIRI("http://ex/s7"))
	p := dict.Encode(NewIRI("http://ex/name"))
	o := dict.Encode(NewLiteral("n7"))
	var got int
	if n := testing.AllocsPerRun(100, func() {
		got += len(v.WithSubject(s))
	}); n != 0 {
		t.Fatalf("WithSubject allocates %.1f times per lookup, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		got += len(v.WithPredicate(p))
	}); n != 0 {
		t.Fatalf("WithPredicate allocates %.1f times per lookup, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		got += len(v.WithObject(o))
	}); n != 0 {
		t.Fatalf("WithObject allocates %.1f times per lookup, want 0", n)
	}
	if got == 0 {
		t.Fatal("lookups returned no triples")
	}
}

func TestEncodedViewMatchesGraph(t *testing.T) {
	g := allocGraph(50)
	v := g.Encoded()
	if v.Len() != g.Len() {
		t.Fatalf("encoded len = %d, graph len = %d", v.Len(), g.Len())
	}
	dict := v.Dict()
	for _, e := range v.Triples() {
		tr, err := dict.DecodeTriple(e)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Has(tr) {
			t.Fatalf("decoded triple %v not in graph", tr)
		}
	}
	// Per-id indexes agree with a filter over the decoded triples.
	s := NewIRI("http://ex/s3")
	id, ok := dict.Lookup(s)
	if !ok {
		t.Fatal("subject missing from dictionary")
	}
	want := filter(g.Triples(), func(tr Triple) bool { return tr.S == s })
	if got := len(v.WithSubject(id)); got != len(want) || got == 0 {
		t.Fatalf("encoded WithSubject = %d triples, want %d", got, len(want))
	}
}

func TestEncodedViewExtendsAfterAdd(t *testing.T) {
	g := allocGraph(10)
	v1 := g.Encoded()
	n := v1.Len()
	if !g.Add(Triple{S: NewIRI("http://ex/new"), P: NewIRI("http://ex/name"), O: NewLiteral("x")}) {
		t.Fatal("Add reported duplicate")
	}
	v2 := g.Encoded()
	if v2.Len() != n+1 {
		t.Fatalf("encoded view not extended: len = %d, want %d", v2.Len(), n+1)
	}
}

func TestGraphStatsCachedAndInvalidated(t *testing.T) {
	g := allocGraph(25)
	st := g.Stats()
	if want := termStats(g.Encoded().Dict(), g.Triples()); !reflect.DeepEqual(st, want) {
		t.Fatalf("Stats() = %+v, term-space count = %+v", st, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = g.Stats() }); n != 0 {
		t.Fatalf("cached Stats allocates %.1f times per call, want 0", n)
	}
	zp := NewIRI("http://ex/zp")
	g.Add(Triple{S: NewIRI("http://ex/z"), P: zp, O: NewLiteral("z")})
	id, _ := g.Encoded().Dict().Lookup(zp)
	if got := g.Stats(); got.Triples != st.Triples+1 || got.PredicateCounts[id] != 1 {
		t.Fatalf("Stats not invalidated after Add: %+v", got)
	}
}
