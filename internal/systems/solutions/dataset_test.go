package solutions

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// loaded is an engine as the loader sees one: something that embeds a
// Source.
type loaded struct{ Source }

func sampleTriples() []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }
	return []rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("b")},
		{S: iri("b"), P: iri("q"), O: rdf.NewLiteral("x")},
		{S: iri("a"), P: iri("p"), O: iri("b")}, // a repeat
		{S: iri("c"), P: iri("p"), O: iri("a")},
	}
}

// Encode keeps the distinct triples in first-occurrence order, numbers
// terms in the order they first appear, renders each term once, and
// computes the statistics a term-space count gives.
func TestEncode(t *testing.T) {
	ts := sampleTriples()
	d, err := Encode(ts)
	if err != nil {
		t.Fatal(err)
	}
	distinct := rdf.NewGraph(ts).Triples()
	if len(d.Triples) != len(distinct) {
		t.Fatalf("%d triples, want %d", len(d.Triples), len(distinct))
	}
	for i, e := range d.Triples {
		got := rdf.Triple{S: d.Term(e.S), P: d.Term(e.P), O: d.Term(e.O)}
		if got != distinct[i] {
			t.Fatalf("triple %d decodes to %v, want %v", i, got, distinct[i])
		}
	}
	subjects, objects := map[rdf.Term]bool{}, map[rdf.Term]bool{}
	want := rdf.Stats{Triples: len(distinct), PredicateCounts: map[rdf.TermID]int{}}
	for _, tr := range distinct {
		subjects[tr.S], objects[tr.O] = true, true
		want.PredicateCounts[d.ID(tr.P)]++
	}
	want.DistinctSubjects, want.DistinctPredicates, want.DistinctObjects = len(subjects), len(want.PredicateCounts), len(objects)
	if !reflect.DeepEqual(d.Stats, want) {
		t.Fatalf("stats %+v, want %+v", d.Stats, want)
	}
	if id := d.ID(ts[0].S); id != 0 {
		t.Fatalf("the first subject has id %d, want 0", id)
	}
	for id := range d.Dict.Len() {
		r := d.Rendered(rdf.TermID(id))
		if back, ok := d.Parse(r); r != d.Term(rdf.TermID(id)).String() || !ok || back != rdf.TermID(id) {
			t.Fatalf("id %d renders %q and parses back to %d, %v", id, r, back, ok)
		}
	}
	if Bound(d.ID(rdf.NewIRI("http://e/absent"))) {
		t.Fatal("a term the dataset does not hold has an id a row can bind")
	}
}

// One slice is encoded once per loader; a copy or a re-slice of it, or
// another engine's private loader, encodes again.
func TestSourceEncodesOncePerSlice(t *testing.T) {
	ts := sampleTriples()
	engines := []*loaded{{}, {}, {}}
	Share(engines[:2])
	first, err := engines[0].Dataset(ts)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := engines[1].Dataset(ts); again != first {
		t.Fatal("a second engine of one Share encoded the same slice again")
	}
	if private, _ := engines[2].Dataset(ts); private == first {
		t.Fatal("an engine outside the Share reused its Dataset")
	}
	for name, other := range map[string][]rdf.Triple{
		"a copy":              slices.Clone(ts),
		"a shorter re-slice":  ts[:len(ts)-1],
		"a re-slice past [0]": ts[1:],
	} {
		d, err := engines[1].Dataset(other)
		if err != nil {
			t.Fatal(err)
		}
		if d == first {
			t.Fatalf("%s of the slice reused its Dataset", name)
		}
		first, _ = engines[0].Dataset(ts) // the loader holds the slice it encoded last
	}
}
