package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// The two pointer-free indexes — the dictionary's term→id table and a
// graph's tripleSet — against Go-map models: a random stream over a
// small vocabulary gets the same ids and the same Add results as a
// map[Term]TermID and a map[EncodedTriple]bool, across several growth
// boundaries of both tables.
//
// Mutants, each applied alone in a scratch copy, and each failing
// TestDictionaryMatchesMapProperty or TestTripleSetMatchesMapProperty:
//   - Dictionary.find's equality ignoring Datatype;
//   - the dictionary's growth dropping the last occupied slot (the
//     newest id), and the same in a graph's addEncoded (the newest
//     position), and in rehash itself for both;
//   - tripleSet.find comparing only S and P.

// indexVocab holds terms that differ in one field only: in Kind alone,
// in Datatype against Lang, in an empty string against a missing one,
// and in where a string is cut between fields; then enough plain terms
// that a stream grows the dictionary's table several times.
func indexVocab() []Term {
	v := []Term{
		NewIRI("a"), NewLiteral("a"), NewBlank("a"),
		NewTypedLiteral("v", "x"), NewLangLiteral("v", "x"), NewLiteral("v"),
		NewLiteral(""), NewIRI(""), NewBlank(""),
		NewTypedLiteral("", "x"), NewLangLiteral("", "x"), NewLiteral("x"),
		NewTypedLiteral("ab", "c"), NewTypedLiteral("a", "bc"), NewLangLiteral("ab", "c"),
		{Kind: Literal, Value: "v", Datatype: "x", Lang: "x"},
	}
	for i := 0; i < 300; i++ {
		v = append(v, NewIRI(fmt.Sprintf("http://ex/t%d", i)), NewTypedLiteral(fmt.Sprint(i), XSDInteger))
	}
	return v
}

// termModel is the dictionary's contract as a Go map: ids in
// first-appearance order.
type termModel map[Term]TermID

func (m termModel) encode(t Term) TermID {
	id, ok := m[t]
	if !ok {
		id = TermID(len(m))
		m[t] = id
	}
	return id
}

func TestDictionaryMatchesMapProperty(t *testing.T) {
	vocab := indexVocab()
	most := 0
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// The stream draws from a window of the vocabulary that widens
		// as it goes, so early terms repeat and later ones are new.
		pick := func(n int) Term { return vocab[r.Intn(min(len(vocab), 16+n))] }
		d, model := NewDictionary(), termModel{}
		steps := 100 + r.Intn(700)
		for n := 0; n < steps; n++ {
			switch r.Intn(3) {
			case 0:
				term := pick(n)
				if got, want := d.Encode(term), model.encode(term); got != want {
					t.Logf("seed %d: %v encoded as %d, the model gives %d", seed, term, got, want)
					return false
				}
			case 1:
				tr := Triple{S: pick(n), P: pick(n), O: pick(n)}
				got, err := d.TryEncodeTriple(tr)
				want := EncodedTriple{S: model.encode(tr.S), P: model.encode(tr.P), O: model.encode(tr.O)}
				if err != nil || got != want {
					t.Logf("seed %d: %v encoded as %v (%v), the model gives %v", seed, tr, got, err, want)
					return false
				}
			default:
				term := pick(n)
				got, ok := d.Lookup(term)
				want, wantOK := model[term]
				if got != want && wantOK || ok != wantOK {
					t.Logf("seed %d: Lookup(%v) = %d, %v; the model gives %d, %v", seed, term, got, ok, want, wantOK)
					return false
				}
			}
		}
		most = max(most, d.Len())
		terms := d.Terms()
		if len(terms) != len(model) || len(d.index) < 2*len(terms) {
			t.Logf("seed %d: %d terms in a table of %d, the model holds %d", seed, len(terms), len(d.index), len(model))
			return false
		}
		for _, term := range vocab {
			id, ok := d.Lookup(term)
			want, wantOK := model[term]
			if ok != wantOK || ok && (id != want || terms[id] != term) {
				t.Logf("seed %d: after the stream Lookup(%v) = %d, %v; the model gives %d, %v", seed, term, id, ok, want, wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if most <= 256 {
		t.Fatalf("the largest dictionary held %d terms: the table never grew past 512 slots", most)
	}
}

func TestTripleSetMatchesMapProperty(t *testing.T) {
	vocab := indexVocab()
	most := 0
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Few subjects and predicates, so many triples share S and P
		// and differ only in O.
		s, p, o := 1+r.Intn(6), 1+r.Intn(4), 1+r.Intn(len(vocab))
		g := NewGraph(nil)
		model := map[EncodedTriple]bool{}
		var order []EncodedTriple
		for n := r.Intn(1500); n > 0; n-- {
			tr := Triple{S: vocab[r.Intn(s)], P: vocab[16+r.Intn(p)], O: vocab[r.Intn(o)]}
			e := encodeTriple(g.dict, tr)
			fresh := !model[e]
			if added := g.Add(tr); added != fresh {
				t.Logf("seed %d: Add(%v) = %v, the model gives %v", seed, tr, added, fresh)
				return false
			}
			if fresh {
				model[e] = true
				order = append(order, e)
			}
		}
		most = max(most, g.Len())
		if !slices.Equal(g.enc, order) || len(g.set) < 2*len(order) {
			t.Logf("seed %d: %d triples in a table of %d, the model holds %d", seed, g.Len(), len(g.set), len(order))
			return false
		}
		for i, e := range order {
			if slot, ok := g.set.find(g.enc, e); !ok || g.set[slot] != uint32(i+1) {
				t.Logf("seed %d: triple %d is not found at its position", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if most <= 256 {
		t.Fatalf("the largest graph held %d triples: the set never grew past 512 slots", most)
	}
}

// Goroutines encoding overlapping term sets through one dictionary,
// across several growths of its table, must agree on one id per term
// (run with -race): the table is probed under the read lock and grown
// under the write lock, and an id is assigned only under the write
// lock, after a second probe.
func TestDictionaryConcurrentGrowth(t *testing.T) {
	vocab := indexVocab()
	const goroutines = 8
	d := NewDictionary()
	seen := make([][]TermID, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			ids := make([]TermID, len(vocab))
			// Each goroutine covers the whole vocabulary, in its own
			// order, half of it through TryEncodeTriple.
			for _, i := range r.Perm(len(vocab)) {
				if r.Intn(2) == 0 {
					ids[i] = d.Encode(vocab[i])
					continue
				}
				j := r.Intn(len(vocab))
				e, err := d.TryEncodeTriple(Triple{S: vocab[i], P: vocab[j], O: vocab[i]})
				if err != nil || e.S != e.O {
					t.Errorf("goroutine %d: %v encoded as %v, %v", w, vocab[i], e, err)
					return
				}
				ids[i] = e.S
			}
			seen[w] = ids
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if d.Len() != len(vocab) {
		t.Fatalf("%d distinct terms got %d ids", len(vocab), d.Len())
	}
	terms := d.Terms()
	for i, term := range vocab {
		for w := range seen {
			if seen[w][i] != seen[0][i] {
				t.Fatalf("%v got id %d in goroutine %d and %d in goroutine 0", term, seen[w][i], w, seen[0][i])
			}
		}
		if terms[seen[0][i]] != term {
			t.Fatalf("id %d decodes to %v, want %v", seen[0][i], terms[seen[0][i]], term)
		}
	}
}
