package rdf

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// The id-space store against brute force: everything a Graph derives —
// the flat encoded view, the decoded triples, the statistics — must
// equal the obvious filter over the insertion-ordered distinct triples.

// storeVocab is a deliberately small vocabulary, so random triples
// repeat and share keys in every position.
type storeVocab struct {
	subjects, predicates, objects []Term
}

func newStoreVocab() storeVocab {
	var v storeVocab
	for i := 0; i < 6; i++ {
		v.subjects = append(v.subjects, NewIRI(fmt.Sprintf("http://ex/s%d", i)))
	}
	v.subjects = append(v.subjects, NewBlank("b0"), NewBlank("b1"))
	for i := 0; i < 4; i++ {
		v.predicates = append(v.predicates, NewIRI(fmt.Sprintf("http://ex/p%d", i)))
	}
	v.objects = append(v.objects, v.subjects...)
	v.objects = append(v.objects,
		NewLiteral("x"), NewLiteral("y"), NewLangLiteral("x", "en"),
		NewTypedLiteral("1", XSDInteger), NewTypedLiteral("x", XSDString))
	return v
}

func (v storeVocab) triple(r *rand.Rand) Triple {
	return Triple{
		S: v.subjects[r.Intn(len(v.subjects))],
		P: v.predicates[r.Intn(len(v.predicates))],
		O: v.objects[r.Intn(len(v.objects))],
	}
}

// absent are terms no generated triple uses.
var absentTerms = []Term{NewIRI("http://ex/absent"), NewLiteral("absent"), NewBlank("absent")}

func filter[T any](ts []T, keep func(T) bool) []T {
	var out []T
	for _, t := range ts {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// distinct returns ts without repeats, in first-occurrence order.
func distinct(ts []Triple) []Triple {
	seen := make(map[Triple]bool, len(ts))
	var out []Triple
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// encodeAll encodes ts through dict, in order.
func encodeAll(dict *Dictionary, ts []Triple) []EncodedTriple {
	out := make([]EncodedTriple, len(ts))
	for i, t := range ts {
		out[i] = dict.EncodeTriple(t)
	}
	return out
}

// termStats counts distinct triples ts in term space, keying the
// per-predicate counts by the predicate's id in dict.
func termStats(dict *Dictionary, ts []Triple) Stats {
	subj, obj := map[Term]bool{}, map[Term]bool{}
	st := Stats{Triples: len(ts), PredicateCounts: map[TermID]int{}}
	for _, t := range ts {
		subj[t.S], obj[t.O] = true, true
		id, ok := dict.Lookup(t.P)
		if !ok {
			panic(fmt.Sprintf("predicate %v not in the dictionary", t.P))
		}
		st.PredicateCounts[id]++
	}
	st.DistinctSubjects, st.DistinctObjects = len(subj), len(obj)
	st.DistinctPredicates = len(st.PredicateCounts)
	return st
}

func checkEncodedView(v *EncodedView, want []Triple) error {
	dict := v.Dict()
	if v.Len() != len(want) {
		return fmt.Errorf("view holds %d triples, want %d", v.Len(), len(want))
	}
	all := v.Triples()
	for i, e := range all {
		if tr, err := dict.DecodeTriple(e); err != nil || tr != want[i] {
			return fmt.Errorf("view triple %d decodes to %v (%v), want %v", i, tr, err, want[i])
		}
	}
	// Every id the dictionary knows, and a few it does not.
	for id := TermID(0); int(id) < dict.Len()+3; id++ {
		id := id
		if got, want := v.WithSubject(id), filter(all, func(e EncodedTriple) bool { return e.S == id }); !slices.Equal(got, want) {
			return fmt.Errorf("WithSubject(%d) = %v, want %v", id, got, want)
		}
		if got, want := v.WithPredicate(id), filter(all, func(e EncodedTriple) bool { return e.P == id }); !slices.Equal(got, want) {
			return fmt.Errorf("WithPredicate(%d) = %v, want %v", id, got, want)
		}
		if got, want := v.WithObject(id), filter(all, func(e EncodedTriple) bool { return e.O == id }); !slices.Equal(got, want) {
			return fmt.Errorf("WithObject(%d) = %v, want %v", id, got, want)
		}
	}
	if got := v.WithSubject(^TermID(0) - 1); got != nil {
		return fmt.Errorf("WithSubject(max id) = %v, want nil", got)
	}
	return nil
}

func checkSummaries(g *Graph, vocab storeVocab, r *rand.Rand, want []Triple) error {
	if g.Len() != len(want) {
		return fmt.Errorf("Len() = %d, want %d", g.Len(), len(want))
	}
	if got := g.Triples(); !slices.Equal(got, want) {
		return fmt.Errorf("Triples() = %v, want %v", got, want)
	}
	if got, want := g.Stats(), termStats(g.dict, want); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Stats() = %+v, want %+v", got, want)
	}
	member := make(map[Triple]bool, len(want))
	for _, t := range want {
		member[t] = true
	}
	for i := 0; i < 64; i++ {
		t := vocab.triple(r)
		if i%8 == 0 {
			t.O = absentTerms[r.Intn(len(absentTerms))]
		}
		if g.Has(t) != member[t] {
			return fmt.Errorf("Has(%v) = %v, want %v", t, g.Has(t), member[t])
		}
	}
	return nil
}

// Interleaved Add → read → Add → read over random multisets. Which
// faces are read in the middle rounds is itself random, so each face is
// exercised both built cold over everything and rebuilt after Adds;
// the last round reads them all. The expected triples come from the
// test's own dedupe (distinct), not the store's.
func TestStoreMatchesBruteForce(t *testing.T) {
	vocab := newStoreVocab()
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dict := NewDictionary()
		if r.Intn(2) == 0 {
			// A shared dictionary already holding unrelated terms: the
			// graph's ids are sparse against it.
			for i := 0; i < 1+r.Intn(20); i++ {
				dict.Encode(NewIRI(fmt.Sprintf("http://other/%d", i)))
			}
		}
		g := NewGraphWithDictionary(nil, dict)
		var added []Triple
		rounds := 1 + r.Intn(4)
		for round := 0; round < rounds; round++ {
			for n := r.Intn(40); n > 0; n-- {
				tr := vocab.triple(r)
				fresh := !g.Has(tr)
				if g.Add(tr) != fresh {
					t.Logf("seed %d: Add(%v) disagreed with Has", seed, tr)
					return false
				}
				added = append(added, tr)
			}
			want := distinct(added)
			last := round == rounds-1
			for _, face := range []func() error{
				func() error { return checkEncodedView(g.Encoded(), want) },
				func() error { return checkSummaries(g, vocab, r, want) },
			} {
				if !last && r.Intn(2) == 0 {
					continue
				}
				if err := face(); err != nil {
					t.Logf("seed %d round %d/%d: %v", seed, round+1, rounds, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A view built straight from encoded triples equals the graph's, owns
// its storage, and reads ids assigned after it was built as empty.
func TestNewEncodedViewAndLateIDs(t *testing.T) {
	vocab := newStoreVocab()
	r := rand.New(rand.NewSource(1))
	var ts []Triple
	for i := 0; i < 60; i++ {
		ts = append(ts, vocab.triple(r))
	}
	ts = distinct(ts)
	dict := NewDictionary()
	enc := encodeAll(dict, ts)
	v, err := NewEncodedView(dict, enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEncodedView(v, ts); err != nil {
		t.Fatal(err)
	}
	enc[0] = EncodedTriple{}
	if err := checkEncodedView(v, ts); err != nil {
		t.Fatalf("view shares the caller's slice: %v", err)
	}

	late := dict.Encode(NewIRI("http://ex/assigned-later"))
	if s, p, o := v.WithSubject(late), v.WithPredicate(late), v.WithObject(late); s != nil || p != nil || o != nil {
		t.Fatalf("late id %d reads %v / %v / %v, want nil", late, s, p, o)
	}
	empty, err := NewEncodedView(dict, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 || empty.WithSubject(0) != nil || empty.WithObject(late) != nil {
		t.Fatal("empty view is not empty")
	}
}

// Terms parsed from N-Triples are substrings of their input line; the
// dictionary must own what it keeps, or every entry pins a whole line.
func TestDictionaryOwnsItsStrings(t *testing.T) {
	line := `<http://ex/s> <http://ex/p> "v"^^<http://ex/dt> .` + strings.Repeat(" ", 1024)
	tr, err := ParseTripleLine(strings.TrimSpace(line))
	if err != nil {
		t.Fatal(err)
	}
	within := func(s, buf string) bool {
		p, b := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(buf)))
		return p >= b && p < b+uintptr(len(buf))
	}
	if !within(tr.S.Value, line) {
		t.Skip("parser no longer returns substrings of the line")
	}
	dict := NewDictionary()
	e := dict.EncodeTriple(tr)
	for _, id := range []TermID{e.S, e.P, e.O} {
		term, err := dict.Decode(id)
		if err != nil {
			t.Fatal(err)
		}
		if within(term.Value, line) || (term.Datatype != "" && within(term.Datatype, line)) {
			t.Fatalf("dictionary term %v still points into the parsed line", term)
		}
	}
	if got, _ := dict.DecodeTriple(e); got != tr {
		t.Fatalf("decoded %v, want %v", got, tr)
	}
}

func TestReadNTriplesStreamsAndStops(t *testing.T) {
	doc := "<http://e/a> <http://e/p> \"1\" .\n# comment\n<http://e/b> <http://e/p> \"2\" .\n<http://e/c> <http://e/p> \"3\" .\n"
	g := NewGraph(nil)
	if err := ReadNTriples(strings.NewReader(doc), func(tr Triple) error {
		_, err := g.TryAdd(tr)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want, err := ParseNTriples(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.Triples(), want) {
		t.Fatalf("streamed graph = %v, parsed slice = %v", g.Triples(), want)
	}

	stop := errors.New("stop")
	seen := 0
	err = ReadNTriples(strings.NewReader(doc), func(Triple) error {
		seen++
		if seen == 2 {
			return stop
		}
		return nil
	})
	if err != stop || seen != 2 {
		t.Fatalf("callback error: got %v after %d triples, want the callback's own error after 2", err, seen)
	}
	if err := ReadNTriples(strings.NewReader("<http://e/a> <http://e/p> .\n"), func(Triple) error { return nil }); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("malformed line: err = %v, want a line-numbered error", err)
	}
}

// The numeric edges fail typed: ids stop short of the evaluator's
// unbound sentinel, triple counts short of int32 positions. The limits
// are lowered here to reach the boundary.
func TestCapacityErrors(t *testing.T) {
	t.Run("terms", func(t *testing.T) {
		d := NewDictionary()
		d.limit = 3
		for i := 0; i < 3; i++ {
			if id, err := d.TryEncode(NewLiteral(fmt.Sprint(i))); err != nil || int(id) != i {
				t.Fatalf("term %d: id %d, err %v", i, id, err)
			}
		}
		_, err := d.TryEncode(NewLiteral("one too many"))
		var ce *CapacityError
		if !errors.As(err, &ce) || ce.What != "terms" || ce.Limit != 3 {
			t.Fatalf("err = %v, want a terms CapacityError at 3", err)
		}
		if id, err := d.TryEncode(NewLiteral("1")); err != nil || id != 1 {
			t.Fatalf("a full dictionary must still encode known terms: id %d, err %v", id, err)
		}
		if d.Len() != 3 {
			t.Fatalf("failed encode grew the dictionary to %d", d.Len())
		}
		defer func() {
			if _, ok := recover().(*CapacityError); !ok {
				t.Fatal("Encode on a full dictionary must panic with *CapacityError")
			}
		}()
		d.Encode(NewLiteral("panics"))
	})
	t.Run("triples", func(t *testing.T) {
		old := maxTriples
		maxTriples = 2
		defer func() { maxTriples = old }()

		p := NewIRI("http://ex/p")
		mk := func(i int) Triple {
			return Triple{S: NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: p, O: NewLiteral("o")}
		}
		g := NewGraph([]Triple{mk(0), mk(1)})
		added, err := g.TryAdd(mk(2))
		var ce *CapacityError
		if added || !errors.As(err, &ce) || ce.What != "triples" || ce.Limit != 2 {
			t.Fatalf("TryAdd past the limit: added %v, err %v", added, err)
		}
		if added, err := g.TryAdd(mk(1)); added || err != nil {
			t.Fatalf("a repeat on a full graph is not an error: added %v, err %v", added, err)
		}
		if g.Len() != 2 || g.Encoded().Len() != 2 {
			t.Fatalf("failed add changed the graph: Len %d", g.Len())
		}
		enc := encodeAll(g.Encoded().Dict(), []Triple{mk(0), mk(1), mk(2)})
		if _, err := NewEncodedView(g.Encoded().Dict(), enc); !errors.As(err, &ce) {
			t.Fatalf("NewEncodedView past the limit: err = %v", err)
		}
		if _, err := NewEncodedView(g.Encoded().Dict(), enc[:2]); err != nil {
			t.Fatalf("NewEncodedView at the limit: %v", err)
		}
	})
}
