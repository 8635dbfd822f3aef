package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Materialize against a brute-force fixpoint of the six rules over a
// set of term-space triples: every round tries every rule on every
// pair of triples, until a round adds nothing. Random graphs are drawn
// from a small vocabulary, so schema chains, blank-node schema
// subjects and literal objects under a range are common.
//
// Mutants, each applied alone to rdfs.go in a scratch copy, and each
// failing this property:
//   - rdfs9 dropped (no subclass typing);
//   - rdfs3's literal skip dropped (a literal typed by a range);
//   - the fixpoint stopped after one round.

func bruteClosure(ts []Triple) map[Triple]bool {
	typ, subClass, subProp := NewIRI(RDFType), NewIRI(RDFSSubClassOf), NewIRI(RDFSSubPropertyOf)
	domain, rng := NewIRI(RDFSDomain), NewIRI(RDFSRange)
	g := map[Triple]bool{}
	for _, t := range ts {
		g[t] = true
	}
	for {
		var add []Triple
		for a := range g {
			for b := range g {
				switch a.P {
				case subClass:
					if b.P == subClass && b.S == a.O { // rdfs11
						add = append(add, Triple{S: a.S, P: subClass, O: b.O})
					}
					if b.P == typ && b.O == a.S { // rdfs9
						add = append(add, Triple{S: b.S, P: typ, O: a.O})
					}
				case subProp:
					if b.P == subProp && b.S == a.O { // rdfs5
						add = append(add, Triple{S: a.S, P: subProp, O: b.O})
					}
					if a.S.IsIRI() && a.O.IsIRI() && b.P == a.S { // rdfs7
						add = append(add, Triple{S: b.S, P: a.O, O: b.O})
					}
				case domain:
					if a.S.IsIRI() && b.P == a.S { // rdfs2
						add = append(add, Triple{S: b.S, P: typ, O: a.O})
					}
				case rng:
					if a.S.IsIRI() && b.P == a.S && !b.O.IsLiteral() { // rdfs3
						add = append(add, Triple{S: b.O, P: typ, O: a.O})
					}
				}
			}
		}
		n := len(g)
		for _, t := range add {
			g[t] = true
		}
		if len(g) == n {
			return g
		}
	}
}

// closureGraph draws up to 24 triples: schema triples over a few
// classes and properties, and instance triples over a few resources.
func closureGraph(r *rand.Rand) []Triple {
	pick := func(ts ...Term) Term { return ts[r.Intn(len(ts))] }
	c := func() Term { return NewIRI(fmt.Sprintf("http://ex/C%d", r.Intn(3))) }
	p := func() Term { return NewIRI(fmt.Sprintf("http://ex/p%d", r.Intn(3))) }
	res := func() Term {
		return pick(NewIRI("http://ex/r0"), NewIRI("http://ex/r1"), NewBlank("b0"), c())
	}
	lit := func() Term { return pick(NewLiteral("l"), NewTypedLiteral("1", XSDInteger)) }
	var ts []Triple
	for n := r.Intn(25); n > 0; n-- {
		var t Triple
		switch r.Intn(7) {
		case 0:
			t = Triple{S: c(), P: NewIRI(RDFSSubClassOf), O: c()}
		case 1:
			t = Triple{S: pick(p(), NewBlank("bp")), P: NewIRI(RDFSSubPropertyOf), O: p()}
		case 2:
			t = Triple{S: pick(p(), NewBlank("bp")), P: NewIRI(RDFSDomain), O: c()}
		case 3:
			t = Triple{S: pick(p(), NewBlank("bp")), P: NewIRI(RDFSRange), O: c()}
		case 4:
			t = Triple{S: res(), P: NewIRI(RDFType), O: c()}
		default:
			t = Triple{S: res(), P: p(), O: pick(res(), lit())}
		}
		ts = append(ts, t)
	}
	return ts
}

func TestMaterializeMatchesBruteForceProperty(t *testing.T) {
	check := func(seed int64) bool {
		ts := closureGraph(rand.New(rand.NewSource(seed)))
		in := slices.Clone(ts)
		got := Materialize(ts)
		want := bruteClosure(ts)
		if !slices.Equal(ts, in) {
			t.Logf("seed %d: Materialize modified its input", seed)
			return false
		}
		seen := map[Triple]bool{}
		for _, tr := range got {
			if seen[tr] {
				t.Logf("seed %d: %v appears twice", seed, tr)
				return false
			}
			seen[tr] = true
			if !want[tr] {
				t.Logf("seed %d: %v is not entailed", seed, tr)
				return false
			}
		}
		for tr := range want {
			if !seen[tr] {
				t.Logf("seed %d: %v is entailed but missing\ninput: %v", seed, tr, ts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(49))}); err != nil {
		t.Fatal(err)
	}
}
