package rdf

// RDFS inference: the vocabulary-description entailment rules the
// survey's background section introduces ("RDF Schema ... includes a
// set of inference rules used to generate new, implicit triples from
// explicit ones"). Materialize implements the core rule set:
//
//	rdfs2  (p domain c), (s p o)        => (s type c)
//	rdfs3  (p range c),  (s p o), o∈U∪B => (o type c)
//	rdfs5  (p subPropertyOf q), (q subPropertyOf r) => (p subPropertyOf r)
//	rdfs7  (p subPropertyOf q), (s p o) => (s q o)
//	rdfs9  (c subClassOf d), (s type c) => (s type d)
//	rdfs11 (c subClassOf d), (d subClassOf e) => (c subClassOf e)
//
// Materialization runs to fixpoint, so chained schemas close fully.

// Materialize returns the input plus all triples entailed by the RDFS
// rules above, deduplicated. The input slice is not modified. Each
// round applies every rule to the round's encoded view and adds in id
// space; what a round adds, the next round reads.
func Materialize(triples []Triple) []Triple {
	g := NewGraph(triples)
	dict := g.dict
	typ := dict.Encode(NewIRI(RDFType))
	subClass := dict.Encode(NewIRI(RDFSSubClassOf))
	subProp := dict.Encode(NewIRI(RDFSSubPropertyOf))
	domain := dict.Encode(NewIRI(RDFSDomain))
	rng := dict.Encode(NewIRI(RDFSRange))
	terms := dict.Terms()

	changed := true
	add := func(s, p, o TermID) {
		added, err := g.addEncoded(EncodedTriple{S: s, P: p, O: o})
		if err != nil {
			panic(err)
		}
		changed = changed || added
	}
	for changed {
		changed = false
		v := g.Encoded()

		// rdfs5, rdfs11: transitive schema.
		for _, rule := range []TermID{subClass, subProp} {
			for _, a := range v.WithPredicate(rule) {
				for _, b := range v.WithSubject(a.O) {
					if b.P == rule {
						add(a.S, rule, b.O)
					}
				}
			}
		}

		// rdfs7: subproperty entailment.
		for _, sp := range v.WithPredicate(subProp) {
			if !terms[sp.S].IsIRI() || !terms[sp.O].IsIRI() {
				continue
			}
			for _, t := range v.WithPredicate(sp.S) {
				add(t.S, sp.O, t.O)
			}
		}

		// rdfs2: domain typing.
		for _, dom := range v.WithPredicate(domain) {
			if !terms[dom.S].IsIRI() {
				continue
			}
			for _, t := range v.WithPredicate(dom.S) {
				add(t.S, typ, dom.O)
			}
		}

		// rdfs3: range typing (object must be a resource).
		for _, r := range v.WithPredicate(rng) {
			if !terms[r.S].IsIRI() {
				continue
			}
			for _, t := range v.WithPredicate(r.S) {
				if !terms[t.O].IsLiteral() {
					add(t.O, typ, r.O)
				}
			}
		}

		// rdfs9: subclass typing.
		for _, sc := range v.WithPredicate(subClass) {
			for _, t := range v.WithObject(sc.S) {
				if t.P == typ {
					add(t.S, typ, sc.O)
				}
			}
		}
	}
	return g.Triples()
}
