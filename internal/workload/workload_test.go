package workload

import (
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestGenerateUniversityDeterministic(t *testing.T) {
	a := GenerateUniversity(SmallUniversity())
	b := GenerateUniversity(SmallUniversity())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("generator is not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("empty dataset")
	}
}

func TestGenerateUniversityWellFormed(t *testing.T) {
	ts := GenerateUniversity(SmallUniversity())
	for _, tr := range ts {
		if err := tr.Validate(); err != nil {
			t.Fatalf("invalid triple %v: %v", tr, err)
		}
	}
	g := rdf.NewGraph(ts)
	if stats := g.Stats(); stats.DistinctPredicates < 8 {
		t.Fatalf("too few predicates: %d", stats.DistinctPredicates)
	}
	// Every student must have a type triple.
	students := 0
	for _, tr := range g.Triples() {
		if tr.P == rdf.NewIRI(rdf.RDFType) && tr.O == ClassStudent {
			students++
		}
	}
	cfg := SmallUniversity()
	want := cfg.Universities * cfg.DepartmentsPerUniv * cfg.StudentsPerDept
	if students != want {
		t.Fatalf("students = %d, want %d", students, want)
	}
}

func TestGenerateUniversityScales(t *testing.T) {
	small := len(GenerateUniversity(SmallUniversity()))
	medium := len(GenerateUniversity(MediumUniversity()))
	if medium <= small*2 {
		t.Fatalf("medium (%d) not meaningfully larger than small (%d)", medium, small)
	}
}

func TestGenerateShopDeterministicAndValid(t *testing.T) {
	a := GenerateShop(SmallShop())
	b := GenerateShop(SmallShop())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shop generator is not deterministic")
	}
	for _, tr := range a {
		if err := tr.Validate(); err != nil {
			t.Fatalf("invalid triple %v: %v", tr, err)
		}
	}
	perPredicate := map[rdf.Term]int{}
	for _, tr := range rdf.NewGraph(a).Triples() {
		perPredicate[tr.P]++
	}
	if perPredicate[ShopFollows] == 0 {
		t.Fatal("no follows edges")
	}
	if perPredicate[ShopPrice] != SmallShop().Products {
		t.Fatalf("price triples = %d", perPredicate[ShopPrice])
	}
}

func TestWorkloadQueriesParseAndClassify(t *testing.T) {
	for _, nq := range AllQueries() {
		if nq.Query == nil {
			t.Fatalf("%s: nil query", nq.Name)
		}
		if got := sparql.ClassifyShape(nq.Query); got != nq.Shape {
			t.Fatalf("%s: shape %v, want %v", nq.Name, got, nq.Shape)
		}
	}
}

func TestWorkloadQueriesHaveAnswers(t *testing.T) {
	// Every university query must return at least one row on the medium
	// dataset — otherwise the assessment measures nothing.
	g := rdf.NewGraph(GenerateUniversity(MediumUniversity()))
	for _, nq := range UniversityQueries() {
		res, err := sparql.Evaluate(nq.Query, g)
		if err != nil {
			t.Fatalf("%s: %v", nq.Name, err)
		}
		if res.Len() == 0 {
			t.Errorf("%s: zero answers on medium dataset", nq.Name)
		}
	}
	gs := rdf.NewGraph(GenerateShop(MediumShop()))
	for _, nq := range ShopQueries() {
		res, err := sparql.Evaluate(nq.Query, gs)
		if err != nil {
			t.Fatalf("%s: %v", nq.Name, err)
		}
		if res.Len() == 0 {
			t.Errorf("%s: zero answers on medium shop dataset", nq.Name)
		}
	}
}

func TestQueriesByShape(t *testing.T) {
	stars := QueriesByShape(UniversityQueries(), sparql.ShapeStar)
	if len(stars) != 2 {
		t.Fatalf("stars = %d", len(stars))
	}
	for _, q := range stars {
		if q.Shape != sparql.ShapeStar {
			t.Fatalf("wrong shape in filter: %v", q.Shape)
		}
	}
}
