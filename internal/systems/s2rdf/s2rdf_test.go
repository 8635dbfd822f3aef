package s2rdf

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/systemstest"
	"repro/internal/workload"
)

func newEngine() *Engine {
	return New(spark.NewContext(spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4}))
}

func TestConformance(t *testing.T) {
	systemstest.Run(t, func() core.Engine { return newEngine() })
}

func TestRandomized(t *testing.T) {
	systemstest.RunRandomized(t, func() core.Engine { return newEngine() })
}

func TestInfo(t *testing.T) {
	info := newEngine().Info()
	if info.Name != "S2RDF" || info.Partitioning != "Extended Vertical" {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Abstractions) != 1 || info.Abstractions[0] != core.SparkSQLAbstraction {
		t.Fatalf("abstractions = %v", info.Abstractions)
	}
}

// chainData builds a tiny dataset with a selective correlation:
// advisor objects are a small subset of worksFor subjects.
func chainData() []rdf.Triple {
	var ts []rdf.Triple
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	advisor := iri("advisor")
	worksFor := iri("worksFor")
	for i := 0; i < 20; i++ {
		ts = append(ts, rdf.Triple{S: iri(fmt.Sprintf("stud%d", i)), P: advisor, O: iri(fmt.Sprintf("prof%d", i%2))})
	}
	for i := 0; i < 20; i++ {
		ts = append(ts, rdf.Triple{S: iri(fmt.Sprintf("prof%d", i)), P: worksFor, O: iri("dept0")})
	}
	return ts
}

func TestExtVPMaterialization(t *testing.T) {
	e := newEngine()
	if err := e.Load(chainData()); err != nil {
		t.Fatal(err)
	}
	// worksFor reduced by advisor's objects (OS correlation from
	// advisor, SO from worksFor side): worksFor subjects that appear as
	// advisor objects are only prof0, prof1 => SF = 2/20 = 0.1 <= 0.25.
	// The SS reduction of worksFor against advisor is empty (no shared
	// subjects), so if materialized it must have zero rows (SF = 0).
	if tab, ok := e.extvp[extVPKey(kindSS, "http://t/worksFor", "http://t/advisor")]; ok && tab.rows != 0 {
		t.Fatalf("SS reduction should be empty, has %d rows", tab.rows)
	}
	found := false
	for k, tab := range e.extvp {
		if strings.HasPrefix(k, "so|http://t/worksFor|http://t/advisor") {
			found = true
			if tab.rows != 2 {
				t.Fatalf("SO reduction rows = %d, want 2", tab.rows)
			}
			if tab.sf != 0.1 {
				t.Fatalf("SF = %f, want 0.1", tab.sf)
			}
		}
	}
	if !found {
		keys := make([]string, 0, len(e.extvp))
		for k := range e.extvp {
			keys = append(keys, k)
		}
		t.Fatalf("SO extvp table missing; have %v", keys)
	}
}

func TestSFThresholdBoundsStorage(t *testing.T) {
	data := workload.GenerateUniversity(workload.SmallUniversity())

	strict := newEngine()
	strict.SFThreshold = 0.05
	if err := strict.Load(data); err != nil {
		t.Fatal(err)
	}
	loose := newEngine()
	loose.SFThreshold = 0.9
	if err := loose.Load(data); err != nil {
		t.Fatal(err)
	}
	if strict.StorageRows >= loose.StorageRows {
		t.Fatalf("strict threshold stored %d rows, loose %d — threshold not bounding storage",
			strict.StorageRows, loose.StorageRows)
	}
	if strict.StorageOverhead() < 1 {
		t.Fatalf("overhead below 1 is impossible: %f", strict.StorageOverhead())
	}
}

func TestChooseTablePrefersExtVP(t *testing.T) {
	e := newEngine()
	if err := e.Load(chainData()); err != nil {
		t.Fatal(err)
	}
	tps := sparql.MustParse(`SELECT * WHERE {
		?st <http://t/advisor> ?prof .
		?prof <http://t/worksFor> ?dept }`)
	bgp, _ := tps.BGPOf()
	table, rows := e.chooseTable(bgp.Patterns[1], bgp.Patterns)
	if !strings.HasPrefix(table, "extvp_") {
		t.Fatalf("worksFor pattern chose %s, want an ExtVP table", table)
	}
	if rows != 2 {
		t.Fatalf("chosen table rows = %d, want 2", rows)
	}
}

func TestTranslateBGPProducesRunnableSQL(t *testing.T) {
	e := newEngine()
	if err := e.Load(chainData()); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?st ?dept WHERE {
		?st <http://t/advisor> ?prof .
		?prof <http://t/worksFor> ?dept }`)
	bgp, _ := q.BGPOf()
	text, vars, err := e.TranslateBGP(bgp)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 3 {
		t.Fatalf("vars = %v", vars)
	}
	if !strings.Contains(text, "JOIN") || !strings.Contains(text, "SELECT") {
		t.Fatalf("sql = %s", text)
	}
	df, err := e.Session().Query(text)
	if err != nil {
		t.Fatalf("generated SQL does not run: %v\n%s", err, text)
	}
	if df.Count() != 20 {
		t.Fatalf("rows = %d, want 20", df.Count())
	}
}

func TestExtVPReducesJoinInput(t *testing.T) {
	// The headline S2RDF claim: the join over ExtVP tables reads far
	// fewer rows than over plain VP tables.
	data := chainData()
	e := newEngine()
	if err := e.Load(data); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?st ?dept WHERE {
		?st <http://t/advisor> ?prof .
		?prof <http://t/worksFor> ?dept }`)
	bgp, _ := q.BGPOf()

	vpRows := e.vpSizes["http://t/advisor"] + e.vpSizes["http://t/worksFor"]
	_, r1 := e.chooseTable(bgp.Patterns[0], bgp.Patterns)
	_, r2 := e.chooseTable(bgp.Patterns[1], bgp.Patterns)
	if r1+r2 >= vpRows {
		t.Fatalf("ExtVP join input %d not below VP input %d", r1+r2, vpRows)
	}
}

func TestVariablePredicateFallsBackToTriples(t *testing.T) {
	e := newEngine()
	if err := e.Load(chainData()); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(sparql.MustParse(`SELECT ?p WHERE { <http://t/stud0> ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := res.Term(0, 0); res.Len() != 1 || p.Value != "http://t/advisor" {
		t.Fatalf("rows = %v", res.Canonical())
	}
}

// A BGP whose patterns share no variable compiles to a JOIN with no
// shared column, which Spark SQL runs as a cross product.
func TestDisconnectedBGPIsCrossProduct(t *testing.T) {
	data := chainData()
	e := newEngine()
	if err := e.Load(data); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?st ?prof ?x ?dept WHERE {
		?st <http://t/advisor> ?prof . ?x <http://t/worksFor> ?dept }`)
	got, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sparql.Evaluate(q, rdf.NewGraph(data))
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 2 || !got.Equal(want) {
		t.Fatalf("got %d rows, want the %d-row cross product", got.Len(), want.Len())
	}
}

func TestUnknownPredicateYieldsEmpty(t *testing.T) {
	e := newEngine()
	if err := e.Load(chainData()); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(sparql.MustParse(`SELECT ?s WHERE { ?s <http://t/none> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %v", res.Canonical())
	}
}

func TestExecuteWithoutLoad(t *testing.T) {
	if _, err := newEngine().Execute(sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`)); err == nil {
		t.Fatal("expected error before Load")
	}
}
