package systems

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func TestRegistryHasAllNineSystems(t *testing.T) {
	r := NewRegistry(spark.DefaultConfig())
	if len(r.Engines()) != 9 {
		t.Fatalf("engines = %d, want 9", len(r.Engines()))
	}
	wantNames := []string{"HAQWA", "SPARQLGX", "S2RDF", "Hybrid", "S2X", "GX-Subgraph", "Spar(k)ql", "GraphFrames", "SparkRDF"}
	for i, e := range r.Engines() {
		if n := e.Info().Name; n != wantNames[i] {
			t.Fatalf("names[%d] = %s, want %s", i, n, wantNames[i])
		}
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	// The generated Table I must place each citation in the paper's
	// cell (data model x abstraction).
	r := NewRegistry(spark.DefaultConfig())
	type cell struct {
		model core.DataModel
		abs   core.Abstraction
	}
	want := map[string]cell{
		"[7]":  {core.TripleModel, core.RDDAbstraction},
		"[13]": {core.TripleModel, core.RDDAbstraction},
		"[21]": {core.TripleModel, core.RDDAbstraction}, // also DataFrames
		"[24]": {core.TripleModel, core.SparkSQLAbstraction},
		"[23]": {core.GraphModel, core.GraphXAbstraction},
		"[16]": {core.GraphModel, core.GraphXAbstraction},
		"[12]": {core.GraphModel, core.GraphXAbstraction},
		"[4]":  {core.GraphModel, core.GraphFramesAbstraction},
		"[5]":  {core.GraphModel, core.RDDAbstraction},
	}
	for _, e := range r.Engines() {
		info := e.Info()
		w, ok := want[info.Citation]
		if !ok {
			t.Fatalf("unexpected citation %s", info.Citation)
		}
		if info.Model != w.model {
			t.Errorf("%s: model %v, want %v", info.Name, info.Model, w.model)
		}
		found := false
		for _, a := range info.Abstractions {
			if a == w.abs {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: abstractions %v missing %v", info.Name, info.Abstractions, w.abs)
		}
	}
}

func TestTableIIMatchesPaper(t *testing.T) {
	// Optimization and SPARQL-fragment columns of Table II.
	r := NewRegistry(spark.DefaultConfig())
	wantOpt := map[string]bool{
		"[7]": false, "[13]": true, "[24]": true, "[21]": true,
		"[23]": false, "[16]": true, "[12]": true, "[4]": true, "[5]": true,
	}
	wantFrag := map[string]core.Fragment{
		"[7]": core.FragmentBGPPlus, "[13]": core.FragmentBGPPlus,
		"[24]": core.FragmentBGPPlus, "[21]": core.FragmentBGP,
		"[23]": core.FragmentBGPPlus, "[16]": core.FragmentBGP,
		"[12]": core.FragmentBGP, "[4]": core.FragmentBGP, "[5]": core.FragmentBGP,
	}
	for _, e := range r.Engines() {
		info := e.Info()
		if info.Optimized != wantOpt[info.Citation] {
			t.Errorf("%s: optimized = %v", info.Name, info.Optimized)
		}
		if info.SPARQL != wantFrag[info.Citation] {
			t.Errorf("%s: fragment = %v", info.Name, info.SPARQL)
		}
	}
}

func TestFullAssessmentAllEnginesCorrect(t *testing.T) {
	// Integration: every engine answers every supported workload query
	// with exactly the reference answer.
	if testing.Short() {
		t.Skip("integration test")
	}
	conf := spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4}
	engines := AllEngines(conf)
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	ref := rdf.NewGraph(triples)
	for _, e := range engines {
		if err := e.Load(triples); err != nil {
			t.Fatalf("%s: %v", e.Info().Name, err)
		}
	}
	for _, nq := range workload.UniversityQueries() {
		want, err := sparql.Evaluate(nq.Query, ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			m := core.RunQuery(e, nq.Name, nq.Query, want)
			if m.Err != nil {
				// BGP-fragment engines legitimately reject BGP+ queries.
				if e.Info().SPARQL == core.FragmentBGP {
					continue
				}
				t.Errorf("%s on %s: %v", e.Info().Name, nq.Name, m.Err)
				continue
			}
			if !m.Correct {
				t.Errorf("%s on %s: wrong answer (%d rows, want %d)",
					e.Info().Name, nq.Name, m.Rows, want.Len())
			}
		}
	}
}

func TestAllEnginesRejectDescribe(t *testing.T) {
	q := sparql.MustParse(`DESCRIBE <http://e/x>`)
	for _, e := range AllEngines(spark.DefaultConfig()) {
		if err := e.Load(nil); err != nil {
			t.Fatalf("%s: %v", e.Info().Name, err)
		}
		if _, err := e.Execute(q); err == nil {
			t.Errorf("%s accepted DESCRIBE", e.Info().Name)
		}
	}
}

func TestAllEnginesCorrectUnderFaultInjection(t *testing.T) {
	// Spark's recompute-from-lineage contract: answers are identical
	// when tasks fail and retry.
	if testing.Short() {
		t.Skip("integration test")
	}
	conf := spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4}
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	ref := rdf.NewGraph(triples)
	q := sparql.MustParse(
		`SELECT ?st ?dept WHERE { ?st <` + workload.UnivNS + `advisor> ?prof . ?prof <` + workload.UnivNS + `worksFor> ?dept }`)
	want, err := sparql.Evaluate(q, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range AllEngines(conf) {
		plan := spark.NewFaultPlan(0.2, 11)
		plan.MaxAttempts = 64 // high failure rate: keep retrying, never abort
		e.Context().InjectFaults(plan)
		if err := e.Load(triples); err != nil {
			t.Fatalf("%s load under faults: %v", e.Info().Name, err)
		}
		got, err := e.Execute(q)
		if err != nil {
			t.Fatalf("%s execute under faults: %v", e.Info().Name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: answers changed under fault injection", e.Info().Name)
		}
		if e.Context().TaskRetries() == 0 {
			t.Errorf("%s: no retries at 20%% failure rate", e.Info().Name)
		}
	}
}

func TestFullAssessmentMediumScale(t *testing.T) {
	// Benchmark-scale integration: every engine answers the linear
	// workload query correctly on the ~26k-triple dataset.
	if testing.Short() {
		t.Skip("medium-scale integration test")
	}
	conf := spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 8}
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	ref := rdf.NewGraph(triples)
	q := workload.QueriesByShape(workload.UniversityQueries(), sparql.ShapeLinear)[0]
	want, err := sparql.Evaluate(q.Query, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range AllEngines(conf) {
		if err := e.Load(triples); err != nil {
			t.Fatalf("%s: %v", e.Info().Name, err)
		}
		got, err := e.Execute(q.Query)
		if err != nil {
			t.Fatalf("%s: %v", e.Info().Name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s wrong at medium scale: %d vs %d rows", e.Info().Name, got.Len(), want.Len())
		}
	}
}
