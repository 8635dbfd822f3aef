package systems

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/solutions"
	"repro/internal/workload"
)

// datasetOf is the loader every engine embeds (solutions.Source).
type datasetOf interface {
	Dataset([]rdf.Triple) (*solutions.Dataset, error)
}

// The engines of one AllEngines call encode one slice once, between
// them, and a copy of it again (so does another AllEngines call); the shared dictionary is read-only once
// loaded: every University query on every engine, and a query whose
// constant the data does not hold (which answers nothing everywhere),
// leave its Len as they found it.
func TestAllEnginesEncodeOnce(t *testing.T) {
	conf := spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4}
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	engines := AllEngines(conf)
	first, err := engines[0].(datasetOf).Dataset(triples)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		if err := e.Load(triples); err != nil {
			t.Fatalf("%s: %v", e.Info().Name, err)
		}
	}
	for _, e := range engines {
		if d, _ := e.(datasetOf).Dataset(triples); d != first {
			t.Fatalf("%s: the nine Loads of one slice encoded it more than once", e.Info().Name)
		}
	}
	if d, _ := AllEngines(conf)[0].(datasetOf).Dataset(triples); d == first {
		t.Fatal("two AllEngines calls share a loader")
	}

	terms := first.Dict.Len()
	absent := sparql.MustParse(fmt.Sprintf(`SELECT ?s ?n WHERE { ?s <%sname> ?n . ?s <%sadvisor> <http://absent/prof> }`,
		workload.UnivNS, workload.UnivNS))
	for _, nq := range append(workload.UniversityQueries(), workload.NamedQuery{Name: "absent", Query: absent}) {
		for _, e := range engines {
			m := core.RunQuery(e, nq.Name, nq.Query, nil)
			if nq.Name == "absent" && (m.Err != nil || m.Rows != 0) {
				t.Errorf("%s: a constant absent from the data answered %d rows (err %v)", e.Info().Name, m.Rows, m.Err)
			}
		}
	}
	if got := first.Dict.Len(); got != terms {
		t.Fatalf("queries grew the shared dictionary from %d to %d terms", terms, got)
	}

	copied := slices.Clone(triples)
	if err := engines[3].Load(copied); err != nil {
		t.Fatal(err)
	}
	if d, _ := engines[5].(datasetOf).Dataset(copied); d == first {
		t.Fatal("a copy of the slice reused its encoding")
	}
}
