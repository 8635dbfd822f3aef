package systems

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spark"
	"repro/internal/workload"
)

// TestAssessActivityPinned holds the assessment's *result* still while
// its cost is worked on: for every (engine, query) cell of the
// University workload on the benchmark-scale dataset, under the
// bench's cluster, the integer cluster activity equals the table in
// testdata/assess_activity.golden. That file was generated at commit
// feec14b, before the driver-side joins were replaced; a perf change
// to an engine must leave it byte-identical, and a change that means
// to move a counter regenerates it from the failure output and says so.
//
// ShuffleBytes is pinned too — the join keys the engines shuffle on are
// sized into it, and so are the solution records: its column was
// regenerated when those records turned from sparql.Binding maps into
// solutions.Row slot rows, and once more when a slot turned from an
// rdf.Term into a TermID, every other column byte-identical both
// times. GX-Subgraph's joined the table once its per-vertex
// tables were walked in vertex-id order (mtTable.all): spark's meter
// sizes a shuffle from the three records at the head of its first
// partition and the tail of its last, so a Go-map walk moved four of
// its cells by ±0.3 % from run to run.
func TestAssessActivityPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale integration test")
	}
	conf := spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 8}
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	engines := AllEngines(conf)
	for _, e := range engines {
		if err := e.Load(triples); err != nil {
			t.Fatalf("%s: %v", e.Info().Name, err)
		}
	}
	var got strings.Builder
	for _, nq := range workload.UniversityQueries() {
		for _, e := range engines {
			m := core.RunQuery(e, nq.Name, nq.Query, nil)
			cell := "unsupported"
			if m.Err == nil {
				a := m.Activity
				cell = fmt.Sprintf("stages=%d tasks=%d shuffleRecords=%d broadcast=%d read=%d supersteps=%d msgs=%d shuffleBytes=%d",
					a.Stages, a.Tasks, a.ShuffleRecords, a.BroadcastRecords, a.RecordsRead, a.Supersteps, a.MessagesSent, a.ShuffleBytes)
			}
			fmt.Fprintf(&got, "%s %s %s\n", nq.Name, e.Info().Name, cell)
		}
	}
	want, err := os.ReadFile("testdata/assess_activity.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cells, golden has %d; full table:\n%s", len(gotLines)-1, len(wantLines)-1, got.String())
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
