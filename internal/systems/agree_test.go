package systems

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/systemstest"
)

// TestEnginesAgree is the N-version sweep: the nine engines answer the
// same random queries (systemstest.RandomQueries, BGP+ forms included)
// over the same random datasets, and each answer is held to the
// reference evaluator's. Eight engines evaluate BGPs on a substrate of
// their own; HAQWA hands its fragments to the reference evaluator, so
// it votes with it. A wrong answer is reported as one of two findings:
// the engines giving it stand apart from the others (their bug), or
// every answering engine agrees on it and only the reference differs
// (the reference's bug).
//
// Each engine's declared SPARQL fragment (the survey's Table II) is
// held as behaviour: an engine of the BGP fragment refuses exactly the
// queries outside it, and one of the BGP+ fragment refuses none.
//
// CHAOS_SEED moves the sweep to other datasets and queries, so each
// entry of CI's chaos matrix checks a different slice.
func TestEnginesAgree(t *testing.T) {
	base := int64(0)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		base = v * 1000
	}
	conf := spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 4}
	const seeds, perSeed = 8, 8
	answered, outside := 0, 0
	for seed := base + 1; seed <= base+seeds; seed++ {
		triples := systemstest.RandomDataset(seed)
		ref := rdf.NewGraph(triples)
		engines := AllEngines(conf)
		for _, e := range engines {
			if err := e.Load(triples); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, e.Info().Name, err)
			}
		}
		for _, text := range systemstest.RandomQueries(rand.New(rand.NewSource(seed)), perSeed, true) {
			q := sparql.MustParse(text)
			want, err := sparql.Evaluate(q, ref)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if want.Len() > 0 {
				answered++
			}
			_, isBGP := q.BGPOf()
			if !isBGP {
				outside++
			}
			// votes groups the answering engines by their answer.
			votes := map[string][]string{}
			var order []string
			for _, e := range engines {
				info := e.Info()
				covered := isBGP || info.SPARQL == core.FragmentBGPPlus
				got, err := e.Execute(q)
				switch {
				case err != nil && covered:
					t.Errorf("seed %d: %s (%v) refused %s: %v", seed, info.Name, info.SPARQL, text, err)
				case err == nil && !covered:
					t.Errorf("seed %d: %s (%v) answered %s, outside its fragment", seed, info.Name, info.SPARQL, text)
				case err == nil:
					key := strings.Join(got.Canonical(), "\n")
					if votes[key] == nil {
						order = append(order, key)
					}
					votes[key] = append(votes[key], info.Name)
				}
			}
			wantKey := strings.Join(want.Canonical(), "\n")
			for _, key := range order {
				if key == wantKey {
					continue
				}
				finding := fmt.Sprintf("%v stand apart", votes[key])
				if len(order) == 1 {
					finding = "the engines agree with each other but not with the reference"
				}
				rows := strings.FieldsFunc(key, func(r rune) bool { return r == '\n' })
				t.Errorf("seed %d: %s\n%s: %d rows %v, reference %d rows %v",
					seed, text, finding, len(rows), systemstest.Head(rows), want.Len(), systemstest.Head(want.Canonical()))
			}
		}
	}
	if total := seeds * perSeed; answered < total/2 || outside < total/2 {
		t.Fatalf("of %d random queries %d have an answer and %d are outside the BGP fragment: the sweep checks too little", total, answered, outside)
	}
}
