package evolve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/spark"
	"repro/internal/sparql"
	"repro/internal/systems/sparqlgx"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }

func tr(s, p, o string) rdf.Triple { return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)} }

func baseData() []rdf.Triple {
	return []rdf.Triple{tr("a", "knows", "b"), tr("b", "knows", "c")}
}

func knowsQuery() *sparql.Query {
	return sparql.MustParse(`SELECT ?x ?y WHERE { ?x <http://e/knows> ?y }`)
}

func TestSnapshotVersions(t *testing.T) {
	s := NewStore(baseData())
	if s.Head() != 0 {
		t.Fatalf("head = %d", s.Head())
	}
	v1, err := s.Commit([]rdf.Triple{tr("c", "knows", "d")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Commit(nil, []rdf.Triple{tr("a", "knows", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 || s.Head() != 2 {
		t.Fatalf("versions = %d %d head %d", v1, v2, s.Head())
	}
	for v, want := range map[Version]int{0: 2, 1: 3, 2: 2} {
		snap, err := s.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != want {
			t.Fatalf("v%d size = %d, want %d", v, len(snap), want)
		}
	}
	// Version 2 must not contain the removed triple.
	snap2, _ := s.Snapshot(2)
	for _, x := range snap2 {
		if x == tr("a", "knows", "b") {
			t.Fatal("removed triple still present")
		}
	}
}

func TestSnapshotUnknownVersion(t *testing.T) {
	s := NewStore(baseData())
	if _, err := s.Snapshot(5); err == nil {
		t.Fatal("expected error")
	}
	if _, err := s.Snapshot(-1); err == nil {
		t.Fatal("expected error")
	}
}

func TestCommitNormalizesDeltas(t *testing.T) {
	s := NewStore(baseData())
	// Adding an existing triple and removing an absent one is a no-op.
	v, err := s.Commit([]rdf.Triple{tr("a", "knows", "b")}, []rdf.Triple{tr("z", "knows", "z")})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.deltas[v-1]; len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("delta not normalized: %+v", d)
	}
	v2, _ := s.Commit([]rdf.Triple{tr("n", "knows", "m"), tr("n", "knows", "m")}, nil)
	if d2 := s.deltas[v2-1]; len(d2.Added) != 1 {
		t.Fatalf("duplicate adds kept: %+v", d2)
	}
}

func TestCommitValidates(t *testing.T) {
	s := NewStore(nil)
	bad := rdf.Triple{S: rdf.NewLiteral("x"), P: iri("p"), O: iri("o")}
	if _, err := s.Commit([]rdf.Triple{bad}, nil); err == nil {
		t.Fatal("invalid triple accepted")
	}
}

func TestQueryAtAndDiff(t *testing.T) {
	s := NewStore(baseData())
	_, _ = s.Commit([]rdf.Triple{tr("c", "knows", "d")}, []rdf.Triple{tr("a", "knows", "b")})

	r0, err := s.QueryAt(0, knowsQuery())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.QueryAt(1, knowsQuery())
	if err != nil {
		t.Fatal(err)
	}
	if r0.Len() != 2 || r1.Len() != 2 {
		t.Fatalf("rows: v0=%d v1=%d", r0.Len(), r1.Len())
	}
	appeared, disappeared, err := s.DiffResults(0, 1, knowsQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(appeared) != 1 || len(disappeared) != 1 {
		t.Fatalf("diff = +%v -%v", appeared, disappeared)
	}
}

func TestLiveServesAcrossCommits(t *testing.T) {
	s := NewStore(baseData())
	factory := func() core.Engine {
		return sparqlgx.New(spark.NewContext(spark.DefaultConfig()))
	}
	live, err := NewLive(s, factory)
	if err != nil {
		t.Fatal(err)
	}
	res, v, err := live.Execute(knowsQuery())
	if err != nil || v != 0 || res.Len() != 2 {
		t.Fatalf("v0: res=%v v=%d err=%v", res.Len(), v, err)
	}

	if _, err := s.Commit([]rdf.Triple{tr("c", "knows", "d")}, nil); err != nil {
		t.Fatal(err)
	}
	// Before refresh the old version keeps serving (uninterrupted).
	res, v, err = live.Execute(knowsQuery())
	if err != nil || v != 0 || res.Len() != 2 {
		t.Fatalf("pre-refresh: res=%v v=%d err=%v", res.Len(), v, err)
	}
	if err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	res, v, err = live.Execute(knowsQuery())
	if err != nil || v != 1 || res.Len() != 3 {
		t.Fatalf("post-refresh: res=%v v=%d err=%v", res.Len(), v, err)
	}
	// Refresh at head is a no-op.
	if err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveUninterruptedUnderConcurrency(t *testing.T) {
	s := NewStore(baseData())
	factory := func() core.Engine {
		return sparqlgx.New(spark.NewContext(spark.Config{Parallelism: 2, Executors: 2, MaxConcurrency: 2}))
	}
	live, err := NewLive(s, factory)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	// Readers hammer the live server while the writer commits and
	// refreshes new versions.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := live.Execute(knowsQuery())
				if err != nil {
					errs <- err
					return
				}
				if res.Len() < 2 {
					errs <- fmt.Errorf("query saw a partial version: %d rows", res.Len())
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Commit([]rdf.Triple{tr(fmt.Sprintf("n%d", i), "knows", "a")}, nil); err != nil {
			t.Fatal(err)
		}
		if err := live.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if live.version != 5 {
		t.Fatalf("final version = %d", live.version)
	}
}
