package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/shard"
)

// faultStatsDoc decodes the /stats faults block (plus the sharding
// bits the fault tests assert on).
type faultStatsDoc struct {
	Faults struct {
		Attempts        uint64              `json:"attempts"`
		Retries         uint64              `json:"retries"`
		Failovers       uint64              `json:"failovers"`
		RecoveredPanics uint64              `json:"recovered_panics"`
		PartialFailures uint64              `json:"partial_failures"`
		ReplicaHealth   []replicaInfoFields `json:"replica_health"`
	} `json:"faults"`
	Sharding struct {
		Shards   int `json:"shards"`
		Replicas int `json:"replicas"`
	} `json:"sharding"`
}

type replicaInfoFields struct {
	Shard     int     `json:"shard"`
	Replica   int     `json:"replica"`
	ErrorRate float64 `json:"error_rate"`
}

func getStats(t *testing.T, s *Server) faultStatsDoc {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var doc faultStatsDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestHandlerPanicRecovered pins the serving contract under panics: a
// panic inside request handling answers that one request with a 500,
// increments the recovered-panic counter, and leaves the server fully
// able to answer the next query.
func TestHandlerPanicRecovered(t *testing.T) {
	cfg := Config{FaultPlan: fault.NewPlan(1).PanicNext(fault.PointServer, 1)}
	s := New(testGraph(), cfg)
	q := `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } LIMIT 2`

	if rec := getQuery(t, s, q, "", nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request answered %d, want 500", rec.Code)
	}
	if rec := getQuery(t, s, q, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("request after recovered panic answered %d: %s", rec.Code, rec.Body.String())
	}
	if doc := getStats(t, s); doc.Faults.RecoveredPanics != 1 {
		t.Fatalf("recovered_panics = %d, want 1", doc.Faults.RecoveredPanics)
	}
}

// TestShardedFailoverServing pins fault-tolerant serving end to end:
// with replica 0 of every shard failed through the chaos plan, queries
// still answer 200 with full results, and /stats reports the
// failovers, the replica count, and every replica's health.
func TestShardedFailoverServing(t *testing.T) {
	triples := testGraph().Triples()
	const shards, replicas = 3, 2
	sg, err := shard.BuildReplicatedByName(triples, "hash-subject", shards, replicas)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(1)
	for sh := 0; sh < shards; sh++ {
		plan.FailAlways(fault.ReplicaPoint(sh, 0))
	}
	s := NewSharded(sg, Config{FaultPlan: plan})
	single := New(testGraph(), Config{})

	q := `SELECT ?s ?n ?a WHERE { ?s <http://ex/name> ?n . ?s <http://ex/age> ?a } ORDER BY ?s LIMIT 5`
	want := getQuery(t, single, q, "", nil)
	got := getQuery(t, s, q, "", nil)
	if got.Code != http.StatusOK {
		t.Fatalf("query with a replica down answered %d: %s", got.Code, got.Body.String())
	}
	if want.Body.String() != got.Body.String() {
		t.Fatalf("response with a replica down differs:\nwant %s\ngot  %s", want.Body.String(), got.Body.String())
	}

	doc := getStats(t, s)
	if doc.Faults.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", doc.Faults.Failovers)
	}
	if doc.Sharding.Replicas != replicas {
		t.Fatalf("sharding.replicas = %d, want %d", doc.Sharding.Replicas, replicas)
	}
	if len(doc.Faults.ReplicaHealth) != shards*replicas {
		t.Fatalf("replica_health lists %d entries, want %d", len(doc.Faults.ReplicaHealth), shards*replicas)
	}
	failed := 0
	for _, ri := range doc.Faults.ReplicaHealth {
		if ri.ErrorRate > 0 {
			if ri.Replica != 0 {
				t.Fatalf("shard %d replica %d reads error rate %v; only replica 0 failed", ri.Shard, ri.Replica, ri.ErrorRate)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no replica 0 reads an error rate")
	}
}

// TestAllReplicasDownAnswers502 pins the HTTP mapping of total shard
// loss: a PartialFailureError answers 502 Bad Gateway and increments
// partial_failures — it is an infrastructure failure, not a client
// error.
func TestAllReplicasDownAnswers502(t *testing.T) {
	triples := testGraph().Triples()
	sg, err := shard.BuildReplicatedByName(triples, "hash-subject", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(1)
	for r := 0; r < 2; r++ {
		for sh := 0; sh < 3; sh++ {
			plan.FailAlways(fault.ReplicaPoint(sh, r))
		}
	}
	s := NewSharded(sg, Config{FaultPlan: plan})
	rec := getQuery(t, s, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, "", nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("total shard loss answered %d, want 502: %s", rec.Code, rec.Body.String())
	}
	if doc := getStats(t, s); doc.Faults.PartialFailures != 1 {
		t.Fatalf("partial_failures = %d, want 1", doc.Faults.PartialFailures)
	}
}

// TestGracefulDrain pins the shutdown contract the rdfserve binary
// relies on: closing the listener lets a query already in flight run to
// a complete 200 answer, and only refuses connections made afterwards.
// The in-flight query is held open by injected latency at the server
// fault point.
func TestGracefulDrain(t *testing.T) {
	cfg := Config{FaultPlan: fault.NewPlan(1).Delay(fault.PointServer, 300*time.Millisecond)}
	s := New(testGraph(), cfg)
	ts := httptest.NewServer(s.Handler())

	q := url.QueryEscape(`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n } LIMIT 2`)
	type reply struct {
		code int
		body string
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/sparql?query=" + q)
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- reply{code: resp.StatusCode, body: string(b)}
	}()

	// Let the request reach the handler's injected delay, then close
	// the listener; Close blocks until outstanding requests finish.
	time.Sleep(100 * time.Millisecond)
	ts.Close()

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK || !strings.Contains(r.body, "bindings") {
		t.Fatalf("drained query answered %d: %s", r.code, r.body)
	}
	if _, err := http.Get(ts.URL + "/sparql?query=" + q); err == nil {
		t.Fatal("connection after drain succeeded, want refusal")
	}
}
