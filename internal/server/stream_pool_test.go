package server

// Failure paths and pool hygiene of the pooled-window writers: a failing
// sink, a context cancelled mid-stream, recycled windows under
// concurrency, and a row far larger than a window.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// fixedRows is a result of n rows that all render to the same number of
// bytes (fixed-width values, each carrying pad): a graph for the graph
// writer, a two-column bindings table for the other two.
func fixedRows(graph bool, n int, pad string) *sparql.Solutions {
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/subject/%06d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewLiteral(fmt.Sprintf("value %06d %s", i, pad)),
		}
	}
	if graph {
		return solve(rdf.NewGraph(ts), `CONSTRUCT { ?s <http://ex/p> ?v } WHERE { ?s <http://ex/p> ?v }`)
	}
	return solve(rdf.NewGraph(ts), `SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }`)
}

// onePool runs the test on a single P, where a sync.Pool is one private
// slot plus one list: what a writer puts back is what the next Get on
// this goroutine returns (bar the puts the race detector drops at
// random, which callers allow for).
func onePool(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

var errSink = errors.New("sink failed")

// failingSink accepts limit bytes, then fails every Write. It remembers
// the backing array of the slices it was handed.
type failingSink struct {
	limit, taken  int
	afterFailure  int
	window        *byte
	differentBufs bool
}

func (f *failingSink) Write(p []byte) (int, error) {
	if len(p) > 0 {
		if f.window != nil && f.window != &p[0] {
			f.differentBufs = true
		}
		f.window = &p[0]
	}
	if f.taken >= f.limit {
		f.afterFailure++
		return 0, errSink
	}
	if room := f.limit - f.taken; len(p) > room {
		f.taken = f.limit
		return room, errSink
	}
	f.taken += len(p)
	return len(p), nil
}

// A sink that fails after N bytes: the writer returns that error, tries
// at most one more Write, and its window is back in the pool.
func TestStreamWriteErrorReturnsWindow(t *testing.T) {
	onePool(t)
	for _, f := range streamFormats {
		sol := fixedRows(f.graph, 4000, "")
		for _, limit := range []int{0, 10, windowSize + 10, 2*windowSize + 100} {
			t.Run(fmt.Sprintf("%s/%d", f.name, limit), func(t *testing.T) {
				pooled := false
				for try := 0; try < 20 && !pooled; try++ {
					sink := &failingSink{limit: limit}
					if err := f.got(context.Background(), sink, sol); !errors.Is(err, errSink) {
						t.Fatalf("error %v, want the sink's", err)
					}
					if sink.afterFailure > 1 {
						t.Fatalf("%d Writes after the failed one", sink.afterFailure)
					}
					if sink.taken != limit || sink.differentBufs {
						t.Fatalf("sink took %d of %d bytes, from more than one buffer: %v", sink.taken, limit, sink.differentBufs)
					}
					p := windowPool.Get().(*[]byte)
					pooled = cap(*p) > 0 && &(*p)[:1][0] == sink.window
					windowPool.Put(p)
				}
				if !pooled {
					t.Fatal("the window a failed stream used never came back from the pool")
				}
			})
		}
	}
}

// cancelSink cancels the context on its first Write and counts what
// still arrives afterwards.
type cancelSink struct {
	cancel         context.CancelFunc
	before, after  int
	writesReceived int
}

func (c *cancelSink) Write(p []byte) (int, error) {
	if c.writesReceived++; c.writesReceived == 1 {
		c.before = len(p)
		c.cancel()
	} else {
		c.after += len(p)
	}
	return len(p), nil
}

// A context cancelled mid-result stops the stream at the next poll: no
// more than streamFlushEvery further rows are rendered, and the writer
// returns the context's error.
func TestStreamStopsOnCancel(t *testing.T) {
	// Rows of about 1 KiB: a window is some 64 rows, so several windows
	// go out between two polls and the cut is visible in what the sink
	// receives.
	const total = 4000
	for _, f := range streamFormats {
		sol := fixedRows(f.graph, total, strings.Repeat("x", 1000))
		t.Run(f.name, func(t *testing.T) {
			var whole bytes.Buffer
			if err := f.got(context.Background(), &whole, sol); err != nil {
				t.Fatal(err)
			}
			rowBytes := whole.Len() / total // rows are fixed-width; head and tail vanish in the division
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &cancelSink{cancel: cancel}
			if err := f.got(ctx, sink, sol); !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want context.Canceled", err)
			}
			if sink.before == 0 || sink.after == 0 {
				t.Fatalf("cancelled after %d bytes, %d more followed: want windows on both sides of the cancel", sink.before, sink.after)
			}
			if rows := sink.after / rowBytes; rows > streamFlushEvery {
				t.Fatalf("%d rows were written after the cancel, more than the %d between polls", rows, streamFlushEvery)
			}
		})
	}
}

// Eight clients stream different multi-window answers from one server
// at once; every body equals the one the same request got serially, so a
// recycled window never carries a previous response's bytes. Run under
// -race -count=10 in CI.
func TestStreamConcurrentWindowsIsolated(t *testing.T) {
	var ts []rdf.Triple
	for i := 0; i < 1500; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/a%d", i))
		ts = append(ts,
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral(strings.Repeat(fmt.Sprintf("x%d ", i), 20))},
			rdf.Triple{S: s, P: rdf.NewIRI("http://ex/q"), O: rdf.NewLangLiteral(fmt.Sprintf("y\"%d\"", i), "en")})
	}
	srv := httptest.NewServer(New(rdf.NewGraph(ts), Config{}).Handler())
	defer srv.Close()
	targets := []string{
		"query=" + url.QueryEscape(`SELECT ?a ?x WHERE { ?a <http://ex/p> ?x }`),
		"format=tsv&query=" + url.QueryEscape(`SELECT ?a ?x WHERE { ?a <http://ex/p> ?x }`),
		"query=" + url.QueryEscape(`SELECT ?x ?y WHERE { ?a <http://ex/p> ?x . ?a <http://ex/q> ?y }`),
		"format=tsv&query=" + url.QueryEscape(`SELECT ?a ?x ?y WHERE { ?a <http://ex/p> ?x . ?a <http://ex/q> ?y }`),
		"query=" + url.QueryEscape(`SELECT ?a ?x WHERE { ?a <http://ex/p> ?x } ORDER BY DESC(?a)`),
		"query=" + url.QueryEscape(`SELECT ?a ?x WHERE { ?a <http://ex/p> ?x } OFFSET 300`),
		"query=" + url.QueryEscape(`CONSTRUCT { ?a <http://ex/r> ?x } WHERE { ?a <http://ex/p> ?x }`),
		"query=" + url.QueryEscape(`SELECT ?a ?x ?never WHERE { ?a <http://ex/p> ?x } LIMIT 1200`),
	}
	fetch := func(target string) []byte {
		res := httpGet(t, srv.URL+"/sparql?"+target)
		if res.code != http.StatusOK {
			t.Errorf("status %d for %s", res.code, target)
		}
		return []byte(res.body)
	}
	serial := make([][]byte, len(targets))
	for i, target := range targets {
		serial[i] = fetch(target)
		if len(serial[i]) < 2*windowSize {
			t.Fatalf("answer %d is %d bytes: every answer should span several windows", i, len(serial[i]))
		}
	}
	var wg sync.WaitGroup
	for i, target := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				body := fetch(target)
				if !bytes.Equal(body, serial[i]) {
					t.Errorf("answer %d, round %d: %d bytes differ from the serial answer's %d at byte %d",
						i, round, len(body), len(serial[i]), firstDiff(body, serial[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A row holding a 1 MB literal goes out whole and comes back intact, and
// the window it grew is dropped instead of pooled.
func TestStreamGiantRowNotPooled(t *testing.T) {
	onePool(t)
	giant := strings.Repeat("0123456789abcdef", 1<<16) // 1 MiB
	p := rdf.NewIRI("http://ex/p")
	g := rdf.NewGraph([]rdf.Triple{
		{S: rdf.NewIRI("http://ex/small"), P: p, O: rdf.NewLiteral("before")},
		{S: rdf.NewIRI("http://ex/giant"), P: p, O: rdf.NewLiteral(giant)},
		{S: rdf.NewIRI("http://ex/small"), P: p, O: rdf.NewLiteral("after")},
	})
	tables := solve(g, `SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }`)
	graph := solve(g, `DESCRIBE <http://ex/giant>`)
	for _, f := range streamFormats {
		sol := tables
		if f.graph {
			sol = graph
		}
		t.Run(f.name, func(t *testing.T) {
			var got, want writeLog
			if err := f.got(context.Background(), &got, sol); err != nil {
				t.Fatal(err)
			}
			if err := f.want(context.Background(), &want, sol); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%d bytes differ from the reference's %d at byte %d", got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
			}
			if f.name == "json" {
				var doc sparqlJSON
				if err := json.Unmarshal(got.Bytes(), &doc); err != nil {
					t.Fatal(err)
				}
				if v := doc.Results.Bindings[1]["v"].Value; v != giant {
					t.Fatalf("the literal came back as %d bytes, want %d", len(v), len(giant))
				}
			}
			if got.sizes[0] < len(giant) {
				t.Fatalf("first write is %d bytes: the giant row was split", got.sizes[0])
			}
			for i := 0; i < 16; i++ {
				p := windowPool.Get().(*[]byte)
				defer windowPool.Put(p)
				if cap(*p) > 2*windowSize {
					t.Fatalf("the pool handed out a %d-byte window: a grown window was retained", cap(*p))
				}
			}
		})
	}
}
