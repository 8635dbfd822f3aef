//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"time"
)

// span is one node of the span tree rdfserve serves behind
// /debug/queries/<request-id>.
type span struct {
	Name       string         `json:"name"`
	DurationUs int64          `json:"duration_us"`
	SelfUs     int64          `json:"self_us"`
	Attrs      map[string]any `json:"attrs"`
	Children   []span         `json:"children"`
}

// walk visits the span and every descendant.
func (s *span) walk(f func(*span)) {
	f(s)
	for i := range s.Children {
		s.Children[i].walk(f)
	}
}

// intAttr reads an integer attribute (JSON numbers decode as float64).
func (s *span) intAttr(key string) int64 {
	v, _ := s.Attrs[key].(float64)
	return int64(v)
}

// fetchTrace reads one retained request's span tree.
func fetchTrace(hc *http.Client, base, id string) (*span, error) {
	resp, err := hc.Get(base + "/debug/queries/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	return parseTrace(raw)
}

func parseTrace(raw []byte) (*span, error) {
	var doc struct {
		Trace span `json:"trace"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parsing trace: %w", err)
	}
	if doc.Trace.Name == "" {
		return nil, fmt.Errorf("parsing trace: no span tree")
	}
	return &doc.Trace, nil
}

// queryLedger accumulates span self-times by name over many requests.
// Its accounting identity: the named parts plus unattributed equal the
// client-observed whole. Unattributed is everything no child span
// covers: the root span's own time inside the server (request read,
// admission, accounting) plus the time outside it (socket, HTTP
// framing, the client's own read).
type queryLedger struct {
	requests   int
	selfUs     map[string]int64 // by span name, root excluded
	rootUs     int64            // Σ root span durations
	rootSelfUs int64
	wholeUs    float64 // Σ client-observed latency
	scanRows   int64   // rows produced by seed scans, matches and shard scans
	resultRows int64
}

// scanSpans produce candidate rows from the store; the sum of their
// "rows" attributes over the rows finally serialized is the evaluator's
// rows-examined-per-result count.
var scanSpans = map[string]bool{"seed_scan": true, "match": true, "scatter": true, "pushdown": true}

func (l *queryLedger) add(root *span, clientLatency time.Duration) {
	if l.selfUs == nil {
		l.selfUs = map[string]int64{}
	}
	l.requests++
	l.rootUs += root.DurationUs
	l.rootSelfUs += root.SelfUs
	l.wholeUs += float64(clientLatency) / float64(time.Microsecond)
	root.walk(func(s *span) {
		if s == root {
			return
		}
		l.selfUs[s.Name] += s.SelfUs
		if scanSpans[s.Name] {
			l.scanRows += s.intAttr("rows")
		}
		if s.Name == "serialize" {
			l.resultRows += s.intAttr("rows")
		}
	})
}

// parts returns mean self-µs per request by span name, the mean
// client-observed whole, and what the parts leave unattributed.
func (l *queryLedger) parts() (parts map[string]float64, whole, unattributed float64) {
	n := float64(l.requests)
	parts = make(map[string]float64, len(l.selfUs))
	sum := 0.0
	for name, us := range l.selfUs {
		parts[name] = ratio(float64(us), n)
		sum += parts[name]
	}
	whole = ratio(l.wholeUs, n)
	return parts, whole, whole - sum
}

// metrics maps the ledger onto the sparql.*, shard.* and obs.* layer
// metrics. Spans the metric list does not name (none today) still
// count as attributed and show in the printed ledger.
func (l *queryLedger) metrics() map[string]float64 {
	p, whole, unattributed := l.parts()
	return map[string]float64{
		"sparql.parse_us":             p["parse"],
		"sparql.bgp_us":               p["bgp"],
		"sparql.scan_us":              p["seed_scan"] + p["match"],
		"sparql.join_us":              p["join"] + p["optional"],
		"sparql.filter_us":            p["filter"],
		"sparql.modifiers_us":         p["modifiers"],
		"sparql.scan_rows_per_result": ratio(float64(l.scanRows), float64(l.resultRows)),
		"shard.scatter_us":            p["scatter"],
		"shard.pushdown_us":           p["pushdown"],
		"shard.gather_us":             p["gather"],
		"obs.attributed_share":        ratio(whole-unattributed, whole),
		"obs.unattributed_us":         unattributed,
	}
}

func (l *queryLedger) print(w *os.File, name string) {
	p, whole, unattributed := l.parts()
	fmt.Fprintf(w, "\nquery ledger (%s): mean µs per request over %d fully traced requests\n", name, l.requests)
	names := slices.Sorted(maps.Keys(p))
	sort.SliceStable(names, func(i, j int) bool { return p[names[i]] > p[names[j]] })
	sum := 0.0
	for _, n := range names {
		fmt.Fprintf(w, "   %-24s %12.1f\n", n, p[n])
		sum += p[n]
	}
	n := float64(l.requests)
	fmt.Fprintf(w, "   %-24s %12.1f   (server root self %.1f + outside the root span %.1f)\n",
		"unattributed", unattributed, ratio(float64(l.rootSelfUs), n), whole-ratio(float64(l.rootUs), n))
	fmt.Fprintf(w, "   %-24s %12.1f   (parts + unattributed = %.1f)\n", "client-observed whole", whole, sum+unattributed)
}

// tracedReplay boots one extra server with every request traced and
// retained, replays the slice against it and against the untraced
// serving process (each after one discarded pass of the same slice, so
// both see the same plan-cache state), reads every request's span tree
// back, and closes the query ledger. Responses stay verified.
func tracedReplay(s spec, seed int64, bin, dataPath string, untraced *loadClient, slice []int) (map[string]float64, error) {
	replay := func(lc *loadClient, ids []string) ([]sample, error) {
		lc.send(slice, nil)
		samples := lc.send(slice, ids)
		for i, sm := range samples {
			if !sm.ok {
				return nil, fmt.Errorf("traced replay: request %d failed verification", i)
			}
		}
		return samples, nil
	}
	plain, err := replay(untraced, nil)
	if err != nil {
		return nil, err
	}

	flags := append(s.serverFlags(), "-trace-sample", "1", "-trace-ring", strconv.Itoa(len(slice)))
	srv, err := startServer(bin, dataPath, flags)
	if err != nil {
		return nil, fmt.Errorf("traced boot: %w", err)
	}
	defer srv.stop()
	lc := newLoadClient(srv.base, untraced.texts, untraced.oracle)
	defer lc.close()
	ids := make([]string, len(slice))
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%d-%d", seed, i)
	}
	traced, err := replay(lc, ids)
	if err != nil {
		return nil, err
	}
	var ledger queryLedger
	// The slice mixes requests three decades apart, so the overhead is
	// the median of the per-request ratios, each request paired with
	// itself, not the ratio of two medians.
	overhead := make([]float64, len(slice))
	for i, id := range ids {
		root, err := fetchTrace(lc.hc, srv.base, id)
		if err != nil {
			return nil, err
		}
		ledger.add(root, traced[i].latency)
		overhead[i] = ratio(float64(traced[i].latency), float64(plain[i].latency))
	}
	ledger.print(os.Stderr, s.name)
	out := ledger.metrics()
	out["obs.trace_overhead_ratio"] = median(overhead)
	return out, nil
}
