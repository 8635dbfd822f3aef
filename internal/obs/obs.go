// Package obs is the engine's observability layer: a zero-dependency
// execution-trace span tree recorded by the query path when a run is
// armed with sparql.WithTrace, plus the text surfaces the trace and the
// server's counters are exposed through — an indented/JSON EXPLAIN
// ANALYZE renderer, a hand-rolled Prometheus text-exposition writer,
// and a structured (JSON lines) slow-query logger.
//
// Design constraints, in priority order:
//
//   - Near-zero overhead when disarmed: the evaluator keeps a single
//     nil pointer and every trace site costs one nil check. Nothing in
//     this package runs on an unarmed query.
//   - Driver-only mutation: a Trace (and its span stack) is owned by
//     the goroutine that runs the query's operator loop. Worker
//     goroutines never touch the tree; run-wide counters land on the
//     root at run end, after the workers are quiesced.
//   - Determinism: recording a trace observes the run, it never steers
//     it. Attribute order is insertion order, so two identical runs
//     render identical trees.
package obs

import (
	"sort"
	"time"
)

// Attr is one span attribute: a key with either an integer or a string
// value. Attributes keep insertion order, which makes rendered traces
// deterministic (a map would shuffle keys).
type Attr struct {
	Key string
	Int int64
	Str string
	// IsStr selects which value field is live.
	IsStr bool
}

// Span is one node of the execution trace: a named, timed stage of the
// query (parse, a BGP, one hash join, one scatter gather, ...) with
// typed attributes and child stages. Start is the offset from the
// trace's origin; Duration is zero until the span is ended.
type Span struct {
	Name     string
	Start    time.Duration
	Duration time.Duration
	Attrs    []Attr
	Children []*Span

	ended bool
}

// SetInt sets (or overwrites) an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Int, s.Attrs[i].IsStr = v, false
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: v})
}

// SetStr sets (or overwrites) a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Str, s.Attrs[i].IsStr = v, true
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v, IsStr: true})
}

// Int returns the integer attribute key, with ok=false when absent (or
// a string).
func (s *Span) Int(key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key && !a.IsStr {
			return a.Int, true
		}
	}
	return 0, false
}

// Str returns the string attribute key, with ok=false when absent.
func (s *Span) Str(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key && a.IsStr {
			return a.Str, true
		}
	}
	return "", false
}

// SelfTime is the span's duration minus its children's — the time the
// stage spent in its own code rather than delegating. Clamped at zero
// (children measured on other clocks can slightly overlap).
func (s *Span) SelfTime() time.Duration {
	d := s.Duration
	for _, c := range s.Children {
		d -= c.Duration
	}
	if d < 0 {
		return 0
	}
	return d
}

// Walk visits the span and every descendant in depth-first order.
func (s *Span) Walk(fn func(sp *Span, depth int)) { s.walk(fn, 0) }

func (s *Span) walk(fn func(sp *Span, depth int), depth int) {
	fn(s, depth)
	for _, c := range s.Children {
		c.walk(fn, depth+1)
	}
}

// Find returns the first span (depth-first) with the given name, nil
// when none matches. Test helper and EXPLAIN post-processing.
func (s *Span) Find(name string) *Span {
	var found *Span
	s.Walk(func(sp *Span, _ int) {
		if found == nil && sp.Name == name {
			found = sp
		}
	})
	return found
}

// FindAll returns every span (depth-first order) with the given name.
func (s *Span) FindAll(name string) []*Span {
	var out []*Span
	s.Walk(func(sp *Span, _ int) {
		if sp.Name == name {
			out = append(out, sp)
		}
	})
	return out
}

// Trace is one query's execution trace under construction: a span tree
// grown by Begin/End around a single origin timestamp (the monotonic
// clock Go embeds in time.Time). A Trace is single-goroutine — the
// query driver's — and must be Finish()ed before rendering.
type Trace struct {
	t0    time.Time
	root  *Span
	stack []*Span
}

// New starts a trace whose root span has the given name.
func New(name string) *Trace {
	t := &Trace{t0: time.Now()}
	t.root = &Span{Name: name}
	t.stack = append(t.stack, t.root)
	return t
}

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Current returns the innermost open span (the root when nothing else
// is open).
func (t *Trace) Current() *Span { return t.stack[len(t.stack)-1] }

// Begin opens a child of the current span and makes it current.
func (t *Trace) Begin(name string) *Span {
	sp := &Span{Name: name, Start: time.Since(t.t0)}
	cur := t.Current()
	cur.Children = append(cur.Children, sp)
	t.stack = append(t.stack, sp)
	return sp
}

// End closes sp — and any descendants an early-exit path left open —
// restoring sp's parent as the current span. Ending a span that is not
// on the open stack is a no-op.
func (t *Trace) End(sp *Span) {
	at := -1
	for i := len(t.stack) - 1; i > 0; i-- {
		if t.stack[i] == sp {
			at = i
			break
		}
	}
	if at < 0 {
		return
	}
	now := time.Since(t.t0)
	for i := len(t.stack) - 1; i >= at; i-- {
		s := t.stack[i]
		if !s.ended {
			s.Duration = now - s.Start
			s.ended = true
		}
	}
	t.stack = t.stack[:at]
}

// Finish closes every open span including the root, fixing the trace's
// total duration. Idempotent.
func (t *Trace) Finish() {
	now := time.Since(t.t0)
	for i := len(t.stack) - 1; i >= 0; i-- {
		s := t.stack[i]
		if !s.ended {
			s.Duration = now - s.Start
			s.ended = true
		}
	}
	t.stack = t.stack[:1]
}

// SpanSelf pairs a span name with its self time, for top-N reports.
type SpanSelf struct {
	Name   string        `json:"name"`
	SelfMs float64       `json:"self_ms"`
	Self   time.Duration `json:"-"`
}

// TopSelf returns the n spans with the largest self time, largest
// first, ties broken by depth-first position (deterministic). The root
// span is included like any other.
func (t *Trace) TopSelf(n int) []SpanSelf {
	type ent struct {
		s    *Span
		self time.Duration
		pos  int
	}
	var all []ent
	t.root.Walk(func(sp *Span, _ int) {
		all = append(all, ent{s: sp, self: sp.SelfTime(), pos: len(all)})
	})
	sort.SliceStable(all, func(i, j int) bool { return all[i].self > all[j].self })
	if n > len(all) {
		n = len(all)
	}
	out := make([]SpanSelf, 0, n)
	for _, e := range all[:n] {
		out = append(out, SpanSelf{
			Name:   e.s.Name,
			Self:   e.self,
			SelfMs: float64(e.self) / float64(time.Millisecond),
		})
	}
	return out
}
