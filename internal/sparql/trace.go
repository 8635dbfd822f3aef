package sparql

import (
	"strconv"

	"repro/internal/obs"
)

// Execution tracing (internal/obs): WithTrace arms a run to record a
// span tree of its stages — each BGP's seed scan and per-pattern match
// passes, every hash join and OPTIONAL, filter passes, the modifier
// pipeline, and (on sharded runs) every scatter, pushdown, and gather —
// as children of the trace's current span. The integration contract:
//
//   - Disarmed runs pay one nil check per site: env.trace stays nil
//     and every span helper returns immediately. The allocation pins
//     are untouched.
//   - Spans are driver-only. Shard worker goroutines never touch the
//     tree; the driver stamps the run-wide counters onto the root after
//     the run quiesces (finishRoot).
//   - Tracing observes, never steers: armed and disarmed runs take
//     identical code paths and produce byte-identical results.
//
// The run ends child spans it opened but never finishes the trace
// itself — the caller owns the root (and may wrap serialization or
// other stages around the run) and calls (*obs.Trace).Finish.

// WithTrace arms the run to record its execution into t: spans are
// added under t's current span. The caller must not touch t until the
// run returns, and remains responsible for t.Finish().
func WithTrace(t *obs.Trace) RunOption {
	return func(o *runOpts) { o.trace = t }
}

// span opens a child of the trace's current span, returning nil when
// the run is disarmed. Driver-goroutine only.
func (env *evalEnv) span(name string) *obs.Span {
	if env.trace == nil {
		return nil
	}
	return env.trace.Begin(name)
}

// endSpan closes a span opened by env.span; a nil span (disarmed run)
// is a no-op. Open descendants left by early-exit paths close with it.
func (env *evalEnv) endSpan(sp *obs.Span) {
	if sp != nil {
		env.trace.End(sp)
	}
}

// noteInt sets an integer attribute on the trace's current span.
// Driver-goroutine only.
func (env *evalEnv) noteInt(key string, v int64) {
	if env.trace != nil {
		env.trace.Current().SetInt(key, v)
	}
}

// noteStr sets a string attribute on the trace's current span.
// Driver-goroutine only.
func (env *evalEnv) noteStr(key, v string) {
	if env.trace != nil {
		env.trace.Current().SetStr(key, v)
	}
}

// planOrder renders a compiled plan's chosen join order as the
// source-position sequence of its patterns ("2,0,1": the third written
// pattern was picked as the seed).
func planOrder(cps []cPattern) string {
	buf := make([]byte, 0, 2*len(cps))
	for i, cp := range cps {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(cp.src), 10)
	}
	return string(buf)
}

// finishRoot stamps the run-wide counters onto the trace's root span
// after the run quiesced: the resolved fan-out width, fault-handling
// counters, and charged bytes.
func (env *evalEnv) finishRoot() {
	root := env.trace.Root()
	root.SetInt("parallelism", int64(env.width()))
	if env.ftally != nil {
		t := env.ftally
		if n := t.attempts.Load(); n > 0 {
			root.SetInt("shard_attempts", n)
		}
		if n := t.retries.Load(); n > 0 {
			root.SetInt("retries", n)
		}
		if n := t.failovers.Load(); n > 0 {
			root.SetInt("failovers", n)
		}
		if n := t.panics.Load(); n > 0 {
			root.SetInt("recovered_panics", n)
		}
	}
	if env.mem != nil {
		root.SetInt("bytes_charged", env.mem.used.Load())
	}
}
