package obs

import (
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"time"
)

// SlowQueryEntry is one slow-query log record. The query text itself
// is never logged — only its FNV-64a hash, so the log stays
// size-bounded and query text (which may embed data) stays out of log
// pipelines; the hash still correlates recurrences of the same query.
type SlowQueryEntry struct {
	RequestID string
	QueryHash string
	// PlanFingerprint is the normalized query-shape hash
	// (sparql.FingerprintQuery); it joins slow entries against the
	// workload shape registry, where QueryHash identifies only the
	// exact text.
	PlanFingerprint string
	Route           string
	Shards          int
	ShardsTouched   int
	DurationMs      float64
	TopSpans        []SpanSelf
}

// SlowQueryLogger writes slow-query records as JSON lines to one
// writer. It is safe for concurrent use: each record is rendered to a
// private buffer and written under a mutex, so lines never interleave.
type SlowQueryLogger struct {
	mu sync.Mutex
	w  io.Writer
}

// NewSlowQueryLogger wraps w (typically a log file or stderr).
func NewSlowQueryLogger(w io.Writer) *SlowQueryLogger {
	return &SlowQueryLogger{w: w}
}

// QueryHash returns the FNV-64a hash of a query text as fixed-width
// hex — the log's stand-in for the text itself.
func QueryHash(text string) string {
	h := fnv.New64a()
	io.WriteString(h, text)
	const hex = "0123456789abcdef"
	sum := h.Sum64()
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = hex[sum&0xf]
		sum >>= 4
	}
	return string(out)
}

// Log writes one record as a single JSON line.
func (l *SlowQueryLogger) Log(e SlowQueryEntry) error {
	buf := make([]byte, 0, 256)
	buf = append(buf, `{"ts":`...)
	buf = AppendJSONString(buf, time.Now().UTC().Format(time.RFC3339Nano))
	buf = append(buf, `,"request_id":`...)
	buf = AppendJSONString(buf, e.RequestID)
	buf = append(buf, `,"query_hash":`...)
	buf = AppendJSONString(buf, e.QueryHash)
	buf = append(buf, `,"plan_fingerprint":`...)
	buf = AppendJSONString(buf, e.PlanFingerprint)
	buf = append(buf, `,"route":`...)
	buf = AppendJSONString(buf, e.Route)
	buf = append(buf, `,"shards":`...)
	buf = strconv.AppendInt(buf, int64(e.Shards), 10)
	buf = append(buf, `,"shards_touched":`...)
	buf = strconv.AppendInt(buf, int64(e.ShardsTouched), 10)
	buf = append(buf, `,"duration_ms":`...)
	buf = strconv.AppendFloat(buf, e.DurationMs, 'f', 3, 64)
	buf = append(buf, `,"top_spans":[`...)
	for i, sp := range e.TopSpans {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":`...)
		buf = AppendJSONString(buf, sp.Name)
		buf = append(buf, `,"self_ms":`...)
		buf = strconv.AppendFloat(buf, sp.SelfMs, 'f', 3, 64)
		buf = append(buf, '}')
	}
	buf = append(buf, ']', '}', '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.w.Write(buf)
	return err
}
