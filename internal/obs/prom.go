package obs

import (
	"bytes"
	"strconv"
)

// MetricsWriter renders metric families in the Prometheus text
// exposition format (version 0.0.4) without importing a client
// library: each family is a # HELP line, a # TYPE line, and one or
// more samples. Histograms take the server's non-cumulative bucket
// counts (one count per bound plus a final overflow bucket) and emit
// the cumulative le-labeled series the format requires, capped by the
// +Inf bucket, _sum, and _count.
type MetricsWriter struct {
	buf bytes.Buffer
}

// Label is one name="value" sample label.
type Label struct {
	Name, Value string
}

func (w *MetricsWriter) header(name, help, typ string) {
	w.buf.WriteString("# HELP ")
	w.buf.WriteString(name)
	w.buf.WriteByte(' ')
	w.buf.WriteString(escapeHelp(help))
	w.buf.WriteString("\n# TYPE ")
	w.buf.WriteString(name)
	w.buf.WriteByte(' ')
	w.buf.WriteString(typ)
	w.buf.WriteByte('\n')
}

func (w *MetricsWriter) sample(name string, labels []Label, v float64) {
	w.buf.WriteString(name)
	if len(labels) > 0 {
		w.buf.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			w.buf.WriteString(l.Name)
			w.buf.WriteString(`="`)
			w.buf.WriteString(escapeLabel(l.Value))
			w.buf.WriteByte('"')
		}
		w.buf.WriteByte('}')
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(formatValue(v))
	w.buf.WriteByte('\n')
}

// Counter emits one cumulative counter family with a single sample.
func (w *MetricsWriter) Counter(name, help string, v float64) {
	w.header(name, help, "counter")
	w.sample(name, nil, v)
}

// Sample is one labeled observation of a multi-sample family.
type Sample struct {
	Labels []Label
	Value  float64
}

// CounterVec emits one counter family with a sample per label set —
// the per-shape and per-replica workload series. An empty sample list
// emits the header only, which the format permits.
func (w *MetricsWriter) CounterVec(name, help string, samples []Sample) {
	w.header(name, help, "counter")
	for _, s := range samples {
		w.sample(name, s.Labels, s.Value)
	}
}

// GaugeVec emits one gauge family with a sample per label set (e.g.
// per-replica health scores).
func (w *MetricsWriter) GaugeVec(name, help string, samples []Sample) {
	w.header(name, help, "gauge")
	for _, s := range samples {
		w.sample(name, s.Labels, s.Value)
	}
}

// Histogram emits one histogram family. uppers are the bucket upper
// bounds; counts has len(uppers)+1 entries — the count observed in
// each bound's bucket plus the final overflow bucket — and sum is the
// total of all observations (in the same unit as the bounds). The
// emitted _bucket series is cumulative, as the format requires.
func (w *MetricsWriter) Histogram(name, help string, uppers []float64, counts []uint64, sum float64) {
	w.header(name, help, "histogram")
	cum := uint64(0)
	for i, ub := range uppers {
		if i < len(counts) {
			cum += counts[i]
		}
		w.sample(name+"_bucket", []Label{{"le", formatValue(ub)}}, float64(cum))
	}
	if len(counts) > len(uppers) {
		cum += counts[len(uppers)]
	}
	w.sample(name+"_bucket", []Label{{"le", "+Inf"}}, float64(cum))
	w.sample(name+"_sum", nil, sum)
	w.sample(name+"_count", nil, float64(cum))
}

// Bytes returns the rendered exposition body.
func (w *MetricsWriter) Bytes() []byte { return w.buf.Bytes() }

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip float ("1", "2.5", "1e+06").
func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// escapeLabel escapes a label value: backslash, quote, newline.
func escapeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
