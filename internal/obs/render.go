package obs

import (
	"strconv"
	"strings"
	"time"
)

// The two EXPLAIN ANALYZE renderings of a finished trace: a JSON
// document for programmatic consumers and an indented text tree for
// humans. Both are hand-rolled over the ordered Attr slices so two
// identical runs render byte-identical output (encoding/json over a
// map would shuffle attribute keys).

// JSON renders the trace as a JSON document:
//
//	{"name":...,"start_us":...,"duration_us":...,"self_us":...,
//	 "attrs":{...},"children":[...]}
func (t *Trace) JSON() []byte {
	buf := make([]byte, 0, 1024)
	return appendSpanJSON(buf, t.root)
}

func appendSpanJSON(buf []byte, s *Span) []byte {
	buf = append(buf, `{"name":`...)
	buf = AppendJSONString(buf, s.Name)
	buf = append(buf, `,"start_us":`...)
	buf = strconv.AppendInt(buf, s.Start.Microseconds(), 10)
	buf = append(buf, `,"duration_us":`...)
	buf = strconv.AppendInt(buf, s.Duration.Microseconds(), 10)
	buf = append(buf, `,"self_us":`...)
	buf = strconv.AppendInt(buf, s.SelfTime().Microseconds(), 10)
	if len(s.Attrs) > 0 {
		buf = append(buf, `,"attrs":{`...)
		for i, a := range s.Attrs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = AppendJSONString(buf, a.Key)
			buf = append(buf, ':')
			if a.IsStr {
				buf = AppendJSONString(buf, a.Str)
			} else {
				buf = strconv.AppendInt(buf, a.Int, 10)
			}
		}
		buf = append(buf, '}')
	}
	if len(s.Children) > 0 {
		buf = append(buf, `,"children":[`...)
		for i, c := range s.Children {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendSpanJSON(buf, c)
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// jsonClean[c] reports that byte c passes through a JSON string literal
// unescaped: everything but the control bytes, '"' and '\\'.
var jsonClean = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// AppendJSONString appends s as a JSON string literal (quoted and
// escaped) to buf: '"' and '\\' backslashed, '\n', '\r' and '\t' named,
// other control bytes as \u00XX. UTF-8 passes through unescaped, which
// JSON allows. Runs of bytes that need no escaping are appended whole:
// result terms are almost entirely such runs, and streaming them is
// the hottest use.
func AppendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if jsonClean[c] {
			continue
		}
		buf = append(buf, s[start:i]...)
		start = i + 1
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// Text renders the trace as an indented tree, one span per line:
//
//	query                              12.345ms
//	  bgp                               5.002ms patterns=2 join_order=1,0
//	    seed_scan                       2.000ms est=100 rows=100
func (t *Trace) Text() string {
	var b strings.Builder
	t.root.Walk(func(sp *Span, depth int) {
		name := strings.Repeat("  ", depth) + sp.Name
		b.WriteString(name)
		if pad := 34 - len(name); pad > 0 {
			b.WriteString(strings.Repeat(" ", pad))
		} else {
			b.WriteByte(' ')
		}
		b.WriteString(formatMs(sp.Duration))
		for _, a := range sp.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			b.WriteByte('=')
			if a.IsStr {
				b.WriteString(a.Str)
			} else {
				b.WriteString(strconv.FormatInt(a.Int, 10))
			}
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// formatMs renders a duration as right-aligned milliseconds with
// microsecond precision ("   12.345ms").
func formatMs(d time.Duration) string {
	ms := strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
	if pad := 9 - len(ms); pad > 0 {
		ms = strings.Repeat(" ", pad) + ms
	}
	return ms + "ms"
}
