package rdf

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// ReadNTriples parses on a goroutine of its own and hands batches of
// readBatch triples to the caller. These tests hold it to the serial
// read it replaced: document order, line numbers, stopping on the
// callback's error, and no read of the input once it has returned.
//
// Mutants, each applied alone to ntriples.go in a scratch copy, and
// each failing one of these tests:
//   - ReadNTriples draining the parser's batches on another goroutine
//     instead of waiting for it to exit;
//   - the parser ignoring stop and reading on to the end;
//   - a parse error dropping the batch parsed above the bad line.

// batchesDoc is an N-Triples document several batches long, with
// comments and blank lines among the triples; line i (from 1) of a
// triple line names i in its subject.
func batchesDoc(triples int) string {
	var b strings.Builder
	for i := 1; triples > 0; i++ {
		switch i % 7 {
		case 3:
			b.WriteString("# comment\n")
		case 5:
			b.WriteString("   \n")
		default:
			fmt.Fprintf(&b, "<http://ex/line%d> <http://ex/p%d> \"v\\t%d\"@en .\n", i, i%3, i%11)
			triples--
		}
	}
	return b.String()
}

// serialParse is the reference: one line at a time, in order.
func serialParse(t *testing.T, doc string) []Triple {
	var out []Triple
	for _, line := range strings.Split(doc, "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tr, err := ParseTripleLine(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

func TestReadNTriplesKeepsDocumentOrder(t *testing.T) {
	doc := batchesDoc(4*readBatch + 17)
	var got []Triple
	if err := ReadNTriples(strings.NewReader(doc), func(tr Triple) error {
		got = append(got, tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := serialParse(t, doc); !slices.Equal(got, want) {
		t.Fatalf("read %d triples, the serial parse %d, or in another order", len(got), len(want))
	}
}

func TestReadNTriplesErrorKeepsLineNumber(t *testing.T) {
	doc := batchesDoc(2*readBatch + 40)
	lines := strings.Split(doc, "\n")
	bad := 2*readBatch + 30 // a triple line past the first two batches
	for strings.HasPrefix(lines[bad-1], "#") || strings.TrimSpace(lines[bad-1]) == "" {
		bad++
	}
	lines[bad-1] = "<http://ex/s> <http://ex/p> ."
	doc = strings.Join(lines, "\n")
	var got []Triple
	err := ReadNTriples(strings.NewReader(doc), func(tr Triple) error {
		got = append(got, tr)
		return nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("line %d: ", bad)) {
		t.Fatalf("err = %v, want the error of line %d", err, bad)
	}
	if want := serialParse(t, strings.Join(lines[:bad-1], "\n")); !slices.Equal(got, want) {
		t.Fatalf("the callback saw %d triples before the bad line, want the %d above it", len(got), len(want))
	}
}

// lateReader serves doc 97 bytes per Read, so the parser is mid-batch
// when the callback fails, and fails the test on a Read once closed is
// set.
type lateReader struct {
	t      *testing.T
	doc    string
	closed atomic.Bool
}

func (r *lateReader) Read(p []byte) (int, error) {
	if r.closed.Load() {
		r.t.Error("the input was read after ReadNTriples returned")
	}
	if r.doc == "" {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 97)], r.doc)
	r.doc = r.doc[n:]
	return n, nil
}

func TestReadNTriplesStopsOnCallbackError(t *testing.T) {
	stop := errors.New("stop")
	for _, after := range []int{1, readBatch, readBatch + 1, 3 * readBatch} {
		r := &lateReader{t: t, doc: batchesDoc(8 * readBatch)}
		seen := 0
		err := ReadNTriples(r, func(Triple) error {
			if seen++; seen == after {
				return stop
			}
			return nil
		})
		r.closed.Store(true)
		if err != stop || seen != after {
			t.Fatalf("stop after %d: got %v after %d triples, want the callback's own error", after, err, seen)
		}
		time.Sleep(10 * time.Millisecond) // room for a parser left running to read
		if r.doc == "" {
			t.Fatalf("stop after %d: the whole document was read", after)
		}
	}
}
