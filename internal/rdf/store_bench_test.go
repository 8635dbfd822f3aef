package rdf_test

import (
	"runtime"
	"testing"

	"repro/internal/rdf"
	"repro/internal/workload"
)

// buildStore is what a serving boot builds and keeps: the id-space
// graph, its flat encoded view, and the statistics — no term-space
// accessor is touched.
func buildStore(triples []rdf.Triple) *rdf.Graph {
	g := rdf.NewGraph(triples)
	g.Encoded()
	g.Stats()
	return g
}

// liveBytesPerTriple returns the heap the store of triples keeps alive,
// per distinct triple: the HeapAlloc delta across the build, each side
// read after two collections so garbage and floating sweeps are out.
func liveBytesPerTriple(triples []rdf.Triple) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := buildStore(triples)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := g.Len()
	runtime.KeepAlive(g)
	runtime.KeepAlive(triples) // the input must not be freed inside the window
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
}

// storeBytesPerTriplePin bounds the live footprint of graph + view +
// stats. The term-space design this replaced measured ≈ 1,030 here;
// the id-space store measures ≈ 150. CI enforces the same bound on
// BenchmarkStoreBuild's B/triple.
const storeBytesPerTriplePin = 256

func TestStoreFootprintPin(t *testing.T) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	if got := liveBytesPerTriple(triples); got > storeBytesPerTriplePin {
		t.Fatalf("store keeps %.0f B/triple live, pin is %d", got, storeBytesPerTriplePin)
	}
}

func BenchmarkStoreBuild(b *testing.B) {
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	n := buildStore(triples).Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildStore(triples)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/triple")
	b.ReportMetric(liveBytesPerTriple(triples), "B/triple")
}
