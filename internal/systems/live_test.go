package systems

import (
	"runtime"
	"testing"

	"repro/internal/spark"
	"repro/internal/workload"
)

// TestLiveBytesPerTriple logs what each loaded engine of one
// assessment holds: the heap still in use after a collection grows by
// that much when its Load returns, in bytes per distinct triple of the
// benchmark-scale dataset. The engines load in AllEngines order, so the
// first line also carries the dataset they share. It measures; it
// asserts nothing.
func TestLiveBytesPerTriple(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale measurement")
	}
	conf := spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 1000, MaxConcurrency: 8}
	triples := workload.GenerateUniversity(workload.MediumUniversity())
	n := float64(len(triples))
	engines := AllEngines(conf)
	start := liveHeap()
	prev := start
	for _, e := range engines {
		if err := e.Load(triples); err != nil {
			t.Fatalf("%s: %v", e.Info().Name, err)
		}
		now := liveHeap()
		t.Logf("%-12s %6.0f B/triple", e.Info().Name, (float64(now)-float64(prev))/n)
		prev = now
	}
	t.Logf("%-12s %6.0f B/triple, %.1f MB", "all nine", (float64(prev)-float64(start))/n, (float64(prev)-float64(start))/(1<<20))
	runtime.KeepAlive(engines)
}

// liveHeap returns the bytes of heap in use after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
