//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// serverStats is the part of rdfserve's /stats document the bench
// reads. All counters are cumulative since boot; the per-stage means
// are over served queries, so mean × served recovers each stage's sum.
type serverStats struct {
	Served    uint64 `json:"served"`
	Failed    uint64 `json:"failed"`
	Timeouts  uint64 `json:"timeouts"`
	Rejected  uint64 `json:"rejected"`
	PlanCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"plan_cache"`
	Execution struct {
		ParallelQueries   uint64 `json:"parallel_queries"`
		MorselsDispatched uint64 `json:"morsels_dispatched"`
	} `json:"execution"`
	Latency struct {
		MeanMs float64 `json:"mean_ms"`
		ExecMs struct {
			MeanMs float64 `json:"mean_ms"`
		} `json:"exec_ms"`
		SerializeMs struct {
			MeanMs float64 `json:"mean_ms"`
		} `json:"serialize_ms"`
	} `json:"latency"`
	Resources struct {
		ShedQueries     uint64 `json:"shed_queries"`
		DegradedQueries uint64 `json:"degraded_queries"`
	} `json:"resources"`
	Faults struct {
		Attempts  uint64 `json:"attempts"`
		Retries   uint64 `json:"retries"`
		Failovers uint64 `json:"failovers"`
		Hedges    uint64 `json:"hedges"`
	} `json:"faults"`
	Sharding struct {
		PushdownQueries uint64 `json:"pushdown_queries"`
		ScatterQueries  uint64 `json:"scatter_queries"`
		ShardsTouched   uint64 `json:"shards_touched"`
		ShardsPruned    uint64 `json:"shards_pruned"`
	} `json:"sharding"`
}

func parseServerStats(raw []byte) (serverStats, error) {
	var s serverStats
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parsing /stats: %w", err)
	}
	return s, nil
}

func fetchServerStats(hc *http.Client, base string) (serverStats, error) {
	resp, err := hc.Get(base + "/stats")
	if err != nil {
		return serverStats{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return serverStats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serverStats{}, fmt.Errorf("/stats answered %d", resp.StatusCode)
	}
	return parseServerStats(raw)
}

// statsDelta turns two /stats snapshots into the server.* and the
// counter-based shard.* layer metrics of the interval between them.
func statsDelta(before, after serverStats) map[string]float64 {
	served := float64(after.Served - before.Served)
	// Stage means are cumulative; their sums are not. Subtract sums.
	stage := func(meanAfter, meanBefore float64) float64 {
		return ratio(meanAfter*float64(after.Served)-meanBefore*float64(before.Served), served)
	}
	e2e := stage(after.Latency.MeanMs, before.Latency.MeanMs)
	exec := stage(after.Latency.ExecMs.MeanMs, before.Latency.ExecMs.MeanMs)
	ser := stage(after.Latency.SerializeMs.MeanMs, before.Latency.SerializeMs.MeanMs)
	hits := float64(after.PlanCache.Hits - before.PlanCache.Hits)
	misses := float64(after.PlanCache.Misses - before.PlanCache.Misses)
	pushdown := float64(after.Sharding.PushdownQueries - before.Sharding.PushdownQueries)
	scatter := float64(after.Sharding.ScatterQueries - before.Sharding.ScatterQueries)
	return map[string]float64{
		"server.e2e_mean_ms":             e2e,
		"server.exec_mean_ms":            exec,
		"server.serialize_mean_ms":       ser,
		"server.overhead_mean_ms":        e2e - exec - ser,
		"server.plan_cache_hit_ratio":    ratio(hits, hits+misses),
		"server.morsels_per_query":       ratio(float64(after.Execution.MorselsDispatched-before.Execution.MorselsDispatched), served),
		"server.parallel_query_share":    ratio(float64(after.Execution.ParallelQueries-before.Execution.ParallelQueries), served),
		"server.shed_queries":            float64(after.Resources.ShedQueries - before.Resources.ShedQueries),
		"server.degraded_queries":        float64(after.Resources.DegradedQueries - before.Resources.DegradedQueries),
		"server.rejected":                float64(after.Rejected - before.Rejected),
		"server.timeouts":                float64(after.Timeouts - before.Timeouts),
		"shard.pushdown_share":           ratio(pushdown, pushdown+scatter),
		"shard.shards_touched_per_query": ratio(float64(after.Sharding.ShardsTouched-before.Sharding.ShardsTouched), served),
		"shard.shards_pruned_per_query":  ratio(float64(after.Sharding.ShardsPruned-before.Sharding.ShardsPruned), served),
		"shard.attempts_per_query":       ratio(float64(after.Faults.Attempts-before.Faults.Attempts), served),
		"shard.failovers":                float64(after.Faults.Failovers - before.Faults.Failovers),
		"shard.retries":                  float64(after.Faults.Retries - before.Faults.Retries),
		"shard.hedges":                   float64(after.Faults.Hedges - before.Faults.Hedges),
	}
}
