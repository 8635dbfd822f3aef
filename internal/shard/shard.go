// Package shard turns the partitioning strategies of internal/partition
// from an offline scoring harness into a live execution substrate: a
// ShardedGraph splits one dataset into N id-space shards
// (rdf.EncodedViews) under any partition.Strategy around a single
// global dictionary, and prepared queries fan out over the shards
// through the distributed executor in internal/sparql (RunSharded) —
// the survey's central claim, that placement decides whether a query
// runs shard-local or pays cross-partition joins, made operational.
//
// The sharding contract:
//
//   - Shared dictionary: the dataset is encoded once through one
//     rdf.Dictionary as it streams in (Read), repeats dropped and
//     placement computed in id space, so no []rdf.Triple of the dataset
//     is built, rdf.TermIDs are globally consistent, and all
//     cross-shard merging, joining, and deduplication stays in id
//     space.
//   - Determinism: shards preserve the dataset's insertion order and
//     every shard view stores each triple's global position beside it,
//     so scatter-gather merges are deterministic and
//     sparql.Prepared.RunSharded over Set() is byte-identical — rows
//     and order — to sparql.Prepared.Run over the same data, at any
//     shard count and any parallelism.
//   - Pushdown soundness: a single-BGP query whose patterns all share
//     one subject variable pushes down whole to each shard exactly
//     when the placement co-located every subject's triples
//     (SubjectColocated, verified at build time rather than assumed
//     from the strategy's name).
//   - Immutability: a built ShardedGraph is read-only; the shards
//     (their position columns included) and the dictionary must not be
//     mutated. This is what makes the ShardSet plan memo and unlimited
//     concurrent runs safe.
package shard

import (
	"context"
	"fmt"
	"math"

	"repro/internal/partition"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// ShardedGraph is one dataset split into N shards around a shared
// dictionary, ready for distributed query execution. It lives entirely
// in id space: each shard is one rdf.EncodedView built straight from
// its bucket of encoded triples — no term-space graph is built or
// kept. Build it once, then serve any number of concurrent queries.
type ShardedGraph struct {
	strategy string
	dict     *rdf.Dictionary
	set      *sparql.ShardSet
	sizes    []int
}

// maxTriples is the most triples a sharded dataset holds: a triple's
// global position is an int32 in its shard view's position column
// (rdf.NewPositionedView). A variable only so a test can lower it to
// reach the boundary.
var maxTriples = math.MaxInt32

// Read builds the sharded store in one pass over a stream: read hands
// every triple of the dataset to add (rdf.ReadNTriples fits), and each
// triple is encoded through one shared dictionary as it arrives, a
// repeat dropped in id space (RDF graphs are sets), so the dataset
// never exists as a []rdf.Triple. The strategy then places the distinct
// triples in id space, each shard keeps its triples in dataset order,
// and the whole-dataset statistics are computed so the distributed
// planner reproduces the single-graph plan. Subject co-location — the
// pushdown soundness condition — is verified from the actual
// placement, not assumed from the strategy. A dataset beyond the
// store's fixed widths fails with an *rdf.CapacityError; an error from
// read or add stops the build and is returned.
//
// Each shard gets replicas routing identities: in-process stand-ins
// for the copies a distributed deployment would place on R nodes. A
// replica is not a copy — each shard's view is built once, and every
// replica of it scans that view — so replica failover can never change
// one row of query output. Faults, circuit breakers, health scores and
// hedges are keyed by (shard, replica), and the distributed executor
// routes each per-shard op to a healthy replica (retry with capped
// backoff; see internal/sparql); a query fails only when every replica
// of a needed shard is down.
func Read(read func(add func(rdf.Triple) error) error, strat partition.Strategy, n, replicas int) (*ShardedGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if replicas < 1 {
		return nil, fmt.Errorf("shard: need at least 1 replica, got %d", replicas)
	}
	dict, enc, err := rdf.EncodeDistinct(read, maxTriples)
	if err != nil {
		return nil, err
	}
	return buildPlaced(dict, enc, strat.Place(dict, enc, n), n, replicas, strat.Name())
}

// BuildReplicated is Read over a slice.
func BuildReplicated(triples []rdf.Triple, strat partition.Strategy, n, replicas int) (*ShardedGraph, error) {
	return Read(each(triples), strat, n, replicas)
}

// BuildReplicatedByName is BuildReplicated with the strategy resolved
// from the partition-strategy registry.
func BuildReplicatedByName(triples []rdf.Triple, name string, n, replicas int) (*ShardedGraph, error) {
	strat, err := partition.ByName(name)
	if err != nil {
		return nil, err
	}
	return BuildReplicated(triples, strat, n, replicas)
}

// each is the Read stream of a slice.
func each(triples []rdf.Triple) func(func(rdf.Triple) error) error {
	return func(add func(rdf.Triple) error) error {
		for _, t := range triples {
			if err := add(t); err != nil {
				return err
			}
		}
		return nil
	}
}

// buildPlaced is the build body behind Read: enc is the distinct
// dataset encoded through dict, place its placement, and replicas >= 1
// the number of routing identities per shard.
func buildPlaced(dict *rdf.Dictionary, enc []rdf.EncodedTriple, place []int, n, replicas int, strategyName string) (*ShardedGraph, error) {
	if len(place) != len(enc) {
		return nil, fmt.Errorf("shard: strategy %s placed %d of %d triples", strategyName, len(place), len(enc))
	}

	// Verify subject co-location from the placement itself.
	subjShard := make([]int32, dict.Len())
	for i := range subjShard {
		subjShard[i] = -1
	}
	coloc := true
	sizes := make([]int, n)
	for i, e := range enc {
		p := place[i]
		if p < 0 || p >= n {
			return nil, fmt.Errorf("shard: strategy %s placed triple %d on partition %d of %d", strategyName, i, p, n)
		}
		if s := subjShard[e.S]; s < 0 {
			subjShard[e.S] = int32(p)
		} else if int(s) != p {
			coloc = false
		}
		sizes[p]++
	}
	// Each bucket keeps dataset order, so its global positions ascend.
	buckets := make([][]rdf.EncodedTriple, n)
	positions := make([][]int32, n)
	for s := range buckets {
		buckets[s] = make([]rdf.EncodedTriple, 0, sizes[s])
		positions[s] = make([]int32, 0, sizes[s])
	}
	for i, e := range enc {
		buckets[place[i]] = append(buckets[place[i]], e)
		positions[place[i]] = append(positions[place[i]], int32(i))
	}

	views := make([]*rdf.EncodedView, n)
	for s, bucket := range buckets {
		v, err := rdf.NewPositionedView(dict, bucket, positions[s])
		if err != nil {
			return nil, err
		}
		views[s] = v
	}
	sg := &ShardedGraph{
		strategy: strategyName,
		dict:     dict,
		sizes:    sizes,
		set: &sparql.ShardSet{
			Dict:             dict,
			Views:            views,
			Stats:            rdf.ComputeEncodedStats(dict, enc),
			SubjectColocated: coloc,
			Replicas:         replicas,
		},
	}
	if replicas > 1 {
		sg.set.Health = sparql.NewReplicaHealth(n, replicas)
	}
	return sg, nil
}

// NumShards returns the shard count.
func (sg *ShardedGraph) NumShards() int { return len(sg.sizes) }

// Replicas returns the number of replicas of each shard (1 when built
// without replication).
func (sg *ShardedGraph) Replicas() int { return sg.set.Replicas }

// Strategy returns the placing strategy's name.
func (sg *ShardedGraph) Strategy() string { return sg.strategy }

// Len returns the total number of distinct triples across shards.
func (sg *ShardedGraph) Len() int {
	total := 0
	for _, n := range sg.sizes {
		total += n
	}
	return total
}

// ShardSizes returns the per-shard triple counts (read-only).
func (sg *ShardedGraph) ShardSizes() []int { return sg.sizes }

// Dict returns the shared dictionary.
func (sg *ShardedGraph) Dict() *rdf.Dictionary { return sg.dict }

// Set returns the evaluator-facing shard set (read-only).
func (sg *ShardedGraph) Set() *sparql.ShardSet { return sg.set }

// SubjectColocated reports whether the placement mapped every subject's
// triples to a single shard.
func (sg *ShardedGraph) SubjectColocated() bool { return sg.set.SubjectColocated }

// Prepared is a query compiled for repeated distributed execution over
// one ShardedGraph. Like sparql.Prepared it is goroutine-safe.
type Prepared struct {
	prep *sparql.Prepared
	sg   *ShardedGraph
}

// PrepareQuery compiles an already-parsed query (which must not be
// mutated afterwards).
func (sg *ShardedGraph) PrepareQuery(q *sparql.Query) *Prepared {
	return &Prepared{prep: sparql.PrepareQuery(q), sg: sg}
}

// Run evaluates the query across the shards: sparql's RunSharded over
// Set(), byte-identical — rows and order — to a single-graph run over
// the same dataset.
func (p *Prepared) Run(ctx context.Context, opts ...sparql.RunOption) (*sparql.Results, error) {
	return p.prep.RunSharded(ctx, p.sg.set, opts...)
}
