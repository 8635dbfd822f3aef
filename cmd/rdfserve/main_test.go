package main

import (
	"strings"
	"testing"
)

// TestCheckReplicaFlags pins the startup refusals of the flags that
// need replicas: a chaos demo without -shards and -replicas > 1 would
// silently do nothing (or lose every query), so each is an error
// naming the flag, as is a replica index out of range.
func TestCheckReplicaFlags(t *testing.T) {
	const off = -1
	cases := []struct {
		name                  string
		shards, replicas      int
		failReplica, slowRepl int
		wantErr               string // "" means accepted
	}{
		{name: "unsharded defaults", replicas: 1, failReplica: off, slowRepl: off},
		{name: "replicated defaults", shards: 4, replicas: 2, failReplica: off, slowRepl: off},
		{name: "slow replica", shards: 3, replicas: 2, failReplica: off, slowRepl: 0},
		{name: "failed replica", shards: 3, replicas: 2, failReplica: 1, slowRepl: off},
		{name: "failed replica without replicas", shards: 4, replicas: 1, failReplica: 0, slowRepl: off,
			wantErr: "-chaos-fail-replica needs -shards > 0 and -replicas > 1"},
		{name: "failed replica out of range", shards: 4, replicas: 2, failReplica: 2, slowRepl: off,
			wantErr: "-chaos-fail-replica 2 out of range"},
		{name: "slow replica without shards", replicas: 2, failReplica: off, slowRepl: 0,
			wantErr: "-chaos-slow-replica needs -shards > 0 and -replicas > 1"},
		{name: "slow replica out of range", shards: 4, replicas: 2, failReplica: off, slowRepl: 3,
			wantErr: "-chaos-slow-replica 3 out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkReplicaFlags(c.shards, c.replicas, c.failReplica, c.slowRepl)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("accepted, want an error starting %q", c.wantErr)
			case c.wantErr != "" && !strings.HasPrefix(err.Error(), c.wantErr):
				t.Fatalf("error %q, want one starting %q", err, c.wantErr)
			}
		})
	}
}

// TestResolvePartition pins the -partition refusals, made before any
// data is read: a name the registry does not hold, and an explicitly
// set -partition without -shards, which would silently do nothing.
func TestResolvePartition(t *testing.T) {
	cases := []struct {
		name     string
		strategy string
		explicit bool
		shards   int
		wantErr  string // "" means accepted
	}{
		{name: "unsharded default", strategy: "hash-subject"},
		{name: "sharded default", strategy: "hash-subject", shards: 4},
		{name: "sharded explicit", strategy: "vertical", explicit: true, shards: 4},
		{name: "unknown strategy", strategy: "no-such-strategy", explicit: true, shards: 4,
			wantErr: "-partition needs a registered strategy"},
		{name: "explicit without shards", strategy: "vertical", explicit: true,
			wantErr: "-partition needs -shards > 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			strat, err := resolvePartition(c.strategy, c.explicit, c.shards)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case c.wantErr == "" && strat.Name() != c.strategy:
				t.Fatalf("resolved %q, want %q", strat.Name(), c.strategy)
			case c.wantErr != "" && err == nil:
				t.Fatalf("accepted, want an error starting %q", c.wantErr)
			case c.wantErr != "" && !strings.HasPrefix(err.Error(), c.wantErr):
				t.Fatalf("error %q, want one starting %q", err, c.wantErr)
			}
		})
	}
}
