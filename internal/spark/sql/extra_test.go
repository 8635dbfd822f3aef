package sql

import (
	"testing"

	"repro/internal/spark"
)

func TestJoinErrors(t *testing.T) {
	ctx, _ := testSession(t)
	a := mustDF(t, ctx, Schema{"x"}, []Row{{1}})
	b := mustDF(t, ctx, Schema{"y"}, []Row{{1}})
	if _, err := a.Join(b, nil, JoinAuto); err == nil {
		t.Fatal("empty join columns accepted")
	}
	if _, err := a.Join(b, []string{"x"}, JoinAuto); err == nil {
		t.Fatal("join column missing on right accepted")
	}
	if _, err := a.Join(b, []string{"y"}, JoinAuto); err == nil {
		t.Fatal("join column missing on left accepted")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := Schema{"a", "b", "c"}
	if !s.Has("b") || s.Has("z") {
		t.Fatal("Has wrong")
	}
	shared := s.Shared(Schema{"c", "a"})
	if len(shared) != 2 || shared[0] != "a" {
		t.Fatalf("Shared = %v", shared)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT x FROM t WHERE a = 'unterminated",
		"SELECT x FROM t WHERE a ~ b",
	} {
		if _, err := ParseSQL(bad); err == nil {
			t.Errorf("ParseSQL(%q) succeeded", bad)
		}
	}
}

func TestBroadcastThresholdDrivesAutoJoin(t *testing.T) {
	// With a tiny threshold, JoinAuto must fall back to the partitioned
	// join (both sides too big to broadcast).
	ctx := spark.NewContext(spark.Config{Parallelism: 2, Executors: 2, BroadcastThreshold: 1, MaxConcurrency: 2})
	mk := func(n int) *DataFrame {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{"k" + string(rune('0'+i%3)), int64(i)}
		}
		df, err := NewDataFrame(ctx, Schema{"k", "v"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		return df
	}
	a, b := mk(50), mk(40)
	before := ctx.Snapshot()
	if _, err := a.Join(b, []string{"k"}, JoinAuto); err != nil {
		t.Fatal(err)
	}
	d := ctx.Snapshot().Diff(before)
	if d.ShuffleRecords == 0 {
		t.Fatal("auto join below threshold should have shuffled")
	}
}
