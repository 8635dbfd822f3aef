package sql

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/spark"
)

func testSession(t *testing.T) (*spark.Context, *Session) {
	t.Helper()
	ctx := spark.NewContext(spark.Config{Parallelism: 4, Executors: 2, BroadcastThreshold: 100, MaxConcurrency: 4})
	return ctx, NewSession(ctx)
}

func mustDF(t *testing.T, ctx *spark.Context, schema Schema, rows []Row) *DataFrame {
	t.Helper()
	df, err := NewDataFrame(ctx, schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func peopleDF(t *testing.T, ctx *spark.Context) *DataFrame {
	return mustDF(t, ctx, Schema{"name", "dept", "age"}, []Row{
		{"ann", "eng", int64(31)},
		{"bob", "sales", int64(25)},
		{"cid", "eng", int64(44)},
		{"dee", "hr", int64(25)},
	})
}

func deptDF(t *testing.T, ctx *spark.Context) *DataFrame {
	return mustDF(t, ctx, Schema{"dept", "floor"}, []Row{
		{"eng", int64(3)},
		{"sales", int64(1)},
	})
}

// sortedRows collects df's rows in a canonical order, for comparing
// result sets.
func sortedRows(df *DataFrame) []Row {
	rows := df.Collect()
	key := func(r Row) string { return fmt.Sprint(r...) }
	sort.Slice(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
	return rows
}

func TestDataFrameBasics(t *testing.T) {
	ctx, _ := testSession(t)
	df := peopleDF(t, ctx)
	if df.Count() != 4 {
		t.Fatalf("Count = %d", df.Count())
	}
	if got := df.Schema(); !reflect.DeepEqual(got, Schema{"name", "dept", "age"}) {
		t.Fatalf("Schema = %v", got)
	}
}

func TestNewDataFrameRejectsWideRows(t *testing.T) {
	ctx, _ := testSession(t)
	_, err := NewDataFrame(ctx, Schema{"a"}, []Row{{1, 2}})
	if err == nil {
		t.Fatal("expected error for too-wide row")
	}
}

func TestFilterAndSelect(t *testing.T) {
	ctx, _ := testSession(t)
	df := peopleDF(t, ctx)
	eng, err := df.Filter(Eq("dept", "eng"))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Count() != 2 {
		t.Fatalf("eng count = %d", eng.Count())
	}
	names, err := eng.Select("name AS who")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names.Schema(), Schema{"who"}) {
		t.Fatalf("schema = %v", names.Schema())
	}
	got := map[string]bool{}
	for _, r := range names.Collect() {
		got[r[0].(string)] = true
	}
	if !got["ann"] || !got["cid"] || len(got) != 2 {
		t.Fatalf("names = %v", got)
	}
}

func TestFilterUnknownColumn(t *testing.T) {
	ctx, _ := testSession(t)
	df := peopleDF(t, ctx)
	if _, err := df.Filter(Eq("nope", "x")); err == nil {
		t.Fatal("expected unknown-column error")
	}
	if _, err := df.Select("nope"); err == nil {
		t.Fatal("expected unknown-column error")
	}
}

func TestJoinNatural(t *testing.T) {
	ctx, _ := testSession(t)
	people := peopleDF(t, ctx)
	depts := deptDF(t, ctx)
	j, err := people.Join(depts, []string{"dept"}, JoinAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.Schema(), Schema{"name", "dept", "age", "floor"}) {
		t.Fatalf("join schema = %v", j.Schema())
	}
	if j.Count() != 3 { // dee's hr has no floor
		t.Fatalf("join count = %d", j.Count())
	}
}

func TestJoinStrategiesAgree(t *testing.T) {
	ctx, _ := testSession(t)
	people := peopleDF(t, ctx)
	depts := deptDF(t, ctx)
	p, err := people.Join(depts, []string{"dept"}, JoinPartitioned)
	if err != nil {
		t.Fatal(err)
	}
	b, err := people.Join(depts, []string{"dept"}, JoinBroadcast)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(p), sortedRows(b)) {
		t.Fatalf("strategy mismatch:\n%v\n%v", sortedRows(p), sortedRows(b))
	}
}

func TestCrossJoin(t *testing.T) {
	ctx, _ := testSession(t)
	a := mustDF(t, ctx, Schema{"x"}, []Row{{1}, {2}})
	b := mustDF(t, ctx, Schema{"y"}, []Row{{10}, {20}, {30}})
	if got := a.CrossJoin(b).Count(); got != 6 {
		t.Fatalf("cross join count = %d", got)
	}
}

func TestSQLEndToEnd(t *testing.T) {
	ctx, sess := testSession(t)
	sess.RegisterTable("people", peopleDF(t, ctx))
	sess.RegisterTable("depts", deptDF(t, ctx))

	df, err := sess.Query("SELECT name, floor FROM people JOIN depts WHERE dept = 'eng'")
	if err != nil {
		t.Fatal(err)
	}
	rows := sortedRows(df)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "ann" || rows[1][0] != "cid" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSQLSubquery(t *testing.T) {
	ctx, sess := testSession(t)
	sess.RegisterTable("people", peopleDF(t, ctx))
	sess.RegisterTable("depts", deptDF(t, ctx))
	df, err := sess.Query("SELECT name FROM (SELECT name, dept FROM people WHERE dept = 'sales') sub JOIN depts")
	if err != nil {
		t.Fatal(err)
	}
	rows := df.Collect()
	if len(rows) != 1 || rows[0][0] != "bob" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSQLWhereAndOr(t *testing.T) {
	ctx, sess := testSession(t)
	sess.RegisterTable("people", peopleDF(t, ctx))
	df, err := sess.Query("SELECT name FROM people WHERE (dept = 'eng' AND name > 'b') OR dept = 'hr'")
	if err != nil {
		t.Fatal(err)
	}
	rows := sortedRows(df)
	if len(rows) != 2 || rows[0][0] != "cid" || rows[1][0] != "dee" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSQLParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"SELECT",
		"SELECT x",
		"SELECT x FROM",
		"SELECT x FROM t WHERE",
		"SELECT x FROM t LIMIT x",
		"SELECT x FROM t trailing garbage (",
		"SELECT x, FROM t",
		"SELECT x FROM t WHERE x = 'unterminated",
		"SELECT COUNT(x FROM t",
		"SELECT x FROM t GROUP BY y",
	} {
		if _, err := ParseSQL(bad); err == nil {
			t.Errorf("ParseSQL(%q) succeeded, want error", bad)
		}
	}
}

func TestSQLUnknownTable(t *testing.T) {
	_, sess := testSession(t)
	if _, err := sess.Query("SELECT x FROM missing"); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("err = %v", err)
	}
}

func TestOptimizerBroadcastSelection(t *testing.T) {
	ctx, sess := testSession(t)
	big := make([]Row, 500)
	for i := range big {
		big[i] = Row{"k" + string(rune('0'+i%10)), int64(i)}
	}
	sess.RegisterTable("big", mustDF(t, ctx, Schema{"k", "v"}, big))
	sess.RegisterTable("small", mustDF(t, ctx, Schema{"k", "w"}, []Row{{"k1", int64(1)}}))
	plan, _ := ParseSQL("SELECT v, w FROM big JOIN small")
	opt := sess.Optimize(plan)
	if j := opt.(*Project).Input.(*JoinNode); j.Strategy != JoinBroadcast {
		t.Fatalf("join strategy = %v, want broadcast", j.Strategy)
	}
}

func TestOptimizerJoinReorderConnectivity(t *testing.T) {
	ctx, sess := testSession(t)
	// a(x,y) big, b(y,z) small, c(z,w) medium: optimal left-deep order
	// starts from b and must stay connected.
	mk := func(n int, s Schema) *DataFrame {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{"v" + string(rune('0'+i%7)), "v" + string(rune('0'+i%5))}
		}
		return mustDF(t, ctx, s, rows)
	}
	sess.RegisterTable("a", mk(300, Schema{"x", "y"}))
	sess.RegisterTable("b", mk(10, Schema{"y", "z"}))
	sess.RegisterTable("c", mk(100, Schema{"z", "w"}))
	plan, _ := ParseSQL("SELECT x, w FROM a JOIN b JOIN c")
	opt := sess.Optimize(plan)
	df, err := sess.Execute(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Correctness: compare against unoptimized execution.
	base, err := sess.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(df), sortedRows(base)) {
		t.Fatal("optimized plan changed the answer")
	}
}

func TestCompareSemantics(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), 2.0, 0},
		{"a", "b", -1},
		{"b", "a", 1},
		{true, false, 1},
		{false, false, 0},
		{int64(10), int64(9), 1},
	}
	for _, c := range cases {
		got, ok := Compare(c.a, c.b)
		if !ok || got != c.want {
			t.Errorf("Compare(%v,%v) = %d,%v want %d", c.a, c.b, got, ok, c.want)
		}
	}
	if _, ok := Compare(nil, nil); ok {
		t.Error("Compare(nil,nil) should not be comparable")
	}
}

func TestCompareNumbersProperty(t *testing.T) {
	f := func(a, b int32) bool {
		got, ok := Compare(int64(a), int64(b))
		if !ok {
			return false
		}
		switch {
		case a < b:
			return got < 0
		case a > b:
			return got > 0
		default:
			return got == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
