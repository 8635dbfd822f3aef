package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

type dataset struct {
	name    string
	triples []rdf.Triple
	queries []workload.NamedQuery
}

func datasets() []dataset {
	return []dataset{
		{"university", workload.GenerateUniversity(workload.SmallUniversity()), workload.UniversityQueries()},
		{"shop", workload.GenerateShop(workload.SmallShop()), workload.ShopQueries()},
	}
}

// mustEqualResults asserts got is byte-identical to want: same form,
// same variables, same rows in the same order.
func mustEqualResults(t *testing.T, want, got *sparql.Results) {
	t.Helper()
	if want.IsAsk != got.IsAsk || want.IsGraph != got.IsGraph {
		t.Fatalf("result form differs: want ask=%v graph=%v, got ask=%v graph=%v",
			want.IsAsk, want.IsGraph, got.IsAsk, got.IsGraph)
	}
	if want.IsAsk {
		if want.Ask != got.Ask {
			t.Fatalf("ASK answer differs: want %v, got %v", want.Ask, got.Ask)
		}
		return
	}
	if want.IsGraph {
		if len(want.Triples) != len(got.Triples) {
			t.Fatalf("graph size differs: want %d, got %d", len(want.Triples), len(got.Triples))
		}
		for i := range want.Triples {
			if want.Triples[i] != got.Triples[i] {
				t.Fatalf("graph triple %d differs:\nwant %v\ngot  %v", i, want.Triples[i], got.Triples[i])
			}
		}
		return
	}
	if len(want.Vars) != len(got.Vars) {
		t.Fatalf("vars differ: want %v, got %v", want.Vars, got.Vars)
	}
	for i := range want.Vars {
		if want.Vars[i] != got.Vars[i] {
			t.Fatalf("vars differ: want %v, got %v", want.Vars, got.Vars)
		}
	}
	w, g := want.OrderedCanonical(), got.OrderedCanonical()
	if len(w) != len(g) {
		t.Fatalf("row count differs: want %d, got %d", len(w), len(g))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("row %d differs:\nwant %s\ngot  %s", i, w[i], g[i])
		}
	}
}

// TestShardedRunMatchesSingleGraph is the cross-strategy determinism
// suite: sharded execution must be semantically transparent — for every
// workload query, under every strategy, at shard counts 1/3/8 and
// parallelism 1/4, (*Prepared).Run returns byte-identical rows and
// order to a single-graph sparql run.
func TestShardedRunMatchesSingleGraph(t *testing.T) {
	ctx := context.Background()
	strategies := []string{"hash-subject", "vertical", "semantic-class"}
	for _, ds := range datasets() {
		g := rdf.NewGraph(ds.triples)
		want := make(map[string]*sparql.Results, len(ds.queries))
		for _, nq := range ds.queries {
			prep, err := sparql.Prepare(nq.Text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prep.Run(ctx, g, sparql.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			want[nq.Name] = res
		}
		for _, strat := range strategies {
			for _, nShards := range []int{1, 3, 8} {
				sg, err := BuildReplicatedByName(ds.triples, strat, nShards, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/shards=%d/par=%d", ds.name, strat, nShards, par), func(t *testing.T) {
						for _, nq := range ds.queries {
							sp, err := sparql.Prepare(nq.Text)
							if err != nil {
								t.Fatal(err)
							}
							got, err := sp.RunSharded(ctx, sg.Set(), sparql.WithParallelism(par))
							if err != nil {
								t.Fatalf("%s: %v", nq.Name, err)
							}
							mustEqualResults(t, want[nq.Name], got)
						}
					})
				}
			}
		}
	}
}

// DESCRIBE is the third reader of the gather key (subjectTriples):
// under vertical placement one subject's triples sit on several shards,
// so a description is right only if they come back merged by global
// position — byte-equal to the single-graph run, whose description is
// the subject's triples in dataset order.
func TestShardedDescribeMatchesSingleGraph(t *testing.T) {
	ctx := context.Background()
	ds := datasets()[0]
	const ns = "http://repro.dev/lubm/"
	queries := []string{
		"DESCRIBE <" + ns + "univ0.dept0.stud0>",
		"DESCRIBE <" + ns + "univ1.dept0.prof0> <" + ns + "absent> <" + ns + "univ0.dept0>",
		"DESCRIBE ?prof WHERE { <" + ns + "univ0.dept0.stud0> <" + ns + "advisor> ?prof }",
		"DESCRIBE ?st ?dept WHERE { ?st <" + ns + "advisor> <" + ns + "univ0.dept0.prof0> . ?st <" + ns + "memberOf> ?dept }",
	}
	g := rdf.NewGraph(ds.triples)
	for _, nShards := range []int{1, 3, 8} {
		sg, err := BuildReplicatedByName(ds.triples, "vertical", nShards, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The premise: past one shard a described subject really is spread.
		id, _ := sg.Dict().Lookup(rdf.NewIRI(ns + "univ0.dept0.stud0"))
		holding := 0
		for _, v := range sg.Set().Views {
			if len(v.WithSubject(id)) > 0 {
				holding++
			}
		}
		if nShards > 1 && holding < 2 {
			t.Fatalf("vertical placement keeps stud0 on %d of %d shards; the merge is not exercised", holding, nShards)
		}
		for _, par := range []int{1, 4} {
			for _, text := range queries {
				prep, err := sparql.Prepare(text)
				if err != nil {
					t.Fatal(err)
				}
				want, err := prep.Run(ctx, g, sparql.WithParallelism(1))
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Triples) < 3 {
					t.Fatalf("%s: single graph describes only %d triples", text, len(want.Triples))
				}
				got, err := prep.RunSharded(ctx, sg.Set(), sparql.WithParallelism(par))
				if err != nil {
					t.Fatalf("shards=%d par=%d %s: %v", nShards, par, text, err)
				}
				mustEqualResults(t, want, got)
			}
		}
	}

	// §16.4: DESCRIBE takes a solution modifier, so the slice bounds the
	// targets. Of a, b and c, the subject with the largest k is c alone,
	// and its description is its three triples in dataset order — under
	// vertical placement its name sits on another shard than its ks.
	x := func(local string) rdf.Term { return rdf.NewIRI("http://x/" + local) }
	k := func(s, v string) rdf.Triple {
		return rdf.Triple{S: x(s), P: x("k"), O: rdf.NewTypedLiteral(v, rdf.XSDInteger)}
	}
	small := []rdf.Triple{k("a", "1"), k("b", "2"), k("c", "3"), rdf.Triple{S: x("c"), P: x("name"), O: rdf.NewLiteral("C")}, k("c", "4")}
	const sliced = `DESCRIBE ?s WHERE { ?s <http://x/k> ?x } ORDER BY DESC(?x) LIMIT 1`
	want := &sparql.Results{IsGraph: true, Triples: small[2:]}
	single, err := sparql.Prepare(sliced)
	if err != nil {
		t.Fatal(err)
	}
	got, err := single.Run(ctx, rdf.NewGraph(small))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, want, got)
	for _, strategy := range []string{"vertical", "hash-subject"} {
		sg, err := BuildReplicatedByName(small, strategy, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := sparql.Prepare(sliced)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prep.RunSharded(ctx, sg.Set(), sparql.WithParallelism(4))
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		mustEqualResults(t, want, got)
	}
}

// pointStar is a star on a constant subject — the bench's point lookup.
// Under subject co-location it is a subject star like any other: the
// whole BGP pushes down, and the covering prune leaves the one shard
// holding the subject.
var pointStar = fmt.Sprintf(`SELECT ?n ?a ?adv WHERE { <%[1]suniv0.dept0.stud0> <%[1]sname> ?n . <%[1]suniv0.dept0.stud0> <%[1]sage> ?a . <%[1]suniv0.dept0.stud0> <%[1]sadvisor> ?adv }`,
	workload.UnivNS)

// TestScatterOnlyMatchesPushdown pins that both routes compute the same
// answer: forcing scatter-gather on pushdown-eligible queries changes
// nothing but the route.
func TestScatterOnlyMatchesPushdown(t *testing.T) {
	ctx := context.Background()
	ds := datasets()[0]
	sg, err := BuildReplicatedByName(ds.triples, "hash-subject", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := append(ds.queries[:len(ds.queries):len(ds.queries)], workload.NamedQuery{Name: "point-star", Text: pointStar})
	for _, nq := range queries {
		sp, err := sparql.Prepare(nq.Text)
		if err != nil {
			t.Fatal(err)
		}
		var pushStats, scatStats sparql.ShardStats
		push, err := sp.RunSharded(ctx, sg.Set(), sparql.WithShardStats(&pushStats))
		if err != nil {
			t.Fatal(err)
		}
		scat, err := sp.RunSharded(ctx, sg.Set(), sparql.WithScatterOnly(), sparql.WithShardStats(&scatStats))
		if err != nil {
			t.Fatal(err)
		}
		if scatStats.Route != sparql.RouteScatter {
			t.Fatalf("%s: WithScatterOnly ran route %s", nq.Name, scatStats.Route)
		}
		mustEqualResults(t, push, scat)
		if nq.Name == "point-star" && (pushStats.Route != sparql.RoutePushdown || push.Len() != 1) {
			t.Fatalf("point-star: route %s with %d rows, want one row by pushdown", pushStats.Route, push.Len())
		}
	}
}

// TestRoutes pins the routing rules: subject-star BGPs push down under
// subject-co-located placement and scatter otherwise, and every run
// reports each of the four shards touched or pruned.
func TestRoutes(t *testing.T) {
	ctx := context.Background()
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	star := fmt.Sprintf(`SELECT ?s ?n ?e WHERE { ?s <%sname> ?n . ?s <%semailAddress> ?e }`,
		workload.UnivNS, workload.UnivNS)
	linear := fmt.Sprintf(`SELECT ?st ?dept WHERE { ?st <%sadvisor> ?prof . ?prof <%sworksFor> ?dept }`,
		workload.UnivNS, workload.UnivNS)

	hash, err := BuildReplicatedByName(triples, "hash-subject", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !hash.SubjectColocated() {
		t.Fatal("hash-subject placement must co-locate subjects")
	}
	vert, err := BuildReplicatedByName(triples, "vertical", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vert.SubjectColocated() {
		t.Fatal("vertical placement must not co-locate subjects")
	}

	cases := []struct {
		sg    *ShardedGraph
		text  string
		route sparql.ShardRoute
	}{
		{hash, star, sparql.RoutePushdown},
		{hash, pointStar, sparql.RoutePushdown},
		{hash, linear, sparql.RouteScatter},
		{vert, star, sparql.RouteScatter},
		{vert, pointStar, sparql.RouteScatter},
		{vert, linear, sparql.RouteScatter},
	}
	for i, c := range cases {
		sp, err := sparql.Prepare(c.text)
		if err != nil {
			t.Fatal(err)
		}
		var st sparql.ShardStats
		if _, err := sp.RunSharded(ctx, c.sg.Set(), sparql.WithShardStats(&st)); err != nil {
			t.Fatal(err)
		}
		if st.Route != c.route {
			t.Fatalf("case %d: executed route %s, want %s", i, st.Route, c.route)
		}
		if st.Shards != 4 || st.ShardsTouched < 1 || st.ShardsTouched+st.ShardsPruned != st.Shards {
			t.Fatalf("case %d: run touched/pruned %d/%d of %d shards", i, st.ShardsTouched, st.ShardsPruned, st.Shards)
		}
		if c.sg == hash && c.text == pointStar && st.ShardsTouched != 1 {
			t.Fatalf("case %d: a constant-subject star touched %d shards, want the subject's one", i, st.ShardsTouched)
		}
	}
}

// TestVerticalPruning pins the vertical/semantic payoff: under
// predicate placement, a single-predicate query touches only the
// shard(s) holding that predicate and the rest are pruned unscanned.
func TestVerticalPruning(t *testing.T) {
	ctx := context.Background()
	triples := workload.GenerateShop(workload.SmallShop())
	sg, err := BuildReplicatedByName(triples, "vertical", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sparql.Prepare(fmt.Sprintf(`SELECT ?p ?price WHERE { ?p <%sprice> ?price }`, workload.ShopNS))
	if err != nil {
		t.Fatal(err)
	}
	var st sparql.ShardStats
	res, err := sp.RunSharded(ctx, sg.Set(), sparql.WithShardStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("query must match")
	}
	if st.ShardsTouched != 1 {
		t.Fatalf("one predicate lives on one vertical shard; touched %d", st.ShardsTouched)
	}
	if st.ShardsPruned != 7 {
		t.Fatalf("want 7 shards pruned, got %d", st.ShardsPruned)
	}
}

// TestPreparedConcurrentShardedRuns pins goroutine safety of a shared
// sharded Prepared under the race detector.
func TestPreparedConcurrentShardedRuns(t *testing.T) {
	ctx := context.Background()
	ds := datasets()[0]
	sg, err := BuildReplicatedByName(ds.triples, "hash-subject", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sparql.Prepare(ds.queries[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sp.RunSharded(ctx, sg.Set())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(par int) {
			res, err := sp.RunSharded(ctx, sg.Set(), sparql.WithParallelism(par))
			if err == nil && res.Len() != ref.Len() {
				err = fmt.Errorf("row count %d, want %d", res.Len(), ref.Len())
			}
			done <- err
		}(1 + i%4)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedRunCancellation pins that a cancelled context aborts a
// sharded run with ctx.Err.
func TestShardedRunCancellation(t *testing.T) {
	ds := datasets()[0]
	sg, err := BuildReplicatedByName(ds.triples, "hash-subject", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sparql.Prepare(ds.queries[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sp.RunSharded(ctx, sg.Set()); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunSolutionsStreams pins the streaming face of a sharded run.
func TestRunSolutionsStreams(t *testing.T) {
	ctx := context.Background()
	ds := datasets()[0]
	sg, err := BuildReplicatedByName(ds.triples, "hash-subject", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph(ds.triples)
	for _, nq := range ds.queries {
		sp, err := sparql.Prepare(nq.Text)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := sp.RunShardedSolutions(ctx, sg.Set())
		if err != nil {
			t.Fatal(err)
		}
		prep, err := sparql.Prepare(nq.Text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prep.Run(ctx, g, sparql.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, want, sol.Results())
	}
}

func TestBuildValidation(t *testing.T) {
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	if _, err := BuildReplicated(triples, partition.HashSubject{}, 0, 1); err == nil {
		t.Fatal("0 shards must error")
	}
	if _, err := BuildReplicatedByName(triples, "no-such-strategy", 4, 1); err == nil {
		t.Fatal("unknown strategy must error")
	}
	sg, err := BuildReplicatedByName(triples, "hash-subject", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumShards() != 4 || sg.Strategy() != "hash-subject" {
		t.Fatalf("sg = %d shards, strategy %q", sg.NumShards(), sg.Strategy())
	}
	total := 0
	for _, n := range sg.ShardSizes() {
		total += n
	}
	if distinct := rdf.NewGraph(triples).Len(); total != sg.Len() || total != distinct {
		t.Fatalf("shard sizes sum %d, Len %d, dataset %d", total, sg.Len(), distinct)
	}
}

// TestShardedLimitPushdown pins the per-shard LIMIT truncation: bare
// LIMIT (and ASK) queries — the limitHint-eligible forms — must still
// return exactly the single-graph answer on both routes, even though
// each shard stops producing early.
func TestShardedLimitPushdown(t *testing.T) {
	ctx := context.Background()
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	g := rdf.NewGraph(triples)
	queries := []string{
		// Pushdown route (subject star), bare LIMIT + OFFSET.
		fmt.Sprintf(`SELECT ?s ?n WHERE { ?s <%sname> ?n } LIMIT 5`, workload.UnivNS),
		fmt.Sprintf(`SELECT ?s ?n ?a WHERE { ?s <%sname> ?n . ?s <%sage> ?a } LIMIT 7 OFFSET 3`,
			workload.UnivNS, workload.UnivNS),
		fmt.Sprintf(`ASK { ?s <%sage> ?a }`, workload.UnivNS),
		// Scatter route, several patterns: the hint reaches the last
		// pattern of the bind join, each shard stopping at its own prefix.
		fmt.Sprintf(`SELECT ?st ?prof ?d WHERE { ?st <%[1]sadvisor> ?prof . ?prof <%[1]sworksFor> ?d } LIMIT 5`, workload.UnivNS),
		fmt.Sprintf(`SELECT ?st ?prof ?d WHERE { ?st <%[1]sadvisor> ?prof . ?prof <%[1]sworksFor> ?d } LIMIT 7 OFFSET 3`, workload.UnivNS),
		fmt.Sprintf(`ASK { ?st <%[1]sadvisor> ?prof . ?prof <%[1]sworksFor> ?d }`, workload.UnivNS),
		// The last pattern fans out past the hint inside one input row:
		// a department has more members than LIMIT + OFFSET.
		fmt.Sprintf(`SELECT ?d ?s WHERE { ?d <%[1]ssubOrganizationOf> <%[1]suniv0> . ?s <%[1]smemberOf> ?d } LIMIT 3 OFFSET 1`, workload.UnivNS),
	}
	for _, strat := range []string{"hash-subject", "vertical"} {
		sg, err := BuildReplicatedByName(triples, strat, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range queries {
			prep, err := sparql.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := prep.Run(ctx, g, sparql.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			if want.Len() == 0 && !want.Ask {
				t.Fatalf("%s: the single graph answers nothing; the truncation is not exercised", text)
			}
			sp, err := sparql.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sp.RunSharded(ctx, sg.Set())
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, want, got)
		}
	}
}

// A replica is a routing identity, not a copy: a shard's view is built
// once, every replica index of the shard serves it — alone, with every
// other replica failed, each answers the single graph's rows — and
// faults and breakers stay keyed by replica: with replica 0 of every
// shard failed, only replica 0's breakers open while the answers stay
// byte-identical.
func TestReplicaViewsContentIdentical(t *testing.T) {
	ctx := context.Background()
	triples := workload.GenerateUniversity(workload.SmallUniversity())
	const shards, replicas = 3, 3
	sg, err := BuildReplicatedByName(triples, "hash-subject", shards, replicas)
	if err != nil {
		t.Fatal(err)
	}
	set := sg.Set()
	if set.Replicas != replicas || sg.Replicas() != replicas || len(set.Views) != shards {
		t.Fatalf("set holds %d views × %d replicas, want %d × %d", len(set.Views), set.Replicas, shards, replicas)
	}
	total := 0
	for s, v := range set.Views {
		if v.Len() != sg.ShardSizes()[s] {
			t.Fatalf("shard %d holds %d triples, ShardSizes says %d", s, v.Len(), sg.ShardSizes()[s])
		}
		total += v.Len()
	}
	if total != sg.Len() {
		t.Fatalf("shards hold %d triples, Len %d", total, sg.Len())
	}

	g := rdf.NewGraph(triples)
	queries := []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, // pushdown: one op per shard
		fmt.Sprintf(`SELECT ?st ?prof ?d WHERE { ?st <%[1]sadvisor> ?prof . ?prof <%[1]sworksFor> ?d }`, workload.UnivNS),
	}
	want := make([]*sparql.Results, len(queries))
	preps := make([]*sparql.Prepared, len(queries))
	for i, text := range queries {
		prep, err := sparql.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = prep.Run(ctx, g, sparql.WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
		preps[i] = prep
	}
	run := func(plan *fault.Plan) {
		t.Helper()
		for i, sp := range preps {
			got, err := sp.RunSharded(fault.With(ctx, plan), sg.Set(), sparql.WithParallelism(1))
			if err != nil {
				t.Fatalf("%s: %v", queries[i], err)
			}
			mustEqualResults(t, want[i], got)
		}
	}

	for only := 0; only < replicas; only++ {
		plan := fault.NewPlan(1)
		for s := 0; s < shards; s++ {
			for r := 0; r < replicas; r++ {
				if r != only {
					plan.FailAlways(fault.ReplicaPoint(s, r))
				}
			}
		}
		run(plan)
	}

	// A fresh set, its clock frozen so an open breaker reads open.
	sg, err = BuildReplicatedByName(triples, "hash-subject", shards, replicas)
	if err != nil {
		t.Fatal(err)
	}
	frozen := time.Unix(1000, 0)
	sg.Set().Health.SetClock(func() time.Time { return frozen })
	plan := fault.NewPlan(1)
	for s := 0; s < shards; s++ {
		plan.FailAlways(fault.ReplicaPoint(s, 0))
	}
	for i := 0; i < 4; i++ {
		run(plan)
	}
	for _, b := range sg.Set().Health.Snapshot() {
		if open := b.State != "closed"; open != (b.Replica == 0) {
			t.Fatalf("shard %d replica %d breaker %s with only replica 0 failed", b.Shard, b.Replica, b.State)
		}
	}
}

// Repeated statements are dropped in id space during the build: the
// sharded graph of a dataset with duplicates is the sharded graph of
// the distinct triples — same sizes, same placement verdict, same
// statistics, same global positions.
func TestBuildDedupesInIDSpace(t *testing.T) {
	distinct := rdf.NewGraph(workload.GenerateUniversity(workload.SmallUniversity())).Triples()
	var noisy []rdf.Triple
	for i, tr := range distinct {
		noisy = append(noisy, tr)
		if i%3 == 0 {
			noisy = append(noisy, distinct[i/2]) // an earlier triple again
		}
	}
	for _, strategy := range []string{"hash-subject", "vertical"} {
		clean, err := BuildReplicatedByName(distinct, strategy, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildReplicatedByName(noisy, strategy, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != len(distinct) || got.Len() != clean.Len() {
			t.Fatalf("%s: Len %d with duplicates, %d distinct", strategy, got.Len(), len(distinct))
		}
		if got.SubjectColocated() != clean.SubjectColocated() {
			t.Fatalf("%s: SubjectColocated %v with duplicates, %v without", strategy, got.SubjectColocated(), clean.SubjectColocated())
		}
		if !reflect.DeepEqual(got.ShardSizes(), clean.ShardSizes()) {
			t.Fatalf("%s: shard sizes %v with duplicates, %v without", strategy, got.ShardSizes(), clean.ShardSizes())
		}
		if want := rdf.NewGraph(distinct).Stats(); !reflect.DeepEqual(got.Set().Stats, want) {
			t.Fatalf("%s: stats %+v, want %+v", strategy, got.Set().Stats, want)
		}
		if err := checkPositions(got, distinct); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
	}
}

// A dataset past the int32 position space fails typed instead of
// wrapping; the limit is lowered here to reach the boundary.
func TestBuildCapacityError(t *testing.T) {
	old := maxTriples
	maxTriples = 5
	defer func() { maxTriples = old }()

	var triples []rdf.Triple
	for i := 0; i < 6; i++ {
		triples = append(triples, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewLiteral("o"),
		})
	}
	atLimit := append(append([]rdf.Triple(nil), triples[:5]...), triples[0], triples[4])
	sg, err := BuildReplicatedByName(atLimit, "hash-subject", 2, 2)
	if err != nil || sg.Len() != 5 {
		t.Fatalf("5 distinct triples (plus repeats) at a limit of 5: err %v", err)
	}
	_, err = BuildReplicatedByName(triples, "hash-subject", 2, 2)
	var ce *rdf.CapacityError
	if !errors.As(err, &ce) || ce.What != "triples" || ce.Limit != 5 {
		t.Fatalf("6 distinct triples at a limit of 5: err = %v, want a triples CapacityError", err)
	}
}
