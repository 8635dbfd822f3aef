package shard

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// The differential check of the sharded executor: seeded small graphs ×
// generated queries, five oracles.
//
//	(a) RunSharded at shards {1, 3, 4} × {hash-subject, vertical} ×
//	    replicas {1, 2} × WithParallelism {1, 4} × WithScatterOnly on/off
//	    equals Run on the single graph as a sequence;
//	(b) both equal, as a multiset, the nested-loop reference below, which
//	    shares nothing with internal/sparql's evaluator — no dictionary,
//	    no slots, no indexes — and a LIMIT/OFFSET answer is exactly that
//	    slice of the unlimited one;
//	(c) permuting a BGP's patterns keeps the multiset;
//	(d) swapping a UNION's branches keeps the multiset, and without
//	    DISTINCT or ORDER BY the answer begins with its left branch's
//	    answer and the swapped answer ends with it;
//	(e) at two replicas, the sharded run under a seeded fault plan — one
//	    replica of every shard down, a quarter of all scatter attempts
//	    failing — still equals the clean single-graph run as a sequence.
//
// Mutants (d) and (e) caught, each applied alone, that the suite
// without them passed:
//
//   - unionRows concatenates right then left (eval.go) — "the UNION
//     does not begin with its left branch … row 0 differs" (d);
//   - runShardOp returns a failed attempt's rows instead of failing
//     over (dist.go) — "1 shards × 2 hash-subject, replica 1 down, 1 in
//     4 scatter attempts failing: 0 rows, want 4" (e);
//   - fatalAttemptErr takes an injected failure for a query-level
//     verdict, so nothing fails over (dist.go) — "… 1 in 4 scatter
//     attempts failing: fault: injected failure" (e).
//
// Mutants (a)–(c) caught, each applied alone to internal/sparql/dist.go,
// with the first failure the suite printed (seeds differ run to run):
//
//   - bindKey keeps the position and drops the input index — "4 shards
//     × 1 hash-subject par 1 scatterOnly false: row 1 differs" (two
//     input rows' matches interleave by position);
//   - bindShard counts max per input row instead of per op — "shard 0
//     answered the last pattern with 50 rows past a hint of 5" (the
//     answer is still right, so this one shows only on the traced run);
//   - evalBGP hands the hint to every pattern, not the last — "ASK …
//     answered false over 7 reference rows";
//   - subjectStar accepts any BGP — "26 rows, want 96" (a linear chain
//     pushed down whole);
//   - the per-row step (patternScan.resolve, eval.go) reading a bound
//     slot as unbound — a row sequence unlike the reference's; forEachShard
//     skips the shard the driver should run itself — "0 rows, want 1";
//     the driver does not wait for its goroutines — "par 4 …: 0 rows,
//     want 5"; gather takes the larger head — index out of range;
//   - shardOp.run drops the key inheritance, so a later pattern's row
//     keeps its own (input index, position) key — a pushdown's rows
//     merge out of seed order: "4 shards × 1 hash-subject … row 0
//     differs" here, and in
//     TestShardedBudgetOverloadDeterminism and TestChaosDeterminism;
//   - shardOp.run passes max to every pattern, not the last — the seed
//     step stops at max seeds: "ASK answer differs: want true, got
//     false" in TestShardedLimitPushdown (the star whose first seeds do
//     not extend); this property catches it in about half the runs.

// --- the reference: nested loops over []rdf.Triple --------------------

type refElem struct {
	v string   // variable name; "" for a constant
	t rdf.Term // the constant
}

type refPattern [3]refElem

type refSol map[string]rdf.Term

// refQuery is a generated query in a form both the reference and the
// text renderer read: WHERE { main } alone, with OPTIONAL { other }, or
// as { main } UNION { other }; then an optional FILTER on one variable.
type refQuery struct {
	main, other []refPattern
	union       bool // other is a UNION branch, not an OPTIONAL
	filterVar   string
	filterTerm  rdf.Term
	filterNeg   bool
	sel         []string
	distinct    bool
	orderBy     bool
	limit       int // < 0: none
	offset      int
}

// refMerge is l extended by r, unless they bind one variable apart.
func refMerge(l, r refSol) (refSol, bool) {
	m := maps.Clone(l)
	for v, t := range r {
		if bound, ok := m[v]; ok && bound != t {
			return nil, false
		}
		m[v] = t
	}
	return m, true
}

// refBGP returns the solutions of a conjunction, or false once an
// intermediate result passes the cap (the caller skips the query).
func refBGP(ps []refPattern, ts []rdf.Triple) ([]refSol, bool) {
	sols := []refSol{{}}
	for _, p := range ps {
		var next []refSol
		for _, s := range sols {
		triples:
			for _, t := range ts {
				m := s
				for i, term := range [3]rdf.Term{t.S, t.P, t.O} {
					ok := p[i].t == term
					if p[i].v != "" {
						m, ok = refMerge(m, refSol{p[i].v: term})
					}
					if !ok {
						continue triples
					}
				}
				next = append(next, m)
			}
		}
		if sols = next; len(sols) > 4000 {
			return nil, false
		}
	}
	return sols, true
}

// refEval answers q over the distinct triples ts as canonical rows, in
// no particular order, ignoring ORDER BY / LIMIT / OFFSET.
func refEval(q refQuery, ts []rdf.Triple) ([]string, bool) {
	sols, ok := refBGP(q.main, ts)
	right, ok2 := refBGP(q.other, ts)
	if !ok || !ok2 {
		return nil, false
	}
	if q.other != nil && q.union {
		sols = append(sols, right...)
	} else if q.other != nil {
		var joined []refSol
		for _, l := range sols {
			n := len(joined)
			for _, r := range right {
				if m, ok := refMerge(l, r); ok {
					joined = append(joined, m)
				}
			}
			if len(joined) == n {
				joined = append(joined, l)
			}
		}
		sols = joined
	}
	var rows []string
	seen := map[string]bool{}
	for _, s := range sols {
		// The FILTER is = or != against a constant: an error, which drops
		// the row, on an unbound variable and between two literals that
		// are not the same term (SPARQL 1.1 §17.3's RDFterm-equal).
		t, bound := s[q.filterVar]
		if q.filterVar != "" && (!bound || (t != q.filterTerm && t.IsLiteral() && q.filterTerm.IsLiteral()) || (t == q.filterTerm) == q.filterNeg) {
			continue
		}
		cells := make([]string, len(q.sel))
		for i, v := range q.sel {
			cells[i] = "UNDEF"
			if t, ok := s[v]; ok {
				cells[i] = t.String()
			}
		}
		row := strings.Join(cells, "\t")
		if !q.distinct || !seen[row] {
			seen[row] = true
			rows = append(rows, row)
		}
	}
	return rows, true
}

// --- rendering and generation -----------------------------------------

func (e refElem) String() string {
	if e.v != "" {
		return "?" + e.v
	}
	return e.t.String()
}

func renderBGP(ps []refPattern) string {
	var sb strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&sb, "%s %s %s . ", p[0], p[1], p[2])
	}
	return sb.String()
}

// text renders q; withSlice false leaves LIMIT and OFFSET out.
func (q refQuery) text(withSlice bool) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.distinct {
		sb.WriteString("DISTINCT ")
	}
	for _, v := range q.sel {
		sb.WriteString("?" + v + " ")
	}
	sb.WriteString("WHERE { ")
	switch {
	case q.other == nil:
		sb.WriteString(renderBGP(q.main))
	case q.union:
		sb.WriteString("{ " + renderBGP(q.main) + "} UNION { " + renderBGP(q.other) + "} ")
	default:
		sb.WriteString(renderBGP(q.main) + "OPTIONAL { " + renderBGP(q.other) + "} ")
	}
	if q.filterVar != "" {
		op := "="
		if q.filterNeg {
			op = "!="
		}
		fmt.Fprintf(&sb, "FILTER(?%s %s %s) ", q.filterVar, op, q.filterTerm)
	}
	sb.WriteString("}")
	if q.orderBy {
		sb.WriteString(" ORDER BY")
		for _, v := range q.sel {
			sb.WriteString(" ?" + v)
		}
	}
	if withSlice && q.limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d OFFSET %d", q.limit, q.offset)
	}
	return sb.String()
}

// diffVocab is the whole term space of a generated graph: eight terms,
// so triples repeat and every join key is shared.
var diffVocab = struct {
	iris   []rdf.Term // any position
	lits   []rdf.Term // objects only
	absent rdf.Term   // in queries only: the dictionary never sees it
}{
	iris: []rdf.Term{rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/b"), rdf.NewIRI("http://ex/c"),
		rdf.NewIRI("http://ex/d"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/q")},
	lits:   []rdf.Term{rdf.NewLiteral("x"), rdf.NewTypedLiteral("7", rdf.XSDInteger)},
	absent: rdf.NewIRI("http://ex/absent"),
}

func genGraph(r *rand.Rand) []rdf.Triple {
	objects := append(slices.Clone(diffVocab.iris), diffVocab.lits...)
	var ts []rdf.Triple
	for n := r.Intn(61); n > 0; n-- {
		if len(ts) > 0 && r.Intn(8) == 0 {
			ts = append(ts, ts[r.Intn(len(ts))]) // a statement said twice
			continue
		}
		ts = append(ts, rdf.Triple{
			S: diffVocab.iris[r.Intn(4)],
			P: diffVocab.iris[2+r.Intn(4)], // c and d are subjects and predicates
			O: objects[r.Intn(len(objects))],
		})
	}
	return ts
}

// genBGP draws 1–4 patterns of one of ClassifyShape's shapes over
// variables prefixed pre (two BGPs of one query share "s" on purpose).
func genBGP(r *rand.Rand, pre string) []refPattern {
	v := func(name string) refElem { return refElem{v: name} }
	pred := func() refElem {
		if r.Intn(6) == 0 {
			return v(pre + "p") // one variable predicate, shared when drawn twice
		}
		return refElem{t: diffVocab.iris[2+r.Intn(4)]}
	}
	var ps []refPattern
	n := 1 + r.Intn(4)
	switch r.Intn(4) {
	case 0: // star, on a variable or a constant subject
		s := v("s")
		if r.Intn(3) == 0 {
			s = refElem{t: diffVocab.iris[r.Intn(4)]}
		}
		for i := 0; i < n; i++ {
			ps = append(ps, refPattern{s, pred(), v(fmt.Sprintf("%so%d", pre, i))})
		}
	case 1: // linear chain from s
		prev := v("s")
		for i := 0; i < n; i++ {
			next := v(fmt.Sprintf("%sc%d", pre, i))
			ps = append(ps, refPattern{prev, pred(), next})
			prev = next
		}
	case 2: // snowflake: two hubs and the link between them
		hub := v(pre + "h")
		ps = []refPattern{{v("s"), pred(), v(pre + "x")}, {v("s"), pred(), hub}, {hub, pred(), v(pre + "y")}, {hub, pred(), v(pre + "z")}}
		ps = ps[:max(n, 3)]
	default: // complex
		switch r.Intn(4) {
		case 0: // a cycle
			ps = []refPattern{{v("s"), pred(), v(pre + "b")}, {v(pre + "b"), pred(), v(pre + "c")}, {v(pre + "c"), pred(), v("s")}}
		case 1: // one variable twice in a pattern
			ps = []refPattern{{v("s"), pred(), v("s")}, {v("s"), v(pre + "r"), v(pre + "r")}}[:1+r.Intn(2)]
		case 2: // a cartesian pair
			ps = []refPattern{{v("s"), pred(), v(pre + "b")}, {v(pre + "c"), pred(), v(pre + "d")}}
		default: // joined on the predicate position
			ps = []refPattern{{v("s"), v(pre + "p"), v(pre + "b")}, {v(pre + "c"), v(pre + "p"), v("s")}}
		}
	}
	// Constants: bind an object now and then, sometimes to a term the
	// dictionary never saw.
	for i := range ps {
		switch r.Intn(16) {
		case 0, 1:
			ps[i][2] = refElem{t: diffVocab.iris[r.Intn(len(diffVocab.iris))]}
		case 2:
			ps[i][2] = refElem{t: diffVocab.lits[r.Intn(len(diffVocab.lits))]}
		case 3:
			ps[i][r.Intn(3)] = refElem{t: diffVocab.absent}
		}
	}
	return ps
}

func patternVars(ps []refPattern, into []string) []string {
	for _, p := range ps {
		for _, e := range p {
			if e.v != "" && !slices.Contains(into, e.v) {
				into = append(into, e.v)
			}
		}
	}
	return into
}

func genQuery(r *rand.Rand) refQuery {
	q := refQuery{main: genBGP(r, "m"), limit: -1}
	switch r.Intn(4) {
	case 0:
		q.other = genBGP(r, "o")
	case 1:
		q.other, q.union = genBGP(r, "o"), true
	}
	vars := patternVars(q.other, patternVars(q.main, nil))
	if len(vars) == 0 { // every position a constant: keep one variable to select
		q.main = append(q.main, refPattern{{v: "s"}, {t: diffVocab.iris[4]}, {v: "mo"}})
		vars = []string{"s", "mo"}
	}
	if r.Intn(3) == 0 {
		terms := append(slices.Clone(diffVocab.iris), diffVocab.lits...)
		q.filterVar, q.filterTerm, q.filterNeg = vars[r.Intn(len(vars))], terms[r.Intn(len(terms))], r.Intn(3) > 0
	}
	q.sel = slices.Clone(vars)
	if r.Intn(2) == 0 { // project some away: duplicates appear, DISTINCT bites
		r.Shuffle(len(q.sel), func(i, j int) { q.sel[i], q.sel[j] = q.sel[j], q.sel[i] })
		q.sel = q.sel[:1+r.Intn(len(q.sel))]
	}
	q.distinct = r.Intn(3) == 0
	q.orderBy = r.Intn(3) == 0
	if r.Intn(2) == 0 {
		q.limit, q.offset = r.Intn(7), r.Intn(3)
	}
	return q
}

// --- the property -----------------------------------------------------

func canonicalRows(res *sparql.Results) []string {
	rows := make([]string, res.Len())
	for i := range rows {
		cells := make([]string, len(res.Vars))
		for j := range res.Vars {
			cells[j] = "UNDEF"
			if t, ok := res.Term(i, j); ok {
				cells[j] = t.String()
			}
		}
		rows[i] = strings.Join(cells, "\t")
	}
	return rows
}

func sameSequence(want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("row %d differs:\nwant %s\ngot  %s", i, want[i], got[i])
		}
	}
	return nil
}

func sameMultiset(want, got []string) error {
	w, g := slices.Clone(want), slices.Clone(got)
	sort.Strings(w)
	sort.Strings(g)
	return sameSequence(w, g)
}

// diffStore is one generated graph, single and sharded every way.
type diffStore struct {
	g        *rdf.Graph
	distinct []rdf.Triple // the reference's input: no shared dedupe
	sharded  []*ShardedGraph
}

func buildDiffStore(triples []rdf.Triple) (*diffStore, error) {
	st := &diffStore{g: rdf.NewGraph(triples)}
	seen := map[rdf.Triple]bool{}
	for _, t := range triples {
		if !seen[t] {
			seen[t] = true
			st.distinct = append(st.distinct, t)
		}
	}
	for _, shards := range []int{1, 3, 4} {
		for _, strategy := range []string{"hash-subject", "vertical"} {
			for _, replicas := range []int{1, 2} {
				sg, err := BuildReplicatedByName(triples, strategy, shards, replicas)
				if err != nil {
					return nil, err
				}
				st.sharded = append(st.sharded, sg)
			}
		}
	}
	return st, nil
}

func runSingle(g *rdf.Graph, text string) ([]string, error) {
	prep, err := sparql.Prepare(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", text, err)
	}
	res, err := prep.Run(context.Background(), g, sparql.WithParallelism(1))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", text, err)
	}
	return canonicalRows(res), nil
}

// diffRetry lets a shard op outlast the faulted runs of (e): the live
// replica fails a pass with probability 1/4, so sixteen passes leave an
// op failing about once in 4e9.
var diffRetry = sparql.RetryPolicy{Cycles: 16, BaseBackoff: 50 * time.Microsecond, MaxBackoff: 500 * time.Microsecond}

// checkQuery holds one generated query to the five oracles. skipped
// reports that the reference gave up on an oversized intermediate.
func checkQuery(st *diffStore, q refQuery, r *rand.Rand) (skipped bool, err error) {
	ctx := context.Background()
	text := q.text(true)
	ref, ok := refEval(q, st.distinct)
	if !ok {
		return true, nil
	}
	// (b) The unlimited answer is the reference's multiset, and the
	// answer is its LIMIT/OFFSET slice.
	full, err := runSingle(st.g, q.text(false))
	if err != nil {
		return false, err
	}
	if err := sameMultiset(ref, full); err != nil {
		return false, fmt.Errorf("%s\nsingle graph vs nested-loop reference: %v", q.text(false), err)
	}
	want, err := runSingle(st.g, text)
	if err != nil {
		return false, err
	}
	slice := full
	if q.limit >= 0 {
		slice = slice[min(q.offset, len(slice)):]
		slice = slice[:min(q.limit, len(slice))]
	}
	if err := sameSequence(slice, want); err != nil {
		return false, fmt.Errorf("%s\nsingle graph vs the slice of its unlimited answer: %v", text, err)
	}
	// (c) Any order of a BGP's patterns, the same multiset.
	perm := q
	perm.main, perm.other = slices.Clone(q.main), slices.Clone(q.other)
	r.Shuffle(len(perm.main), func(i, j int) { perm.main[i], perm.main[j] = perm.main[j], perm.main[i] })
	r.Shuffle(len(perm.other), func(i, j int) { perm.other[i], perm.other[j] = perm.other[j], perm.other[i] })
	permuted, err := runSingle(st.g, perm.text(false))
	if err != nil {
		return false, err
	}
	if err := sameMultiset(full, permuted); err != nil {
		return false, fmt.Errorf("%s\npermuted to %s: %v", q.text(false), perm.text(false), err)
	}
	// (d) Swapping a UNION's branches keeps the multiset; without
	// DISTINCT or ORDER BY the answer is the left branch's rows, then the
	// right's, so the swapped answer ends where the original begins.
	if q.union {
		swapped := q
		swapped.main, swapped.other = q.other, q.main
		got, err := runSingle(st.g, swapped.text(false))
		if err != nil {
			return false, err
		}
		if err := sameMultiset(full, got); err != nil {
			return false, fmt.Errorf("%s\nbranches swapped to %s: %v", q.text(false), swapped.text(false), err)
		}
		if !q.distinct && !q.orderBy {
			left := q
			left.other, left.union = nil, false
			lrows, err := runSingle(st.g, left.text(false))
			if err != nil {
				return false, err
			}
			if err := sameSequence(lrows, full[:min(len(lrows), len(full))]); err != nil {
				return false, fmt.Errorf("%s\nthe UNION does not begin with its left branch %s: %v", q.text(false), left.text(false), err)
			}
			if err := sameSequence(lrows, got[max(len(got)-len(lrows), 0):]); err != nil {
				return false, fmt.Errorf("%s\nbranches swapped, the UNION does not end with the old left branch: %v", swapped.text(false), err)
			}
		}
	}
	// (a) Every sharded configuration, the single graph's sequence; (e)
	// at two replicas, again under transient scatter faults with one
	// replica of every shard down.
	dead, planSeed := r.Intn(2), r.Int63()
	absentInMain := false
	for _, p := range q.main {
		for _, e := range p {
			absentInMain = absentInMain || e.t == diffVocab.absent
		}
	}
	// The hint the modifiers hand a sole BGP: LIMIT + OFFSET leading rows.
	hint := 0
	if q.other == nil && q.filterVar == "" && !q.distinct && !q.orderBy && q.limit >= 0 {
		hint = q.limit + q.offset
	}
	ask := "ASK " + text[strings.Index(text, "WHERE"):strings.LastIndex(text, "}")+1]
	for _, sg := range st.sharded {
		sp, err := sparql.Prepare(text)
		if err != nil {
			return false, err
		}
		if hint > 0 {
			// No shard hands the last pattern more than the hint: its run
			// stops at the op's max-th row, whichever input row that is in.
			tr := obs.New("query")
			if _, err := sp.RunSharded(ctx, sg.Set(), sparql.WithParallelism(1), sparql.WithScatterOnly(), sparql.WithTrace(tr)); err != nil {
				return false, fmt.Errorf("%s: traced: %v", text, err)
			}
			tr.Finish()
			if scatters := tr.Root().FindAll("scatter"); len(scatters) > 0 {
				for s := 0; s < sg.NumShards(); s++ {
					if n, _ := scatters[len(scatters)-1].Int(fmt.Sprintf("shard_%d_rows", s)); n > int64(hint) {
						return false, fmt.Errorf("%s\n%d shards × %d %s: shard %d answered the last pattern with %d rows past a hint of %d",
							text, sg.NumShards(), sg.Replicas(), sg.Strategy(), s, n, hint)
					}
				}
			}
		}
		if sg.Replicas() == 2 {
			plan := fault.NewPlan(planSeed).FailRate(fault.PointScatter, 0.25)
			for s := 0; s < sg.NumShards(); s++ {
				plan.FailAlways(fault.ReplicaPoint(s, dead))
			}
			got, err := sp.RunSharded(fault.With(ctx, plan), sg.Set(), sparql.WithParallelism(4), sparql.WithRetryPolicy(diffRetry))
			where := fmt.Sprintf("%s\n%d shards × 2 %s, replica %d down, 1 in 4 scatter attempts failing", text, sg.NumShards(), sg.Strategy(), dead)
			if err != nil {
				return false, fmt.Errorf("%s: %v", where, err)
			}
			if err := sameSequence(want, canonicalRows(got)); err != nil {
				return false, fmt.Errorf("%s: %v", where, err)
			}
		}
		askPrep, err := sparql.Prepare(ask)
		if err != nil {
			return false, fmt.Errorf("%s: %v", ask, err)
		}
		for _, par := range []int{1, 4} {
			for _, scatterOnly := range []bool{false, true} {
				where := fmt.Sprintf("%s\n%d shards × %d %s par %d scatterOnly %v", text, sg.NumShards(), sg.Replicas(), sg.Strategy(), par, scatterOnly)
				var stats sparql.ShardStats
				opts := []sparql.RunOption{sparql.WithParallelism(par), sparql.WithShardStats(&stats)}
				if scatterOnly {
					opts = append(opts, sparql.WithScatterOnly())
				}
				got, err := sp.RunSharded(ctx, sg.Set(), opts...)
				if err != nil {
					return false, fmt.Errorf("%s: %v", where, err)
				}
				if err := sameSequence(want, canonicalRows(got)); err != nil {
					return false, fmt.Errorf("%s: %v", where, err)
				}
				// A conjunction holding a constant no triple has is empty
				// before any shard is asked.
				if absentInMain && q.other == nil && stats.ShardsTouched != 0 {
					return false, fmt.Errorf("%s: touched %d shards for a constant the dictionary never saw", where, stats.ShardsTouched)
				}
				yes, err := askPrep.RunSharded(ctx, sg.Set(), opts...)
				if err != nil {
					return false, fmt.Errorf("%s: %s: %v", where, ask, err)
				}
				if yes.Ask != (len(ref) > 0) {
					return false, fmt.Errorf("%s: %s answered %v over %d reference rows", where, ask, yes.Ask, len(ref))
				}
			}
		}
	}
	return false, nil
}

func TestShardedMatchesReferenceProperty(t *testing.T) {
	shapes := map[sparql.Shape]int{}
	queries, skipped, limited, nonEmpty := 0, 0, 0, 0
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := buildDiffStore(genGraph(r))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := 0; i < 4; i++ {
			q := genQuery(r)
			skip, err := checkQuery(st, q, r)
			if err != nil {
				t.Logf("seed %d, %d distinct triples: %v", seed, len(st.distinct), err)
				return false
			}
			queries++
			if skip {
				skipped++
				continue
			}
			shapes[sparql.ClassifyShape(sparql.MustParse("SELECT * WHERE { "+renderBGP(q.main)+"}"))]++
			if q.limit >= 0 {
				limited++
			}
			if rows, _ := refEval(q, st.distinct); len(rows) > 0 {
				nonEmpty++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// The premise: the generator walked every shape, mostly answerable.
	for _, shape := range []sparql.Shape{sparql.ShapeStar, sparql.ShapeLinear, sparql.ShapeSnowflake, sparql.ShapeComplex} {
		if shapes[shape] == 0 {
			t.Errorf("no generated BGP classified %s: %v", shape, shapes)
		}
	}
	if skipped*10 > queries || limited == 0 || nonEmpty*3 < queries {
		t.Errorf("%d queries: %d skipped by the reference, %d with LIMIT, %d non-empty", queries, skipped, limited, nonEmpty)
	}
	t.Logf("%d queries (%d skipped, %d with LIMIT, %d non-empty), shapes %v", queries, skipped, limited, nonEmpty, shapes)
}
