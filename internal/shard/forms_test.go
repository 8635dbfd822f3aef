package shard

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// The answer tail of every query form other than a plain SELECT or ASK
// — aggregates (each function, with and without GROUP BY), CONSTRUCT and
// DESCRIBE, each with DISTINCT / ORDER BY / OFFSET / LIMIT where the form
// takes them — held on seeded random graphs, on one graph and on shard
// sets of 3 shards × 2 replicas (vertical and hash-subject placement), to
// the term-space tail the evaluator's id-space one replaced. That tail
// is kept below as the reference, with §18.5.1's aggregate datatypes
// and errors (SUM or AVG over a value that is not numeric is unbound),
// §18.2.4.1's empty implicit group and projection (a group variable the
// SELECT list leaves out is dropped, so DISTINCT can merge two groups),
// §18.2.5's order of the modifiers and §16.4's modifiers on DESCRIBE
// applied; it shares no code with the id tail except sparql.CompareTerms
// (and Query.SelectedVars, the list of projected variables).
// It reads the decoded solutions of the query's WHERE clause (a SELECT *
// of it on the single graph), in evaluation order, so every answer is
// compared as a sequence: group order, ORDER BY ties and the slice
// included.
//
// Mutants caught, each applied alone to internal/sparql (the first and
// the third pass the suite without this property; the second also fails
// TestShardedDescribeMatchesSingleGraph's §16.4 row):
//
//   - intern hands every computed value a fresh overflow id instead of
//     reusing an equal one's (results.go) — a DISTINCT over two groups
//     with the same count past the dictionary keeps both;
//   - describe reads its targets from the rows before the modifier
//     pipeline (eval.go solutions) — a DESCRIBE with LIMIT describes
//     every subject;
//   - MIN and MAX compare ids instead of terms through CompareTerms
//     (results.go aggregate) — MIN answers the value the dictionary met
//     first.

// --- the reference: the term-space answer tail ------------------------

// refTail answers q over rows, the decoded solutions of its WHERE
// clause in evaluation order, rendered as renderAnswer renders an
// answer; data is the dataset's distinct triples in insertion order,
// which a DESCRIBE reads.
func refTail(q *sparql.Query, rows []binding, data []rdf.Triple) []string {
	if q.Agg != nil {
		rows = refAggregate(q.Agg, rows)
	}
	vars := q.SelectedVars()
	rows = refModifiers(q, vars, rows)
	switch q.Form {
	case sparql.FormConstruct:
		return renderAnswer(&sparql.Results{IsGraph: true, Triples: refInstantiate(q.Template, rows)})
	case sparql.FormDescribe:
		return renderAnswer(&sparql.Results{IsGraph: true, Triples: refDescribe(q.Describe, rows, data)})
	}
	out := []string{fmt.Sprint(vars)}
	for _, b := range rows {
		cells := make([]string, len(vars))
		for i, v := range vars {
			cells[i] = "UNDEF"
			if t, ok := b[v]; ok {
				cells[i] = t.String()
			}
		}
		out = append(out, strings.Join(cells, "\t"))
	}
	return out
}

// binding is a solution decoded into a map, as the reference reads it.
type binding map[sparql.Var]rdf.Term

// Term returns v's term in b, Unbound when b does not bind v.
func (b binding) Term(v sparql.Var) rdf.Term {
	if t, ok := b[v]; ok {
		return t
	}
	return sparql.Unbound
}

// bindings decodes res's rows into maps.
func bindings(res *sparql.Results) []binding {
	out := make([]binding, res.Len())
	for i := range out {
		out[i] = binding{}
		for c, v := range res.Vars {
			if t, ok := res.Term(i, c); ok {
				out[i][v] = t
			}
		}
	}
	return out
}

// refRowKey renders b canonically over vars.
func refRowKey(vars []sparql.Var, b binding) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = "UNBOUND"
		if t, ok := b[v]; ok {
			parts[i] = t.String()
		}
	}
	return strings.Join(parts, "\t")
}

// refModifiers applies ORDER BY (stable, in CompareTerms' order), the
// projection, DISTINCT, OFFSET and LIMIT, in §18.2.5's order.
func refModifiers(q *sparql.Query, vars []sparql.Var, rows []binding) []binding {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range q.OrderBy {
			if c := sparql.CompareTerms(rows[i].Term(k.Var), rows[j].Term(k.Var)); c != 0 {
				return (c < 0) == k.Asc
			}
		}
		return false
	})
	var kept []binding
	seen := map[string]bool{}
	for _, b := range rows {
		p := binding{}
		for _, v := range vars {
			if t, ok := b[v]; ok {
				p[v] = t
			}
		}
		if k := refRowKey(vars, p); !q.Distinct || !seen[k] {
			seen[k] = true
			kept = append(kept, p)
		}
	}
	rows = kept
	if q.Offset > 0 {
		rows = rows[min(q.Offset, len(rows)):]
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return rows
}

// refNumeric is the value of a numeric literal of the kinds the
// generator draws.
func refNumeric(t rdf.Term) (float64, bool) {
	if !t.IsLiteral() || (t.Datatype != rdf.XSDInteger && t.Datatype != rdf.XSDDecimal) {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	return f, err == nil
}

// refAggregate evaluates the query's one aggregate over rows: one row
// per group, in order of first appearance, keyed on the group
// variables' terms.
func refAggregate(agg *sparql.Aggregate, rows []binding) []binding {
	type acc struct {
		group    binding
		count    int
		sum      float64
		integral bool
		numErr   bool     // a value op:numeric-add is not defined on
		min, max rdf.Term // Unbound until a value is seen
	}
	groups := map[string]*acc{}
	var order []string
	for _, b := range rows {
		parts := make([]string, len(agg.Group))
		for i, g := range agg.Group {
			if t, ok := b[g]; ok {
				parts[i] = t.String()
			}
		}
		key := strings.Join(parts, "\t")
		a, ok := groups[key]
		if !ok {
			gb := binding{}
			for _, g := range agg.Group {
				if t, has := b[g]; has {
					gb[g] = t
				}
			}
			a = &acc{group: gb, integral: true, min: sparql.Unbound, max: sparql.Unbound}
			groups[key] = a
			order = append(order, key)
		}
		if agg.Var == "" { // COUNT(*)
			a.count++
			continue
		}
		t, bound := b[agg.Var]
		if !bound {
			continue
		}
		a.count++
		if f, ok := refNumeric(t); ok {
			a.sum += f
		} else {
			a.numErr = true
		}
		if t.Datatype != rdf.XSDInteger {
			a.integral = false
		}
		if a.min == sparql.Unbound || sparql.CompareTerms(t, a.min) < 0 {
			a.min = t
		}
		if sparql.CompareTerms(t, a.max) > 0 { // Unbound orders first
			a.max = t
		}
	}
	if len(order) == 0 && len(agg.Group) == 0 { // §18.2.4.1: one group, empty
		groups[""] = &acc{group: binding{}, integral: true, min: sparql.Unbound, max: sparql.Unbound}
		order = []string{""}
	}
	lit := func(f float64, datatype string) rdf.Term {
		return rdf.NewTypedLiteral(strconv.FormatFloat(f, 'f', -1, 64), datatype)
	}
	var out []binding
	for _, key := range order {
		a := groups[key]
		b := binding{}
		for v, t := range a.group {
			b[v] = t
		}
		switch agg.Fn {
		case "COUNT":
			b[agg.As] = rdf.NewTypedLiteral(strconv.Itoa(a.count), rdf.XSDInteger)
		case "SUM": // §18.5.1: an error leaves the alias unbound
			if a.numErr {
				break
			}
			if a.integral {
				b[agg.As] = lit(a.sum, rdf.XSDInteger)
			} else {
				b[agg.As] = lit(a.sum, rdf.XSDDecimal)
			}
		case "AVG":
			if a.numErr {
				break
			}
			if a.count == 0 {
				b[agg.As] = rdf.NewTypedLiteral("0", rdf.XSDInteger)
			} else {
				b[agg.As] = lit(a.sum/float64(a.count), rdf.XSDDecimal)
			}
		case "MIN":
			if a.min != sparql.Unbound {
				b[agg.As] = a.min
			}
		case "MAX":
			if a.max != sparql.Unbound {
				b[agg.As] = a.max
			}
		}
		out = append(out, b)
	}
	return out
}

// refInstantiate builds the CONSTRUCT graph: the template under every
// row, dropping instances with an unbound variable or an invalid
// position, deduplicated.
func refInstantiate(template []sparql.TriplePattern, rows []binding) []rdf.Triple {
	var out []rdf.Triple
	seen := map[rdf.Triple]bool{}
	resolve := func(el sparql.TPElem, b binding) (rdf.Term, bool) {
		if !el.IsVar {
			return el.Term, true
		}
		t, ok := b[el.Var]
		return t, ok
	}
	for _, b := range rows {
		for _, tp := range template {
			s, ok1 := resolve(tp.S, b)
			p, ok2 := resolve(tp.P, b)
			o, ok3 := resolve(tp.O, b)
			if !ok1 || !ok2 || !ok3 {
				continue
			}
			t := rdf.Triple{S: s, P: p, O: o}
			if t.Validate() != nil || seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// refDescribe describes every target — a constant, or each binding of a
// variable in row order — by the triples with it as subject, in dataset
// order.
func refDescribe(targets []sparql.TPElem, rows []binding, data []rdf.Triple) []rdf.Triple {
	described := map[rdf.Term]bool{}
	var order []rdf.Term
	add := func(t rdf.Term) {
		if !t.IsLiteral() && !described[t] {
			described[t] = true
			order = append(order, t)
		}
	}
	for _, el := range targets {
		if !el.IsVar {
			add(el.Term)
			continue
		}
		for _, b := range rows {
			if t, ok := b[el.Var]; ok {
				add(t)
			}
		}
	}
	var out []rdf.Triple
	seen := map[rdf.Triple]bool{}
	for _, s := range order {
		for _, t := range data {
			if t.S == s && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// --- generation -------------------------------------------------------

func formsIRI(local string) rdf.Term { return rdf.NewIRI("http://ex/" + local) }

// genFormsGraph draws up to 30 statements over four subjects and two
// predicates. The objects mix IRIs, integers, decimals and a string:
// the integers leave gaps (no 2, 4, 6…), so many a count is a value the
// dictionary lacks, and the order they are drawn in is not their order
// by value, so an id order is not CompareTerms' order.
func genFormsGraph(r *rand.Rand) []rdf.Triple {
	subjects := []rdf.Term{formsIRI("a"), formsIRI("b"), formsIRI("c"), formsIRI("d")}
	objects := slices.Clone(subjects)
	for _, v := range []string{"1", "3", "5", "10", "-2"} {
		objects = append(objects, rdf.NewTypedLiteral(v, rdf.XSDInteger))
	}
	objects = append(objects, rdf.NewTypedLiteral("2.5", rdf.XSDDecimal), rdf.NewTypedLiteral("0.5", rdf.XSDDecimal), rdf.NewLiteral("x"))
	r.Shuffle(len(objects), func(i, j int) { objects[i], objects[j] = objects[j], objects[i] })
	var ts []rdf.Triple
	for n := r.Intn(31); n > 0; n-- {
		if len(ts) > 0 && r.Intn(8) == 0 {
			ts = append(ts, ts[r.Intn(len(ts))]) // a statement said twice
			continue
		}
		p := formsIRI("p")
		if r.Intn(3) == 0 {
			p = formsIRI("q")
		}
		ts = append(ts, rdf.Triple{S: subjects[r.Intn(len(subjects))], P: p, O: objects[r.Intn(len(objects))]})
	}
	return ts
}

// formsWhere are the WHERE clauses drawn: ?y is sometimes unbound
// (OPTIONAL, UNION) or no pattern variable at all, and the last is empty.
var formsWhere = []string{
	"?s <http://ex/p> ?x",
	"?s <http://ex/p> ?x . ?s <http://ex/q> ?y",
	"?s <http://ex/p> ?x OPTIONAL { ?s <http://ex/q> ?y }",
	"{ ?s <http://ex/p> ?x } UNION { ?s <http://ex/q> ?y }",
	"?s <http://ex/absent> ?x",
}

// genFormsQuery draws an aggregate, a CONSTRUCT or a DESCRIBE over
// where, and names its kind.
func genFormsQuery(r *rand.Rand, where string) (text, kind string) {
	pick := func(vs ...string) string { return vs[r.Intn(len(vs))] }
	var sb strings.Builder
	orderVars := []string{"s", "x", "y"}
	switch r.Intn(4) {
	case 0, 1:
		fn := pick("COUNT", "SUM", "AVG", "MIN", "MAX")
		arg := pick("?x", "?y")
		if fn == "COUNT" && r.Intn(2) == 0 {
			arg = "*"
		}
		group := [][]string{nil, {"s"}, {"x"}, {"y"}, {"s", "y"}}[r.Intn(5)]
		kind = fn + "/grouped"
		if group == nil {
			kind = fn + "/implicit"
		}
		sb.WriteString("SELECT ")
		if r.Intn(3) == 0 {
			sb.WriteString("DISTINCT ")
		}
		if r.Intn(2) == 0 { // else the projection drops the group variables
			for _, g := range group {
				sb.WriteString("?" + g + " ")
			}
		}
		fmt.Fprintf(&sb, "(%s(%s) AS ?n) WHERE { %s }", fn, arg, where)
		if group != nil {
			sb.WriteString(" GROUP BY")
			for _, g := range group {
				sb.WriteString(" ?" + g)
			}
		}
		orderVars = append(orderVars, "n")
	case 2:
		kind = "CONSTRUCT"
		fmt.Fprintf(&sb, "CONSTRUCT { ?s <http://ex/r> ?x . ?x <http://ex/r> ?y . <http://ex/a> <http://ex/r> ?s } WHERE { %s }", where)
	default:
		kind = "DESCRIBE"
		targets := []string{"?s", "?x", "?y", "<http://ex/c>", "<http://ex/absent>"}
		r.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		fmt.Fprintf(&sb, "DESCRIBE %s WHERE { %s }", strings.Join(targets[:1+r.Intn(2)], " "), where)
	}
	if r.Intn(2) == 0 {
		sb.WriteString(" ORDER BY")
		for n := 1 + r.Intn(2); n > 0; n-- {
			v := "?" + orderVars[r.Intn(len(orderVars))]
			if r.Intn(2) == 0 {
				v = "DESC(" + v + ")"
			}
			sb.WriteString(" " + v)
		}
	}
	if r.Intn(2) == 0 {
		fmt.Fprintf(&sb, " LIMIT %d OFFSET %d", r.Intn(4), r.Intn(3))
	}
	return sb.String(), kind
}

// --- the property -----------------------------------------------------

// renderAnswer renders an answer as lines in its order: the variables
// and then each row, or each triple of a graph.
func renderAnswer(res *sparql.Results) []string {
	if res.IsGraph {
		out := make([]string, len(res.Triples))
		for i, t := range res.Triples {
			out[i] = t.String()
		}
		return out
	}
	return append([]string{fmt.Sprint(res.Vars)}, canonicalRows(res)...)
}

// checkForms answers text on the single graph and on every shard set
// and holds each answer to the reference's.
func checkForms(g *rdf.Graph, data []rdf.Triple, sets []*ShardedGraph, where, text string) (nonEmpty bool, err error) {
	ctx := context.Background()
	q, err := sparql.Parse(text)
	if err != nil {
		return false, fmt.Errorf("%s: %v", text, err)
	}
	star, err := sparql.PrepareQuery(sparql.MustParse("SELECT * WHERE { "+where+" }")).Run(ctx, g)
	if err != nil {
		return false, err
	}
	want := refTail(q, bindings(star), data)
	got, err := sparql.PrepareQuery(q).Run(ctx, g)
	if err != nil {
		return false, fmt.Errorf("%s: %v", text, err)
	}
	if err := sameSequence(want, renderAnswer(got)); err != nil {
		return false, fmt.Errorf("single graph, %s: %v", text, err)
	}
	for _, sg := range sets {
		got, err := sparql.PrepareQuery(q).RunSharded(ctx, sg.Set(), sparql.WithParallelism(2))
		if err != nil {
			return false, fmt.Errorf("%s: %v", text, err)
		}
		if err := sameSequence(want, renderAnswer(got)); err != nil {
			return false, fmt.Errorf("%d shards × %d %s, %s: %v", sg.NumShards(), sg.Replicas(), sg.Strategy(), text, err)
		}
	}
	return len(want) > 0 && !(q.Form == sparql.FormSelect && len(want) == 1), nil
}

func TestAnswerTailMatchesTermSpaceReference(t *testing.T) {
	kinds := map[string]int{}
	queries, nonEmpty := 0, 0
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		triples := genFormsGraph(r)
		g := rdf.NewGraph(triples)
		var data []rdf.Triple
		seen := map[rdf.Triple]bool{}
		for _, tr := range triples {
			if !seen[tr] {
				seen[tr] = true
				data = append(data, tr)
			}
		}
		var sets []*ShardedGraph
		for _, strategy := range []string{"vertical", "hash-subject"} {
			sg, err := BuildReplicatedByName(triples, strategy, 3, 2)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			sets = append(sets, sg)
		}
		for i := 0; i < 4; i++ {
			where := formsWhere[r.Intn(len(formsWhere))]
			text, kind := genFormsQuery(r, where)
			answered, err := checkForms(g, data, sets, where, text)
			if err != nil {
				t.Logf("seed %d, %d distinct triples: %v", seed, len(data), err)
				return false
			}
			kinds[kind]++
			queries++
			if answered {
				nonEmpty++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(45))}); err != nil {
		t.Fatal(err)
	}
	// The premise: every kind drawn, mostly with something to compare.
	for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		for _, grouping := range []string{"/implicit", "/grouped"} {
			if kinds[fn+grouping] == 0 {
				t.Errorf("no %s%s drawn: %v", fn, grouping, kinds)
			}
		}
	}
	if kinds["CONSTRUCT"] == 0 || kinds["DESCRIBE"] == 0 || nonEmpty*2 < queries {
		t.Errorf("%d queries, %d with more than an empty answer or one row: %v", queries, nonEmpty, kinds)
	}
	t.Logf("%d queries, %d non-trivial, kinds %v", queries, nonEmpty, kinds)
}
