//go:build linux

package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/workload"
)

// baseSeconds is the --seconds value the segment sizes below are
// calibrated for (BENCHMARK.json run_seconds): on the 2-core reference
// box the five measured segments of every workload then take about
// this long in total. Another --seconds scales the per-segment work
// proportionally — the run is still fixed work, never fixed time, so
// the request sequence stays a pure function of (workload, seed,
// seconds).
const baseSeconds = 10

// segments is the number of equal measured parts of one run, and
// boots the number of cold boots behind setup_s. Both are fixed by the
// noise rules (README "Noise rules"): shrink unit counts, never these.
const (
	segments = 5
	boots    = 5
)

// spec sizes one workload. A "unit" is the workload's indivisible
// piece of work: one request (lookup), one pass over the nine shaped
// queries (analytic), one 45-request block (sharded), one pass of
// every engine over the eight verified queries (assess).
type spec struct {
	name string
	// universities sizes the generated dataset of a serving workload;
	// the other UniversityConfig fields are workload.MediumUniversity's.
	universities int
	// shards > 0 boots rdfserve with -shards and -replicas; every other
	// flag keeps its shipped default.
	shards, replicas int
	warmupUnits      int
	// segmentUnits is the per-segment unit count at baseSeconds.
	segmentUnits int
	// traceSlice is how many leading requests the traced replay covers
	// (and the -trace-ring size of the traced server).
	traceSlice int
}

var specs = []spec{
	{name: "lookup", universities: 50, warmupUnits: 12000, segmentUnits: 14000, traceSlice: 600},
	{name: "analytic", universities: 50, warmupUnits: 3, segmentUnits: 20, traceSlice: 18},
	{name: "sharded", universities: 25, shards: 4, replicas: 2, warmupUnits: 6, segmentUnits: 16, traceSlice: 90},
	{name: "assess", warmupUnits: 1, segmentUnits: 1},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// serverFlags are the rdfserve flags beyond -data and -addr.
func (s spec) serverFlags() []string {
	if s.shards == 0 {
		return []string{}
	}
	return []string{"-shards", strconv.Itoa(s.shards), "-replicas", strconv.Itoa(s.replicas)}
}

// scaled returns the spec with its per-segment work scaled from
// baseSeconds to seconds.
func (s spec) scaled(seconds int) spec {
	s.segmentUnits = (s.segmentUnits*seconds + baseSeconds/2) / baseSeconds
	if s.segmentUnits < 1 {
		s.segmentUnits = 1
	}
	return s
}

// datasetConfig is the generator configuration of one serving run:
// the bench seed is the generator seed, so another seed is another
// dataset of the same shape and size.
func (s spec) datasetConfig(seed int64) workload.UniversityConfig {
	cfg := workload.MediumUniversity()
	cfg.Universities = s.universities
	cfg.Seed = seed
	return cfg
}

// sequence is the full request plan of one serving run: distinct query
// texts and, per phase, the indexes into them in send order.
type sequence struct {
	texts   []string
	warmup  []int
	measure [segments][]int
}

// all returns the measured requests of every segment in order.
func (q *sequence) all() []int {
	var out []int
	for _, seg := range q.measure {
		out = append(out, seg...)
	}
	return out
}

// hash fingerprints the plan — every text of every phase in send
// order — so two runs can be checked to have sent the same requests.
func (q *sequence) hash() string {
	h := fnv.New64a()
	write := func(idx []int) {
		for _, i := range idx {
			h.Write([]byte(q.texts[i]))
			h.Write([]byte{0})
		}
	}
	write(q.warmup)
	for _, seg := range q.measure {
		write(seg)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// textPool interns query texts to indexes.
type textPool struct {
	texts []string
	index map[string]int
}

func (p *textPool) intern(text string) int {
	if i, ok := p.index[text]; ok {
		return i
	}
	if p.index == nil {
		p.index = map[string]int{}
	}
	p.index[text] = len(p.texts)
	p.texts = append(p.texts, text)
	return len(p.texts) - 1
}

// lookupTemplates is the number of selective templates; request i of
// a lookup stream instantiates template i mod lookupTemplates, so the
// template mix is the same for every seed and only the constants move.
const lookupTemplates = 3

// lookupGen draws the selective lookup requests: three templates, each
// instantiated with a Zipf(s=1.1)-ranked constant. Rank 0 is rotated
// by a seeded offset, so the hot entities differ between seeds while
// the skew — and with it the plan-cache hit ratio — stays the same.
type lookupGen struct {
	cfg               workload.UniversityConfig
	studZipf, dptZipf *rand.Zipf
	studOff, dptOff   int
	n                 int
}

func newLookupGen(cfg workload.UniversityConfig, rng *rand.Rand) *lookupGen {
	depts := cfg.Universities * cfg.DepartmentsPerUniv
	studs := depts * cfg.StudentsPerDept
	return &lookupGen{
		cfg:      cfg,
		studZipf: rand.NewZipf(rng, 1.1, 1, uint64(studs-1)),
		dptZipf:  rand.NewZipf(rng, 1.1, 1, uint64(depts-1)),
		studOff:  rng.Intn(studs),
		dptOff:   rng.Intn(depts),
	}
}

func (g *lookupGen) next() string {
	iri := func(local string) string { return "<" + workload.UnivNS + local + ">" }
	depts := g.cfg.Universities * g.cfg.DepartmentsPerUniv
	dept := func() string {
		d := (int(g.dptZipf.Uint64()) + g.dptOff) % depts
		return iri(fmt.Sprintf("univ%d.dept%d", d/g.cfg.DepartmentsPerUniv, d%g.cfg.DepartmentsPerUniv))
	}
	t := g.n % lookupTemplates
	g.n++
	switch t {
	case 0: // point star on one student
		s := (int(g.studZipf.Uint64()) + g.studOff) % (depts * g.cfg.StudentsPerDept)
		d := s / g.cfg.StudentsPerDept
		stud := iri(fmt.Sprintf("univ%d.dept%d.stud%d",
			d/g.cfg.DepartmentsPerUniv, d%g.cfg.DepartmentsPerUniv, s%g.cfg.StudentsPerDept))
		return fmt.Sprintf("SELECT ?n ?a ?adv WHERE { %s %s ?n . %s %s ?a . %s %s ?adv }",
			stud, iri("name"), stud, iri("age"), stud, iri("advisor"))
	case 1: // members of one department
		return fmt.Sprintf("SELECT ?s WHERE { ?s %s %s }", iri("memberOf"), dept())
	default: // 2-hop advisor -> worksFor for one department
		return fmt.Sprintf("SELECT ?st ?prof WHERE { ?st %s ?prof . ?prof %s %s }",
			iri("advisor"), iri("worksFor"), dept())
	}
}

// lookupsPerBlock is the lookup share of one sharded block; the other
// nine requests are the shaped queries.
const lookupsPerBlock = 36

// buildSequence derives the request plan of a serving workload from
// the seed alone.
func buildSequence(s spec, seed int64) *sequence {
	cfg := s.datasetConfig(seed)
	// The sampler's stream is separated from the generator's (which
	// seeds its own rand.Source with the same number) by a fixed salt.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5a17))
	pool := &textPool{}
	shaped := workload.UniversityQueries()
	lookups := newLookupGen(cfg, rng)

	var unit func() []int
	switch s.name {
	case "lookup":
		unit = func() []int { return []int{pool.intern(lookups.next())} }
	case "analytic":
		unit = func() []int {
			out := make([]int, len(shaped))
			for i, p := range rng.Perm(len(shaped)) {
				out[i] = pool.intern(shaped[p].Text)
			}
			return out
		}
	case "sharded":
		unit = func() []int {
			out := make([]int, 0, lookupsPerBlock+len(shaped))
			for i := 0; i < lookupsPerBlock; i++ {
				out = append(out, pool.intern(lookups.next()))
			}
			for _, q := range shaped {
				out = append(out, pool.intern(q.Text))
			}
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		}
	default:
		panic("buildSequence: not a serving workload: " + s.name)
	}
	units := func(n int) []int {
		var out []int
		for i := 0; i < n; i++ {
			out = append(out, unit()...)
		}
		return out
	}
	q := &sequence{}
	q.warmup = units(s.warmupUnits)
	for i := range q.measure {
		q.measure[i] = units(s.segmentUnits)
	}
	q.texts = pool.texts
	return q
}
