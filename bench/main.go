//go:build linux

// Command bench is the repo's benchmark of itself: four workloads that
// each stress different layers, measured end to end from outside the
// program, with a per-layer ledger in a separate traced mode. See
// README.md in this directory; BENCHMARK.json at the repo root is the
// contract with the acceptance driver.
//
//	go run ./bench --workload lookup --seed 1 --seconds 10 --trace 0
//	go run ./bench                         # all four workloads
//	go run ./bench -compare old.json new.json
//	go run ./bench -selfcheck
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const benchmarkFile = "BENCHMARK.json"

func main() {
	workloadName := flag.String("workload", "all", "lookup | analytic | sharded | assess | all")
	seed := flag.Int64("seed", 1, "seeds the dataset generator and the request sampler")
	seconds := flag.Int("seconds", baseSeconds, "sizes the fixed measured work: about this long on the reference box")
	trace := flag.Int("trace", 0, "1 = traced run: report the per-layer metrics and print the ledgers")
	runs := flag.Int("runs", 1, "runs per workload (seeds seed, seed+1, ...) with -workload all and -selfcheck")
	out := flag.String("out", "", "write the result set (every run, self-describing) to this file")
	compare := flag.Bool("compare", false, "compare two result sets: bench -compare old.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "measure the current tree twice and fail if the two sets disagree beyond the bounds")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareMode(flag.Args())
	case *selfcheck:
		err = selfcheckMode(*seed, *seconds, max(*runs, 3))
	default:
		if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
			err = fmt.Errorf("need -seconds >= 1, -runs >= 1 and -trace 0 or 1")
			break
		}
		var set *resultSet
		if set, err = measure(*workloadName, *seed, *seconds, *trace == 1, *runs); err == nil && *out != "" {
			err = set.write(*out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload once, prints every metric by name and
// unit on standard error and the driver's result line on standard
// output, and files the self-describing document under buildDir.
func runOne(s spec, seed int64, seconds int, traced bool) (*runResult, error) {
	s = s.scaled(seconds)
	var res *runResult
	var err error
	if s.name == "assess" {
		res, err = runAssess(s, seed, seconds, traced)
	} else {
		res, err = runServing(s, seed, seconds, traced)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", s.name, seed, err)
	}
	res.printMetrics(os.Stderr)
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	traceBit := 0
	if traced {
		traceBit = 1
	}
	doc := resultSet{Runs: []*runResult{res}}
	if err := doc.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", s.name, seed, traceBit))); err != nil {
		return nil, err
	}
	fmt.Println(res.resultLine())
	return res, nil
}

// measure runs one workload, or all four, runs times each.
func measure(name string, seed int64, seconds int, traced bool, runs int) (*resultSet, error) {
	todo := specs
	if name != "all" {
		s, ok := specByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		todo = []spec{s}
	}
	set := &resultSet{}
	for _, s := range todo {
		for r := 0; r < runs; r++ {
			res, err := runOne(s, seed+int64(r), seconds, traced)
			if err != nil {
				return nil, err
			}
			set.Runs = append(set.Runs, res)
		}
	}
	return set, nil
}

func compareMode(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench -compare old.json new.json")
	}
	bounds, err := readBounds(benchmarkFile)
	if err != nil {
		return err
	}
	old, err := readResultSet(args[0])
	if err != nil {
		return err
	}
	new, err := readResultSet(args[1])
	if err != nil {
		return err
	}
	regressions, unresolved := compareSets(os.Stdout, bounds, old, new)
	if unresolved > 0 {
		fmt.Printf("%d unresolved: the run-to-run spread is wider than the bound; measure more runs\n", unresolved)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds in %s", regressions, benchmarkFile)
	}
	return nil
}

// selfcheckMode applies the acceptance driver's own test to the
// current tree: two full sets of the same code, the same seeds. It
// fails if a second median is worse than the first by more than the
// metric's bound, or if a metric other than setup_s spreads
// (interquartile range over median) wider than its bound.
func selfcheckMode(seed int64, seconds, runs int) error {
	bounds, err := readBounds(benchmarkFile)
	if err != nil {
		return err
	}
	first, err := measure("all", seed, seconds, false, runs)
	if err != nil {
		return err
	}
	second, err := measure("all", seed, seconds, false, runs)
	if err != nil {
		return err
	}
	compareSets(os.Stdout, bounds, first, second)
	bad := 0
	for _, s := range specs {
		for _, b := range bounds {
			_, worse, spread := judge(b, first.values(s.name, b.Name), second.values(s.name, b.Name))
			if worse > b.Bound {
				fmt.Printf("selfcheck: %s %s: second set %.1f%% worse than the first (bound %.0f%%)\n",
					s.name, b.Name, worse*100, b.Bound*100)
				bad++
			}
			if spread > b.Bound && b.Name != "setup_s" {
				fmt.Printf("selfcheck: %s %s: spread %.1f%% wider than the bound %.0f%%\n",
					s.name, b.Name, spread*100, b.Bound*100)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck failed: the same code disagrees with itself on %d point(s)", bad)
	}
	fmt.Println("selfcheck passed: two sets of the same code agree within every bound")
	return nil
}
