//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultSet is the document -out writes and -compare reads: every run
// of one invocation, each self-describing.
type resultSet struct {
	Runs []*runResult `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &set, nil
}

func (set *resultSet) write(path string) error {
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload over the
// set's untraced runs.
func (set *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.EndToEnd[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds loads the regression bounds from BENCHMARK.json, the one
// place they are stored.
func readBounds(path string) ([]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// Verdicts of one workload × metric comparison.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge compares the new runs of one metric against the old under its
// bound. worse is how far the new median is on the bad side of the old
// one, as a share of it; spread is the wider of the two sides'
// interquartile ranges as a share of their medians. A spread beyond
// the bound means the runs cannot resolve a change of that size: the
// verdict is then "unresolved", never "unchanged" — unless every new
// run reads better than every old one.
func judge(b bound, old, new []float64) (verdict string, worse, spread float64) {
	om, nm := median(old), median(new)
	worse = ratio(nm-om, om)
	if b.Better == "higher" {
		worse = -worse
	}
	spread = max(iqrShare(old), iqrShare(new))
	switch {
	case spread > b.Bound:
		if allBetter(b, old, new) {
			return verdictImproved, worse, spread
		}
		return verdictUnresolved, worse, spread
	case worse > b.Bound:
		return verdictRegression, worse, spread
	case worse < -b.Bound:
		return verdictImproved, worse, spread
	}
	return verdictUnchanged, worse, spread
}

// allBetter reports whether every new value beats every old value.
func allBetter(b bound, old, new []float64) bool {
	for _, o := range old {
		for _, n := range new {
			if (b.Better == "higher" && n <= o) || (b.Better != "higher" && n >= o) {
				return false
			}
		}
	}
	return true
}

// compareSets prints one row per workload × metric and returns how
// many regressed and how many the runs could not resolve.
func compareSets(w io.Writer, bounds []bound, old, new *resultSet) (regressions, unresolved int) {
	fmt.Fprintf(w, "%-9s %-17s %5s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "worse", "spread", "bound", "verdict")
	for _, s := range specs {
		for _, b := range bounds {
			o, n := old.values(s.name, b.Name), new.values(s.name, b.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			verdict, worse, spread := judge(b, o, n)
			switch verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-9s %-17s %5s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				s.name, b.Name, b.Unit, median(o), median(n), worse*100, spread*100, b.Bound*100, verdict)
		}
	}
	return regressions, unresolved
}
