package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// worsening is how far a metric moved in its bad direction, as a share
// of the old value (negative = improved).
func worsening(m specMetric, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	change := (new - old) / old
	if m.Better == "higher" {
		return -change
	}
	return change
}

// compareFiles prints one row per workload and end-to-end metric and
// fails if any metric worsened beyond its bound in BENCHMARK.json or a
// workload's failed share rose. Run in both directions on two result
// sets of one commit, it is the benchmark's self-consistency check.
func compareFiles(sp *spec, oldPath, newPath string) error {
	oldSet, err := readResultSet(oldPath)
	if err != nil {
		return err
	}
	newSet, err := readResultSet(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s (commit %s, seed %d)\nnew: %s (commit %s, seed %d)\n",
		oldPath, oldSet.Commit, oldSet.Seed, newPath, newSet.Commit, newSet.Seed)
	fmt.Printf("%-18s %-12s %14s %14s %9s %7s\n", "workload", "metric", "old", "new", "change", "bound")
	regressions := 0
	for _, w := range sp.Workloads {
		o, okOld := oldSet.Workloads[w.Name]
		n, okNew := newSet.Workloads[w.Name]
		if !okOld || !okNew {
			fmt.Printf("%-18s missing from a results file\n", w.Name)
			regressions++
			continue
		}
		for _, m := range sp.EndToEnd {
			ov, nv := o.Metrics[m.Name].Value, n.Metrics[m.Name].Value
			worse := worsening(m, ov, nv)
			verdict := ""
			if worse > m.Bound {
				verdict = "  REGRESSION"
				regressions++
			}
			fmt.Printf("%-18s %-12s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.Name, m.Name, ov, nv, 100*(nv-ov)/ov, 100*m.Bound, verdict)
		}
		oldShare := float64(o.Failed) / float64(max(o.Attempted, 1))
		newShare := float64(n.Failed) / float64(max(n.Attempted, 1))
		if newShare > oldShare || !n.Correct {
			fmt.Printf("%-18s failed share rose: %d/%d -> %d/%d  REGRESSION\n", w.Name, o.Failed, o.Attempted, n.Failed, n.Attempted)
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions beyond the bounds of BENCHMARK.json", regressions)
	}
	fmt.Println("no metric worsened beyond its bound")
	return nil
}
