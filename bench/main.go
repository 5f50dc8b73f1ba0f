// Command bench is the repository's benchmark: four workloads on the
// real in-process localhost fleet, end-to-end metrics from an untraced
// run and per-layer metrics from a separate traced run. BENCHMARK.json
// at the repository root names every workload, metric and bound; see
// README.md in this directory.
//
//	go run ./bench                       all workloads, untraced, writes results JSON
//	go run ./bench -trace 1              all workloads, the traced run
//	go run ./bench -workload pso-chain   one workload; last stdout line is its result
//	go run ./bench -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultSet is the results file `go run ./bench` writes and -compare
// reads: one result per workload plus where and how it was measured.
type resultSet struct {
	Commit    string            `json:"commit"`
	Go        string            `json:"go"`
	NProc     int               `json:"nproc"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

// scratchDir holds everything a run writes: generated inputs, the
// fleet's bucket stores, traces and the results file.
const scratchDir = ".bench_build"

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload, in this process (default: each workload in a child process)")
		seed         = flag.Uint64("seed", 1, "seed of every input generator")
		seconds      = flag.Float64("seconds", 0, "how long the timed repetitions of a workload run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 makes the traced run that reports the per-layer metrics")
		out          = flag.String("out", "", "results file of an all-workloads run (default "+scratchDir+"/results[-trace].json)")
		compare      = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace != 0, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed uint64, seconds float64, trace bool, out string, compare bool, args []string) error {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(sp, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	if workloadName != "" {
		w, ok := workloadByName(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		res, lines, err := runWorkload(w, benchConfig(seed, seconds, trace, scratchDir))
		if err != nil {
			return err
		}
		fmt.Println(strings.Join(lines, "\n"))
		last, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(last))
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		return nil
	}

	// Each workload runs in a child process of its own, so heap state
	// and peak_rss_mb are per workload.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: seed, Seconds: seconds, Trace: trace, Workloads: map[string]result{}}
	fmt.Printf("bench: commit %s, %s, nproc %d, seed %d, %g s per workload\n", set.Commit, set.Go, set.NProc, seed, seconds)
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[trace])
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		text := strings.TrimRight(stdout.String(), "\n")
		last := text[strings.LastIndexByte(text, '\n')+1:]
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Println(text)
			return fmt.Errorf("%s: no result (%v)", w.name, runErr)
		}
		fmt.Print(strings.TrimSuffix(text, last))
		set.Workloads[w.name] = res
		if runErr != nil {
			failed = append(failed, w.name)
		}
	}
	if out == "" {
		out = filepath.Join(scratchDir, "results.json")
		if trace {
			out = filepath.Join(scratchDir, "results-trace.json")
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("bench: results written to", out)
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}

// commit names the measured source; a checkout that is not a git
// repository has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
