package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

func tinyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 3, seconds: 0.05, trace: trace, sz: tinySize, setupCycles: 1, minReps: 2, scratch: t.TempDir()}
}

// checkMetrics asserts that exactly the named metrics were emitted,
// each with its unit.
func checkMetrics(t *testing.T, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, %d named", len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.name)
		case v.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s is %v", d.name, v.Value)
		}
	}
}

// TestWorkloadsTinyScale drives every workload through the benchmark's
// own code path, untraced and traced, at a size that takes milliseconds.
func TestWorkloadsTinyScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, lines, err := runWorkload(w, tinyConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct %v, failed %d of %d\n%v", res.Correct, res.Failed, res.Attempted, lines)
			}
			checkMetrics(t, res.Metrics, endToEndMetrics)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", name, v.Value)
				}
			}

			cfg := tinyConfig(t, true)
			res, lines, err = runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct %v, failed %d of %d\n%v", res.Correct, res.Failed, res.Attempted, lines)
			}
			checkMetrics(t, res.Metrics, perLayerMetrics)
			for _, name := range []string{"driver.tasks", "user.calls", "xmlrpc.roundtrip_us", "sched.dispatch_us",
				"bucket.write_mb_s", "bucket.fetch_mb_s", "kvio.decode_mb_s", "shuffle.sort_mb_s", "ledger.slot_s"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("layer metric %s is %v", name, res.Metrics[name].Value)
				}
			}

			data, err := os.ReadFile(filepath.Join(cfg.scratch, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			st, err := obs.ValidateChromeTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Ph   string `json:"ph"`
					Args struct {
						SpanID   int64 `json:"span_id"`
						ParentID int64 `json:"parent_id"`
					} `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			ids := map[int64]bool{}
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" {
					ids[ev.Args.SpanID] = true
				}
			}
			if len(ids) != st.Spans {
				t.Errorf("%d distinct span ids for %d spans", len(ids), st.Spans)
			}
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" && ev.Args.ParentID != 0 && !ids[ev.Args.ParentID] {
					t.Errorf("span %d has unknown parent %d", ev.Args.SpanID, ev.Args.ParentID)
				}
			}
		})
	}
}

// TestSpecNamesWhatIsEmitted keeps BENCHMARK.json and the code in step:
// every workload and metric it names exists with that unit, and nothing
// else does.
func TestSpecNamesWhatIsEmitted(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in code", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, spec []specMetric, code []metricDef) {
		if len(spec) != len(code) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(spec), kind, len(code))
		}
		for i, m := range spec {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in code", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEndMetrics)
	same("per_layer", sp.PerLayer, perLayerMetrics)
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v", m.Name, m.Bound)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds is %d", sp.RunSeconds)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got := median(xs); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	if lo, hi := minMax(xs); lo != 1 || hi != 9 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
	if xs[0] != 9 {
		t.Error("median reordered its input")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v", got)
	}
	// The highest percentile reported is the highest with at least ten
	// samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := beyond(200, 95); got != 10 {
		t.Errorf("beyond(200, 95) = %d", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Start: at(30), End: at(60)},  // overlaps span 2
		{ID: 4, Parent: 1, Start: at(90), End: at(120)}, // runs past its parent
		{ID: 5, Parent: 2, Start: at(10), End: at(20)},  // a grandchild does not count
	}
	if got := selfTime(spans, 1); got != 40*time.Millisecond {
		t.Errorf("self time = %v, want 40ms", got)
	}
}

func TestCompare(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, scale float64, failed int) string {
		set := resultSet{Workloads: map[string]result{}}
		for _, w := range workloads {
			r := result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
			for _, d := range endToEndMetrics {
				r.Metrics[d.name] = metricValue{10 * scale, d.unit}
			}
			set.Workloads[w.name] = r
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, near, slow, broken := write("a.json", 1, 0), write("b.json", 1.04, 0), write("c.json", 1.3, 0), write("d.json", 1, 2)
	if err := compareFiles(sp, base, near); err != nil {
		t.Errorf("4%% apart: %v", err)
	}
	if err := compareFiles(sp, near, base); err != nil {
		t.Errorf("4%% apart, reversed: %v", err)
	}
	if err := compareFiles(sp, base, slow); err == nil {
		t.Error("30% worse passed")
	}
	if err := compareFiles(sp, slow, base); err != nil {
		t.Errorf("30%% better: %v", err)
	}
	if err := compareFiles(sp, base, broken); err == nil {
		t.Error("a risen failed share passed")
	}
}
