package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// metricDef names a metric and its unit. Bounds and better-directions
// live in BENCHMARK.json; the test checks the two lists agree.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"per_op_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; its JSON form is the
// last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is how a workload run is sized. The command line sets seed,
// seconds and trace; the rest differs only between benchmark and test.
type runConfig struct {
	seed        uint64
	seconds     float64
	trace       bool
	sz          sizes
	setupCycles int    // cold start/probe/close cycles behind setup_s
	minReps     int    // timed repetitions to make even if seconds is spent
	scratch     string // directory for inputs, bucket stores and the trace
}

func benchConfig(seed uint64, seconds float64, trace bool, scratch string) runConfig {
	return runConfig{seed: seed, seconds: seconds, trace: trace, sz: fullSize, setupCycles: 9, minReps: 3, scratch: scratch}
}

// fleetSlaves is the fixed fleet: a flat star of 2 slaves with 1 slot
// each, sized for the 2 cores the benchmark is specified on.
const fleetSlaves = 2

// startFleet boots the in-process localhost fleet exactly as
// `-mrs=local` does with every flag at its default: no knob beyond the
// slave count and the default resident budget is set, so a change of a
// runtime default shows up in the numbers.
func startFleet(reg *core.Registry, rt *obs.Runtime) (*cluster.Cluster, error) {
	return cluster.Start(reg, cluster.Options{Slaves: fleetSlaves, ResidentBudget: core.DefaultResidentBudget, Obs: rt})
}

const (
	probeMapName    = "bench_probe_map"
	probeReduceName = "bench_probe_reduce"
	discardMapName  = "bench_discard_map"
)

func registerProbe(reg *core.Registry) {
	reg.RegisterMap(probeMapName, func(k, v []byte, emit kvio.Emitter) error { return emit.Emit(k, v) })
	reg.RegisterReduce(probeReduceName, func(k []byte, vs [][]byte, emit kvio.Emitter) error { return emit.Emit(k, vs[0]) })
	reg.RegisterMap(discardMapName, func(k, v []byte, emit kvio.Emitter) error { return nil })
}

// setupCycle times a cold start: fleet up, both slaves signed in, a
// one-record no-op MapReduce through it, fleet closed.
func setupCycle(reg *core.Registry) (time.Duration, error) {
	start := time.Now()
	c, err := startFleet(reg, obs.New(nil))
	if err != nil {
		return 0, err
	}
	mj, err := c.Submit("probe", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		src, err := job.LocalData([]kvio.Pair{kvio.StrPair("k", "v")}, core.OpOpts{})
		if err != nil {
			return err
		}
		out, err := job.MapReduce(src, probeMapName, probeReduceName, core.OpOpts{}, core.OpOpts{})
		if err != nil {
			return err
		}
		pairs, err := out.Collect()
		if err != nil {
			return err
		}
		if len(pairs) != 1 || !bytes.Equal(pairs[0].Value, []byte("v")) {
			return fmt.Errorf("setup probe returned %v", pairs)
		}
		return nil
	})
	if err == nil {
		err = mj.Wait()
	}
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return time.Since(start), err
}

// fleetRun is one live fleet running repetitions of one workload.
type fleetRun struct {
	inst *instance
	c    *cluster.Cluster
	rt   *obs.Runtime
	rec  *recorder  // nil when untraced
	user *userStats // nil when untraced
	root int64      // span the repetitions hang under

	walls     []float64 // seconds, one per timed repetition
	perOp     []float64 // ms, every timed superstep
	firstStep []float64 // ms, first superstep of each timed repetition
	attempted int
	failed    int
	firstErr  error
	stats     core.JobStats // summed over timed repetitions
	repOfJob  map[int64]repRef
	// counters sums, over the timed regions of a traced run, how far
	// each runtime counter moved (verification traffic stays out).
	counters map[string]int64
}

// repetition runs the workload once as a managed job, the way
// `-mrs=local` submits a program. Verification happens inside
// inst.rep after it has stopped the clock.
func (f *fleetRun) repetition(idx int, timed bool) {
	clk := &repClock{}
	spanID := f.rec.reserve()
	if f.user != nil {
		f.user.parent.Store(spanID)
		f.user.rep.Store(int64(idx))
	}
	var stats core.JobStats
	var moved map[string]int64
	if f.rec != nil {
		before := f.rt.M().Snapshot()
		clk.onStop = func() {
			moved = f.rt.M().Snapshot()
			for name := range moved {
				moved[name] -= before[name]
			}
		}
	}
	clk.start = time.Now()
	mj, err := f.c.Submit("bench", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		if f.repOfJob != nil {
			f.repOfJob[int64(job.ID())] = repRef{span: spanID, rep: idx}
		}
		err := f.inst.rep(job, clk)
		stats = job.Stats()
		return err
	})
	if err == nil {
		err = mj.Wait()
	}
	if clk.end.IsZero() {
		clk.stop()
	}
	f.rec.addReserved(spanID, "repetition", "driver", f.root, idx, clk.start, clk.end)
	if f.user != nil {
		f.user.flushAll()
	}
	if !timed {
		if err != nil && f.firstErr == nil {
			f.firstErr = fmt.Errorf("warm-up: %w", err)
		}
		return
	}
	f.attempted += f.inst.opsPerRep
	if err != nil {
		f.failed += f.inst.opsPerRep
		if f.firstErr == nil {
			f.firstErr = err
		}
		return
	}
	f.walls = append(f.walls, clk.end.Sub(clk.start).Seconds())
	f.perOp = append(f.perOp, clk.perOpMS()...)
	f.firstStep = append(f.firstStep, clk.firstStepMS())
	addStats(&f.stats, stats)
	for name, d := range moved {
		if f.counters == nil {
			f.counters = map[string]int64{}
		}
		f.counters[name] += d
	}
}

func addStats(sum *core.JobStats, s core.JobStats) {
	sum.Tasks += s.Tasks
	sum.WallNS += s.WallNS
	sum.ScheduleNS += s.ScheduleNS
	sum.ComputeNS += s.ComputeNS
	sum.ShuffleNS += s.ShuffleNS
	sum.InBytes += s.InBytes
	sum.OutBytes += s.OutBytes
	sum.ResidentHits += s.ResidentHits
	sum.ResidentMisses += s.ResidentMisses
	sum.Ops = append(sum.Ops, s.Ops...)
}

// measure runs one discarded warm-up repetition, then timed repetitions
// back to back until seconds have passed (and at least minReps). A
// warm-up that fails means the fleet or the workload is broken, so the
// timed repetitions are skipped.
func (f *fleetRun) measure(seconds float64, minReps int) {
	f.repetition(-1, false)
	if f.firstErr != nil {
		return
	}
	if f.user != nil {
		f.user.reset()
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		f.repetition(i, true)
	}
}

// runWorkload makes the whole run of one workload and returns what the
// contract's last line reports, plus human-readable lines.
func runWorkload(w workload, cfg runConfig) (result, []string, error) {
	dir, err := os.MkdirTemp(cfg.scratch, w.name+"-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	// The fleet's master and slaves keep their bucket stores under
	// os.TempDir; point it into the run's scratch directory so the
	// benchmark writes nowhere else.
	tmp := filepath.Join(dir, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return result{}, nil, err
	}
	if old, ok := os.LookupEnv("TMPDIR"); ok {
		defer os.Setenv("TMPDIR", old)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	os.Setenv("TMPDIR", tmp)

	inst, err := w.prepare(cfg.seed, cfg.sz, dir)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	registerProbe(inst.reg)
	if cfg.trace {
		return runTraced(w, inst, cfg, dir)
	}

	var setups []float64
	for i := 0; i < cfg.setupCycles; i++ {
		d, err := setupCycle(inst.reg)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s: setup cycle %d: %w", w.name, i, err)
		}
		setups = append(setups, d.Seconds())
	}

	rt := obs.New(nil)
	c, err := startFleet(inst.reg, rt)
	if err != nil {
		return result{}, nil, err
	}
	f := &fleetRun{inst: inst, c: c, rt: rt}
	f.measure(cfg.seconds, cfg.minReps)
	if err := c.Close(); err != nil && f.firstErr == nil {
		f.firstErr = err
	}

	res := result{
		Correct:   f.firstErr == nil && f.failed == 0 && len(f.walls) > 0,
		Attempted: max(f.attempted, 1),
		Failed:    f.failed,
		Metrics: map[string]metricValue{
			"wall_s":      {median(f.walls), "s"},
			"per_op_ms":   {median(f.perOp), "ms"},
			"setup_s":     {median(setups), "s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
	}
	lo, hi := minMax(f.walls)
	slo, shi := minMax(setups)
	lines := []string{
		fmt.Sprintf("workload %s seed %d: %s", w.name, cfg.seed, inst.describe),
		fmt.Sprintf("  wall_s       %.4f s   median of %d timed repetitions (min %.4f, max %.4f)", median(f.walls), len(f.walls), lo, hi),
		fmt.Sprintf("               repetitions: %.4f", f.walls),
		perOpLine(f.perOp),
		fmt.Sprintf("  setup_s      %.4f s   median of %d cold cycles (min %.4f, max %.4f)", median(setups), len(setups), slo, shi),
		fmt.Sprintf("  peak_rss_mb  %.1f MB", res.Metrics["peak_rss_mb"].Value),
		fmt.Sprintf("  failed_ops   %d of attempted_ops %d", res.Failed, res.Attempted),
	}
	if f.firstErr != nil {
		lines = append(lines, "  FAILED: "+f.firstErr.Error())
	}
	return res, lines, nil
}

func perOpLine(perOp []float64) string {
	lo, hi := minMax(perOp)
	line := fmt.Sprintf("  per_op_ms    %.4f ms  median of %d supersteps (min %.4f, max %.4f", median(perOp), len(perOp), lo, hi)
	if p := highestPercentile(len(perOp)); p > 0 {
		line += fmt.Sprintf(", p%g %.4f", p, percentile(perOp, p))
	}
	return line + ")"
}
