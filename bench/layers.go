package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/partition"
)

// perLayerMetrics are what a traced run reports. Layers are named after
// the repo's packages; driver.* are read from core.Job.Stats and the
// driver's own clock, ledger.* are unit cost x observed count.
var perLayerMetrics = []metricDef{
	// Read-outs from the traced end-to-end repetitions.
	{"driver.tasks", "count"},
	{"driver.schedule_ms_per_task", "ms"},
	{"driver.compute_ms_per_task", "ms"},
	{"driver.shuffle_wait_ms_per_task", "ms"},
	{"driver.per_op_p95_ms", "ms"},
	{"driver.first_iter_ms", "ms"},
	{"user.busy_s", "s"},
	{"user.calls", "count"},
	{"bucket.raw_bytes", "bytes"},
	{"bucket.wire_bytes", "bytes"},
	{"bucket.wire_ratio", "ratio"},
	{"core.resident_hit_rate", "ratio"},
	{"sched.retries", "count"},
	{"sched.speculative", "count"},
	{"trace_overhead_pct", "%"},
	// Layer replay: one real map-output split driven through each
	// layer's public API on one goroutine.
	{"xmlrpc.roundtrip_us", "us"},
	{"xmlrpc.codec_us", "us"},
	{"sched.dispatch_us", "us"},
	{"bucket.write_mb_s", "MB/s"},
	{"bucket.fetch_mb_s", "MB/s"},
	{"kvio.decode_mb_s", "MB/s"},
	{"shuffle.sort_mb_s", "MB/s"},
	{"core.textsplit_ms", "ms"},
	{"core.resident_get_us", "us"},
	// Ledger, per repetition.
	{"ledger.control_s", "s"},
	{"ledger.write_s", "s"},
	{"ledger.fetch_s", "s"},
	{"ledger.decode_s", "s"},
	{"ledger.sort_s", "s"},
	{"ledger.user_s", "s"},
	{"ledger.text_s", "s"},
	{"ledger.slot_s", "s"},
	{"ledger.accounted_pct", "%"},
}

// rpcsPerTask is the control traffic one task costs in the flat star:
// a get_task long-poll and a task_done report.
const rpcsPerTask = 2

// runTraced is the separate traced run behind the per-layer numbers:
// untraced repetitions for the overhead baseline, traced repetitions
// on a fleet sharing one obs.Runtime with wrapped user functions, then
// the layer replay and the ledger.
func runTraced(w workload, inst *instance, cfg runConfig, dir string) (result, []string, error) {
	// Baseline fleet: same code as the end-to-end run.
	rtA := obs.New(nil)
	ca, err := startFleet(inst.reg, rtA)
	if err != nil {
		return result{}, nil, err
	}
	base := &fleetRun{inst: inst, c: ca, rt: rtA}
	base.measure(cfg.seconds/4, cfg.minReps)
	var payload []kvio.Pair
	if base.firstErr == nil {
		payload, err = captureSplit(ca, inst)
		if err != nil {
			base.firstErr = fmt.Errorf("capturing a map-output split: %w", err)
		}
	}
	if err := ca.Close(); err != nil && base.firstErr == nil {
		base.firstErr = err
	}

	// Traced fleet.
	rec := newRecorder(w.name)
	user := newUserStats(rec)
	rtB := obs.New(nil)
	rtB.StartTrace()
	cb, err := startFleet(user.wrapRegistry(inst.reg, inst.maps, inst.reduces), rtB)
	if err != nil {
		return result{}, nil, err
	}
	traced := &fleetRun{inst: inst, c: cb, rt: rtB, rec: rec, user: user, root: rec.reserve(), repOfJob: map[int64]repRef{}}
	rootStart := time.Now()
	traced.measure(cfg.seconds/4, cfg.minReps)
	rec.addReserved(traced.root, "workload:"+w.name, "driver", 0, -1, rootStart, time.Now())
	rec.addTaskSpans(rtB.T().Spans(), traced.repOfJob)
	if err := cb.Close(); err != nil && traced.firstErr == nil {
		traced.firstErr = err
	}

	firstErr := base.firstErr
	if firstErr == nil {
		firstErr = traced.firstErr
	}
	m := map[string]float64{}
	reps := float64(max(len(traced.walls), 1))
	delta := func(name string) float64 { return float64(traced.counters[name]) }

	st := traced.stats
	tasks := float64(max(st.Tasks, 1))
	m["driver.tasks"] = float64(st.Tasks) / reps
	m["driver.schedule_ms_per_task"] = float64(st.ScheduleNS) / tasks / 1e6
	m["driver.compute_ms_per_task"] = float64(st.ComputeNS) / tasks / 1e6
	m["driver.shuffle_wait_ms_per_task"] = float64(st.ShuffleNS) / tasks / 1e6
	if beyond(len(traced.perOp), 95) >= tailSamples {
		m["driver.per_op_p95_ms"] = percentile(traced.perOp, 95)
	}
	m["driver.first_iter_ms"] = median(traced.firstStep)
	calls, busy, perFunc := user.totals()
	m["user.busy_s"] = busy.Seconds() / reps
	m["user.calls"] = float64(calls) / reps
	raw := delta(obs.MetricShuffleBytesDirect) + delta(obs.MetricShuffleBytesShared)
	wire := delta(obs.MetricWireBytesDirect) + delta(obs.MetricWireBytesShared)
	m["bucket.raw_bytes"] = raw / reps
	m["bucket.wire_bytes"] = wire / reps
	if raw > 0 {
		m["bucket.wire_ratio"] = wire / raw
	}
	if lookups := st.ResidentHits + st.ResidentMisses; lookups > 0 {
		m["core.resident_hit_rate"] = float64(st.ResidentHits) / float64(lookups)
	}
	m["sched.retries"] = delta("mrs_sched_retries_total")
	m["sched.speculative"] = delta(obs.MetricSchedSpeculative)
	wallTraced, wallBase := median(traced.walls), median(base.walls)
	if wallBase > 0 {
		m["trace_overhead_pct"] = (wallTraced - wallBase) / wallBase * 100
	}

	// Layer replay.
	if firstErr == nil {
		rp := &replayer{rec: rec, budget: time.Duration(cfg.seconds / 2 / float64(replayLayers) * float64(time.Second)), dir: dir}
		if err := rp.run(inst, payload, m); err != nil {
			firstErr = fmt.Errorf("layer replay: %w", err)
		}
	}

	// Ledger: unit cost x observed count, per repetition, against the
	// slot-seconds the fleet offered. An estimate, not a gate.
	var reduceIn, mapIn, outBytes, mapEmit float64
	for _, op := range st.Ops {
		outBytes += float64(op.OutBytes)
		if op.Kind == "reduce" {
			reduceIn += float64(op.InBytes)
		} else if len(inst.textPaths) == 0 { // text input is split, not decoded
			mapIn += float64(op.InBytes)
		}
	}
	if inst.combiner != "" {
		for _, name := range inst.maps {
			mapEmit += float64(perFunc[name].EmitBytes)
		}
	}
	perMB := func(bytes, mbPerS float64) float64 {
		if mbPerS == 0 {
			return 0
		}
		return bytes / reps / 1e6 / mbPerS
	}
	m["ledger.control_s"] = m["driver.tasks"] * (rpcsPerTask*m["xmlrpc.roundtrip_us"] + m["sched.dispatch_us"]) / 1e6
	m["ledger.write_s"] = perMB(outBytes, m["bucket.write_mb_s"])
	m["ledger.fetch_s"] = perMB(raw, m["bucket.fetch_mb_s"])
	m["ledger.decode_s"] = perMB(reduceIn+mapIn, m["kvio.decode_mb_s"])
	m["ledger.sort_s"] = perMB(reduceIn+mapEmit, m["shuffle.sort_mb_s"])
	m["ledger.user_s"] = m["user.busy_s"]
	m["ledger.text_s"] = m["core.textsplit_ms"] / 1e3
	m["ledger.slot_s"] = wallTraced * fleetSlaves
	if slot := m["ledger.slot_s"]; slot > 0 {
		m["ledger.accounted_pct"] = 100 * (m["ledger.control_s"] + m["ledger.write_s"] + m["ledger.fetch_s"] +
			m["ledger.decode_s"] + m["ledger.sort_s"] + m["ledger.user_s"] + m["ledger.text_s"]) / slot
	}

	// The trace is written when the run ends and must pass the repo's
	// own validator, with every parent resolving.
	tracePath := filepath.Join(cfg.scratch, "trace-"+w.name+".json")
	nspans, err := writeAndCheckTrace(rec, tracePath)
	if err != nil && firstErr == nil {
		firstErr = err
	}

	res := result{
		Correct:   firstErr == nil && traced.failed == 0 && base.failed == 0,
		Attempted: max(traced.attempted+base.attempted, 1),
		Failed:    traced.failed + base.failed,
		Metrics:   map[string]metricValue{},
	}
	lines := []string{fmt.Sprintf("workload %s seed %d (traced): %s", w.name, cfg.seed, inst.describe),
		fmt.Sprintf("  traced wall_s %.4f over %d repetitions, untraced %.4f over %d; %d spans in %s",
			wallTraced, len(traced.walls), wallBase, len(base.walls), nspans, tracePath)}
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		lines = append(lines, fmt.Sprintf("  %-32s %14.4f %s", d.name, m[d.name], d.unit))
	}
	names := make([]string, 0, len(perFunc))
	for name := range perFunc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fs := perFunc[name]
		lines = append(lines, fmt.Sprintf("  user %-27s %14.4f s busy, %d calls, %d bytes emitted (per repetition)",
			name, time.Duration(fs.BusyNS).Seconds()/reps, int64(float64(fs.Calls)/reps), int64(float64(fs.EmitBytes)/reps)))
	}
	spans := rec.snapshot()
	for _, s := range spans {
		if s.Parent == traced.root && s.Name == "repetition" && s.Rep >= 0 {
			lines = append(lines, fmt.Sprintf("  repetition %d: %.4f s, %.4f s of it covered by no task or user span",
				s.Rep, s.dur().Seconds(), selfTime(spans, s.ID).Seconds()))
		}
	}
	if firstErr != nil {
		lines = append(lines, "  FAILED: "+firstErr.Error())
	}
	return res, lines, nil
}

// captureSplit runs the workload's source and first map (without its
// combiner) on the live fleet and returns the records of output split
// 0: what one reduce task would fetch, decode and sort.
func captureSplit(c *cluster.Cluster, inst *instance) ([]kvio.Pair, error) {
	parter, err := partition.ByName(inst.mapPartition)
	if err != nil {
		return nil, err
	}
	var split []kvio.Pair
	mj, err := c.Submit("capture", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		ds, err := inst.mapStage(job)
		if err != nil {
			return err
		}
		pairs, err := ds.Collect()
		if err != nil {
			return err
		}
		for _, p := range pairs {
			// The workloads' map outputs use key-pure partitioners, so
			// the serial number does not matter.
			if parter(p.Key, 0, inst.mapSplits) == 0 {
				split = append(split, p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return split, mj.Wait()
}

func writeAndCheckTrace(rec *recorder, path string) (int, error) {
	var buf bytes.Buffer
	if err := rec.writeChromeTrace(&buf); err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return 0, err
	}
	st, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return 0, fmt.Errorf("trace %s: %w", path, err)
	}
	spans := rec.snapshot()
	ids := map[int64]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			return 0, fmt.Errorf("trace %s: span %d (%s) has unknown parent %d", path, s.ID, s.Name, s.Parent)
		}
	}
	if st.Spans != len(spans) {
		return 0, fmt.Errorf("trace %s: %d events written for %d spans", path, st.Spans, len(spans))
	}
	return st.Spans, nil
}
