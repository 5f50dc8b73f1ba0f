package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// runTracedWordCount runs the standard wordcount pipeline on a serial
// executor under a fake clock and returns the exported Chrome trace
// plus the job's cost breakdown.
func runTracedWordCount(t *testing.T) ([]byte, JobStats, *obs.Runtime) {
	t.Helper()
	clk := clock.NewFake(time.Unix(1_000_000, 0))
	rt := obs.New(clk)
	rt.StartTrace()

	exec := NewSerial(testRegistry())
	exec.SetObserver(rt)
	defer exec.Close()

	job := NewJobWith(exec, JobOptions{Pipeline: true, Obs: rt, Clock: clk})
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.MapReduce(src, "split", "sum", OpOpts{Splits: 3}, OpOpts{Splits: 3})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	checkCounts(t, pairs)

	var buf bytes.Buffer
	if err := rt.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), job.Stats(), rt
}

// TestTraceDeterministicOnFakeClock: a serial run under the fake clock
// must produce a byte-identical trace every time — timestamps come from
// the injected clock and span ordering is canonical, so goroutine
// interleaving cannot leak into the file.
func TestTraceDeterministicOnFakeClock(t *testing.T) {
	a, _, _ := runTracedWordCount(t)
	b, _, _ := runTracedWordCount(t)
	if !bytes.Equal(a, b) {
		t.Errorf("two identical runs produced different traces:\n%s\n---\n%s", a, b)
	}
	st, err := obs.ValidateChromeTrace(a)
	if err != nil {
		t.Fatalf("invalid trace: %v\n%s", err, a)
	}
	// 2 map tasks (one per input split) + 3 reduce tasks, each a single
	// attempt on the serial executor's one worker lane.
	if st.Spans != 5 || st.Workers != 1 || st.MaxAttempt != 1 || st.Errors != 0 {
		t.Errorf("trace stats = %+v, want 5 spans / 1 worker / max attempt 1", st)
	}
}

// TestJobStatsAndMetrics checks that the span count, the metrics
// counters, and Job.Stats agree on how much work ran.
func TestJobStatsAndMetrics(t *testing.T) {
	trace, stats, rt := runTracedWordCount(t)
	st, err := obs.ValidateChromeTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if int64(st.Spans) != stats.Tasks {
		t.Errorf("trace has %d spans but Job.Stats counts %d tasks", st.Spans, stats.Tasks)
	}
	if got := rt.M().Get("mrs_tasks_submitted_total"); got != stats.Tasks {
		t.Errorf("mrs_tasks_submitted_total = %d, want %d", got, stats.Tasks)
	}
	if got := rt.M().Get("mrs_tasks_executed_total"); got != stats.Tasks {
		t.Errorf("mrs_tasks_executed_total = %d, want %d", got, stats.Tasks)
	}
	if len(stats.Ops) != 2 {
		t.Fatalf("got %d ops, want map + reduce: %+v", len(stats.Ops), stats.Ops)
	}
	wantTasks := map[string]int64{"map": 2, "reduce": 3} // maps: one per input split
	var wall, parts int64
	for _, op := range stats.Ops {
		if op.Tasks != wantTasks[op.Kind] {
			t.Errorf("op %s/%s ran %d tasks, want %d", op.Kind, op.Func, op.Tasks, wantTasks[op.Kind])
		}
		if op.OutRecords == 0 || op.OutBytes == 0 {
			t.Errorf("op %s/%s reported no output: %+v", op.Kind, op.Func, op)
		}
		wall += op.WallNS
		parts += op.ScheduleNS + op.ComputeNS + op.ShuffleNS
	}
	if wall != stats.WallNS {
		t.Errorf("op wall sum %d != job wall %d", wall, stats.WallNS)
	}
	if parts != wall {
		t.Errorf("schedule+compute+shuffle = %d, want wall %d", parts, wall)
	}
	// The reduce stage read the map stage's buckets through the store,
	// so some shuffle bytes were classified (serial store = local).
	if got := rt.M().Get("mrs_shuffle_bytes_local_total"); got == 0 {
		t.Error("mrs_shuffle_bytes_local_total = 0, want > 0")
	}
}

// TestSorterFormCounters: a map with a combiner buffers its 17 emitted
// words in the hash-grouped form, and the reduce, which has none, sorts
// a prefix index of what reaches it — every word without the map-side
// combine, at most one record per word and map task with it.
func TestSorterFormCounters(t *testing.T) {
	for _, combine := range []string{"", "sum"} {
		rt := obs.New(clock.Real{})
		exec := NewSerial(testRegistry())
		exec.SetObserver(rt)
		checkCounts(t, runWordCount(t, exec, 3, 3, combine))
		exec.Close()
		grouped, indexed := rt.M().Get(obs.MetricSortGrouped), rt.M().Get(obs.MetricSortIndexed)
		if combine == "" && (grouped != 0 || indexed != 17) {
			t.Errorf("no combiner: grouped/indexed records = %d/%d, want 0/17", grouped, indexed)
		}
		if combine != "" && (grouped != 17 || indexed < 8 || indexed > 16) {
			t.Errorf("map-side combiner: grouped/indexed records = %d/%d, want 17/8..16", grouped, indexed)
		}
	}
}
