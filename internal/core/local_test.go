package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// runIdentity pushes n pairs in splits splits through a map in job,
// closes the job and checks that every pair came back.
func runIdentity(t *testing.T, job *Job, n, splits int) {
	t.Helper()
	pairs := make([]kvio.Pair, n)
	for i := range pairs {
		pairs[i] = kvio.Pair{Key: fmt.Appendf(nil, "k%d", i), Value: fmt.Appendf(nil, "v%d", i)}
	}
	src, err := job.LocalData(pairs, OpOpts{Splits: splits, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.Map(src, "identity", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d pairs back, want %d", len(got), n)
	}
}

// waitGoroutines waits until at most want goroutines run. A worker
// exits just after the callback that completes the last task returns,
// so the count settles a moment after the job does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// An executor nobody closes holds no goroutine once its tasks are done,
// and the workers it starts again for a second job run on the same
// lanes, worker-0 to worker-N-1, one task at a time per lane. Which
// lanes a wave uses is the Go scheduler's choice (a worker started
// later may drain the queue before an earlier one runs), so the test
// asserts only the lane contract: every span lies on a named lane, and
// no two spans on one lane overlap in time (the job fuses nothing, so
// each span is its own task).
func TestIdleLocalExecutorHoldsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := obs.New(clock.Real{})
	rt.StartTrace()
	exec := NewThreads(testRegistry(), 3)
	exec.SetObserver(rt)
	for wave := 0; wave < 2; wave++ {
		runIdentity(t, NewJobWith(exec, JobOptions{Pipeline: true, Obs: rt}), 600, 12)
		waitGoroutines(t, base)
	}
	byLane := map[string][]obs.Span{}
	for _, sp := range rt.Trace.Spans() {
		byLane[sp.Worker] = append(byLane[sp.Worker], sp)
	}
	if len(byLane) == 0 {
		t.Fatal("no spans traced")
	}
	for lane, spans := range byLane {
		if lane != "worker-0" && lane != "worker-1" && lane != "worker-2" {
			t.Errorf("%d spans on lane %q, want worker-0..2", len(spans), lane)
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
		for i := 1; i < len(spans); i++ {
			if prev := spans[i-1]; spans[i].Start.Before(prev.End) {
				t.Errorf("%s: task %d/%d starts at %v, before task %d/%d ends at %v",
					lane, spans[i].Dataset, spans[i].Task, spans[i].Start, prev.Dataset, prev.Task, prev.End)
			}
		}
	}
}

// Close waits for the running tasks, and a Submit after Close still
// runs its task and fires its callback exactly once.
func TestSubmitAfterCloseRunsOnce(t *testing.T) {
	exec := NewSerial(testRegistry())
	runIdentity(t, NewJob(exec), 10, 2)
	if err := exec.Close(); err != nil {
		t.Fatal(err)
	}
	runIdentity(t, NewJob(exec), 10, 2)
	var calls atomic.Int32
	done := make(chan error, 1)
	spec := &TaskSpec{Op: &Operation{Kind: OpMap, Input: 0, Dataset: 1, FuncName: "no-such-map", Splits: 1}}
	exec.Submit(spec, func(_ *TaskResult, err error) {
		calls.Add(1)
		done <- err
	})
	select {
	case err := <-done:
		if err == nil {
			t.Error("a task naming no registered map succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a task submitted after Close never ran")
	}
	if err := exec.Close(); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("callback fired %d times, want 1", n)
	}
}

// BenchmarkLocalData queues 60,000 k-means-shaped pairs (a varint key,
// a 32-dimensional point) as a two-split source in a fresh job on a
// memory store, then frees it. LocalData encodes each pair straight
// into its split's bucket: nothing is allocated per pair, only the
// partition index, the writers and their buffers' doublings.
func BenchmarkLocalData(b *testing.B) {
	pairs := make([]kvio.Pair, 60000)
	point := make([]float64, 32)
	for i := range pairs {
		for d := range point {
			point[d] = float64(i*d%1000) / 7
		}
		pairs[i] = kvio.Pair{Key: codec.EncodeVarint(int64(i)), Value: codec.EncodeFloat64Slice(point)}
	}
	exec := NewSerial(testRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := NewJob(exec)
		ds, err := job.LocalData(pairs, OpOpts{Splits: 2, Partition: "roundrobin"})
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.Free(); err != nil {
			b.Fatal(err)
		}
		if err := job.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
