package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kvio"
)

// TestPipelineUnboundedQueue proves the DAG runner's pending set is
// unbounded: the old driver's bounded queue (capacity 1024) deadlocked
// any program that queued more operations ahead than that.
func TestPipelineUnboundedQueue(t *testing.T) {
	exec := NewThreads(testRegistry(), 4)
	defer exec.Close()
	job := NewJob(exec)
	ds, err := job.LocalData([]kvio.Pair{{Key: []byte("k"), Value: []byte("v")}}, OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	const chain = 1500 // > the old 1024-slot queue
	for i := 0; i < chain; i++ {
		ds, err = job.Map(ds, "identity", OpOpts{})
		if err != nil {
			t.Fatalf("queueing op %d: %v", i, err)
		}
	}
	pairs, err := ds.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || string(pairs[0].Key) != "k" || string(pairs[0].Value) != "v" {
		t.Fatalf("chain output = %v", pairs)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNarrowDecision checks which queued reduces the scheduler treats
// as narrow (split-aligned).
func TestNarrowDecision(t *testing.T) {
	reg := testRegistry()
	reg.RegisterReduce("first", func(key []byte, values [][]byte, emit kvio.Emitter) error {
		return emit.Emit(key, values[0])
	})
	exec := NewSerial(reg)
	defer exec.Close()
	job := NewJob(exec)
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := job.Map(src, "split", OpOpts{Splits: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		queue  func() (*Dataset, error)
		narrow bool
	}{
		{"aligned-hash", func() (*Dataset, error) {
			return job.Reduce(mapped, "first", OpOpts{Splits: 3, KeyAligned: true})
		}, true},
		{"no-promise", func() (*Dataset, error) {
			return job.Reduce(mapped, "first", OpOpts{Splits: 3})
		}, false},
		{"split-mismatch", func() (*Dataset, error) {
			return job.Reduce(mapped, "first", OpOpts{Splits: 2, KeyAligned: true})
		}, false},
		{"serial-partitioner-input", func() (*Dataset, error) {
			// src is roundrobin-partitioned: not key-pure, so keys of
			// split s are not guaranteed to re-partition back to s.
			return job.Reduce(src, "first", OpOpts{Splits: 2, KeyAligned: true})
		}, false},
	}
	for _, tc := range cases {
		ds, err := tc.queue()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		job.mu.Lock()
		narrow := job.states[ds.ID()].narrow
		job.mu.Unlock()
		if narrow != tc.narrow {
			t.Errorf("%s: narrow = %v, want %v", tc.name, narrow, tc.narrow)
		}
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNarrowEnforcement: a reduce that breaks its KeyAligned promise by
// re-keying must fail its task instead of silently scattering records
// downstream tasks were told would stay aligned.
func TestNarrowEnforcement(t *testing.T) {
	reg := testRegistry()
	reg.RegisterReduce("rekey", func(key []byte, values [][]byte, emit kvio.Emitter) error {
		return emit.Emit([]byte("all"), values[0])
	})
	exec := NewThreads(reg, 2)
	defer exec.Close()
	job := NewJob(exec)
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := job.Map(src, "split", OpOpts{Splits: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.Reduce(mapped, "rekey", OpOpts{Splits: 4, KeyAligned: true})
	if err != nil {
		t.Fatal(err)
	}
	err = out.Wait()
	if err == nil || !strings.Contains(err.Error(), "not its own split") {
		t.Errorf("Wait err = %v, want alignment violation", err)
	}
	if job.Close() == nil {
		t.Error("job should report failure")
	}
}

// TestFreeNonBlocking: Free on a dataset whose consumer is still
// running must return immediately (recording intent), keep the storage
// alive until the consumer finishes, and release it afterwards.
func TestFreeNonBlocking(t *testing.T) {
	reg := testRegistry()
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	reg.RegisterMap("gate", func(key, value []byte, emit kvio.Emitter) error {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return emit.Emit(key, value)
	})
	exec := NewSerial(reg)
	defer exec.Close()
	job := NewJob(exec)
	src, err := job.LocalData(linesAsPairs(), OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	srcMat, err := job.wait(src.ID()) // sources materialize at enqueue
	if err != nil {
		t.Fatal(err)
	}
	srcURL := srcMat.URLs(0)[0]
	gated, err := job.Map(src, "gate", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the consumer task is now running against src's buckets

	freed := make(chan struct{})
	go func() {
		_ = src.Free()
		close(freed)
	}()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("Free blocked on a still-consumed dataset")
	}
	// Storage must survive until the consumer completes.
	if rc, err := exec.Store().Open(srcURL); err != nil {
		t.Fatalf("src bucket released while consumer running: %v", err)
	} else {
		rc.Close()
	}
	close(release)
	if err := gated.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	// Consumer done and job drained: the deferred free must have fired.
	if rc, err := exec.Store().Open(srcURL); err == nil {
		rc.Close()
		t.Error("src bucket still readable after deferred free")
	}
	// Collect on a freed dataset fails deterministically.
	if _, err := src.Collect(); err == nil {
		t.Error("Collect succeeded on freed dataset")
	}
	// The consumer's own output is unaffected.
	if _, err := gated.Collect(); err != nil {
		t.Errorf("consumer Collect: %v", err)
	}
}

// TestBarrieredAblationAgrees: the Pipeline=false ablation must produce
// byte-identical output to the pipelined default.
func TestBarrieredAblationAgrees(t *testing.T) {
	run := func(opts JobOptions) []kvio.Pair {
		exec := NewThreads(testRegistry(), 4)
		defer exec.Close()
		job := NewJobWith(exec, opts)
		src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := job.Map(src, "split", OpOpts{Splits: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			ds, err = job.Reduce(ds, "sum", OpOpts{Splits: 3, KeyAligned: true})
			if err != nil {
				t.Fatal(err)
			}
		}
		pairs, err := ds.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Close(); err != nil {
			t.Fatal(err)
		}
		return pairs
	}
	pipelined := run(JobOptions{Pipeline: true})
	barriered := run(JobOptions{Pipeline: false})
	if len(pipelined) != len(barriered) {
		t.Fatalf("record counts differ: %d vs %d", len(pipelined), len(barriered))
	}
	for i := range pipelined {
		if !bytes.Equal(pipelined[i].Key, barriered[i].Key) || !bytes.Equal(pipelined[i].Value, barriered[i].Value) {
			t.Fatalf("record %d differs: %v vs %v", i, pipelined[i], barriered[i])
		}
	}
	checkCounts(t, pipelined)
}

// TestBarrieredWaitsBehindCallTimeSource: a LocalData source is
// complete as soon as it is queued, so in the barriered ablation a map
// over it, queued behind a map that is still running, must still wait
// for that map: strict queue order is against the first unfinished
// operation, not the one just before.
func TestBarrieredWaitsBehindCallTimeSource(t *testing.T) {
	reg := testRegistry()
	gate := make(chan struct{})
	reg.RegisterMap("gate", func(key, value []byte, emit kvio.Emitter) error {
		<-gate
		return emit.Emit(key, value)
	})
	exec := NewThreads(reg, 4)
	defer exec.Close()
	job := NewJobWith(exec, JobOptions{Pipeline: false})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	first, err := job.LocalData([]kvio.Pair{{Key: []byte("a")}}, OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	gated, err := job.Map(first, "gate", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	words, err := job.Map(src, "split", OpOpts{Splits: 2})
	if err != nil {
		t.Fatal(err)
	}
	job.mu.Lock()
	started := job.states[words.id].started
	job.mu.Unlock()
	if started {
		t.Fatal("map over a call-time source started while an earlier map was still running")
	}
	release()
	if _, err := gated.Collect(); err != nil {
		t.Fatal(err)
	}
	out, err := job.Reduce(words, "sum", OpOpts{Splits: 2})
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
}

// TestCollectParallelPreservesOrder: the bounded-pool Collect must
// return exactly the sequential per-split concatenation.
func TestCollectParallelPreservesOrder(t *testing.T) {
	exec := NewThreads(testRegistry(), 4)
	defer exec.Close()
	job := NewJob(exec)
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 3, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.MapReduce(src, "split", "sum", OpOpts{Splits: 5}, OpOpts{Splits: 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	m, err := job.wait(out.ID())
	if err != nil {
		t.Fatal(err)
	}
	var want []kvio.Pair
	for s := range m.Splits {
		for _, u := range m.URLs(s) {
			if want, err = exec.Store().AppendAll(want, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Collect returned %d records, sequential read %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("record %d out of order: %q vs %q", i, got[i].Key, want[i].Key)
		}
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
}
