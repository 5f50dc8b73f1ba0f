package journal

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/clock"
	"repro/internal/obs"
)

func submitEv(job int64, name string) Event {
	return Event{Kind: EvJobSubmitted, Job: job, Name: name, SpecHash: SpecHash(name, true)}
}

func taskEv(job int64, dataset, task int, bytes int64) Event {
	return Event{
		Kind: EvTaskDone, Job: job, Dataset: dataset, Task: task, InBytes: bytes,
		Outputs: []Manifest{{Name: "b0", URL: "file:///tmp/b0", Records: 3, Bytes: bytes}},
	}
}

// append a few events, close cleanly, reopen: full state back.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 0 {
		t.Fatalf("fresh journal has %d jobs", len(st.Jobs))
	}
	must := func(ev Event) {
		t.Helper()
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	must(submitEv(1, "wordcount"))
	must(taskEv(1, 0, 0, 100))
	must(taskEv(1, 0, 1, 50))
	must(Event{Kind: EvJobWeight, Job: 1, Weight: 4})
	must(submitEv(2, "pi"))
	must(Event{Kind: EvJobDone, Job: 2})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	jr := st2.Job(1)
	if jr == nil || jr.Name != "wordcount" || jr.State != JobRunning {
		t.Fatalf("job 1 record = %+v", jr)
	}
	if jr.TasksDone != 2 || jr.ShuffleBytes != 150 {
		t.Fatalf("job 1 aggregates = %d tasks, %d bytes", jr.TasksDone, jr.ShuffleBytes)
	}
	if jr.Weight != 4 {
		t.Fatalf("job 1 weight = %d", jr.Weight)
	}
	if got := jr.TaskOutputs(0, 1); len(got) != 1 || got[0].URL != "file:///tmp/b0" {
		t.Fatalf("task outputs = %+v", got)
	}
	if jr2 := st2.Job(2); jr2 == nil || jr2.State != JobDone || jr2.Tasks != nil {
		t.Fatalf("job 2 record = %+v", st2.Job(2))
	}
	if st2.MaxJobID != 2 {
		t.Fatalf("MaxJobID = %d", st2.MaxJobID)
	}
}

// Abandon simulates a crash: no final checkpoint, but every appended
// record survives replay.
func TestAbandonReplaysAll(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(submitEv(1, "wc"))
	for i := 0; i < 10; i++ {
		j.Append(taskEv(1, 0, i, 10))
	}
	j.Abandon()

	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if jr := st.Job(1); jr == nil || jr.TasksDone != 10 {
		t.Fatalf("after abandon, job 1 = %+v", st.Job(1))
	}
}

// Torn final record (the usual crash shape): every earlier record
// replays, the tear is truncated away, and new appends land cleanly.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(submitEv(1, "wc"))
	j.Append(taskEv(1, 0, 0, 10))
	j.Append(taskEv(1, 0, 1, 10))
	j.Abandon()

	logPath := filepath.Join(dir, LogName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last 5 bytes of the final record.
	if err := os.WriteFile(logPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jr := st.Job(1)
	if jr == nil || jr.TasksDone != 1 {
		t.Fatalf("after torn tail, job 1 = %+v", jr)
	}
	// The tear is gone: appending and replaying again must work.
	if err := j2.Append(taskEv(1, 0, 7, 10)); err != nil {
		t.Fatal(err)
	}
	j2.Abandon()
	_, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if jr := st2.Job(1); jr.TasksDone != 2 || jr.TaskOutputs(0, 7) == nil {
		t.Fatalf("after re-append, job 1 = %+v", jr)
	}
}

// A flipped checksum byte mid-log ends replay at the last intact record
// before the flip — and never panics.
func TestFlippedChecksumByte(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(submitEv(1, "wc"))
	j.Append(taskEv(1, 0, 0, 10))
	j.Append(taskEv(1, 0, 1, 10))
	j.Abandon()

	logPath := filepath.Join(dir, LogName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second record's CRC field and flip a byte in it.
	off := len(magic)
	n0 := binary.LittleEndian.Uint32(data[off:])
	crcOff := off + 8 + int(n0) + 4
	data[crcOff] ^= 0xFF
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jr := st.Job(1)
	if jr == nil || jr.Name != "wc" {
		t.Fatalf("intact prefix lost: %+v", jr)
	}
	if jr.TasksDone != 0 {
		t.Fatalf("replay crossed a corrupt record: TasksDone = %d", jr.TasksDone)
	}
}

// A truncated checkpoint is ignored; replay falls back to the log.
func TestTruncatedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(submitEv(1, "wc"))
	j.Append(taskEv(1, 0, 0, 10))
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint record lives only in the log tail.
	j.Append(taskEv(1, 0, 1, 10))
	j.Abandon()

	cpPath := filepath.Join(dir, CheckpointName)
	data, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint is gone, so only the post-checkpoint tail survives: the
	// point is that replay neither panics nor trusts half a checkpoint.
	jr := st.Job(1)
	if jr == nil {
		t.Fatal("log tail lost with checkpoint")
	}
	if jr.TaskOutputs(0, 1) == nil {
		t.Fatalf("tail record lost: %+v", jr)
	}
}

// Crash between checkpoint rename and log truncation: the log still
// holds events the checkpoint already folded in; idempotent replay must
// not double-count them.
func TestCrashBetweenCheckpointAndTruncate(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(submitEv(1, "wc"))
	j.Append(taskEv(1, 0, 0, 10))
	j.Append(taskEv(1, 0, 1, 10))
	logBefore, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	j.Abandon()
	// Restore the pre-truncation log: checkpoint and log now overlap.
	if err := os.WriteFile(filepath.Join(dir, LogName), logBefore, 0o644); err != nil {
		t.Fatal(err)
	}

	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jr := st.Job(1)
	if jr.TasksDone != 2 || jr.ShuffleBytes != 20 {
		t.Fatalf("overlap double-counted: %d tasks, %d bytes", jr.TasksDone, jr.ShuffleBytes)
	}
}

// Double-open on one directory fails fast via the lock file; a
// released (crashed) journal unlocks automatically.
func TestLockFailsFast(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open on a live journal succeeded")
	}
	j.Abandon()
	j2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	j2.Close()
}

// Record-count compaction truncates the log and survives replay.
func TestRecordCountCheckpoint(t *testing.T) {
	dir := t.TempDir()
	met := obs.NewMetrics()
	j, _, err := Open(dir, Options{Metrics: met, CheckpointRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(submitEv(1, "wc"))
	for i := 0; i < 7; i++ {
		j.Append(taskEv(1, 0, i, 10))
	}
	if got := met.Get(obs.MetricJournalTruncations); got < 2 {
		t.Fatalf("truncations = %d, want >= 2", got)
	}
	if got := met.Get(obs.MetricJournalRecords); got != 8 {
		t.Fatalf("records = %d, want 8", got)
	}
	info, err := os.Stat(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	// After the last compaction at 6 appends, at most 2 records remain.
	if info.Size() > 1024 {
		t.Fatalf("log not compacted: %d bytes", info.Size())
	}
	j.Abandon()
	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if jr := st.Job(1); jr.TasksDone != 7 {
		t.Fatalf("after compaction, TasksDone = %d", jr.TasksDone)
	}
}

// Timer-driven compaction via the fake clock.
func TestClockDrivenCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fc := clock.NewFake(time.Unix(1000, 0))
	met := obs.NewMetrics()
	j, _, err := Open(dir, Options{
		Clock: fc, Metrics: met,
		CheckpointEvery:   time.Minute,
		CheckpointRecords: -1, // isolate the timer path
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Append(submitEv(1, "wc"))
	j.Append(taskEv(1, 0, 0, 10))
	fc.Advance(2 * time.Minute)
	deadline := time.Now().Add(2 * time.Second)
	for met.Get(obs.MetricJournalTruncations) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timer checkpoint never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if st, ok := readCheckpoint(filepath.Join(dir, CheckpointName)); !ok || st.Job(1) == nil {
		t.Fatal("checkpoint missing or unreadable after timer compaction")
	}
}

// Events stamped by the injected clock.
func TestClockStamps(t *testing.T) {
	dir := t.TempDir()
	start := time.Unix(5000, 0)
	fc := clock.NewFake(start)
	j, _, err := Open(dir, Options{Clock: fc, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(submitEv(1, "wc"))
	fc.Advance(3 * time.Second)
	j.Append(taskEv(1, 0, 0, 10))
	j.Abandon()
	events, _ := readLog(filepath.Join(dir, LogName))
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].UnixNano != start.UnixNano() {
		t.Fatalf("event 0 stamp = %d", events[0].UnixNano)
	}
	if events[1].UnixNano != start.Add(3*time.Second).UnixNano() {
		t.Fatalf("event 1 stamp = %d", events[1].UnixNano)
	}
}

// Inspect reads a live journal without taking the lock.
func TestInspectWhileLocked(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Append(submitEv(1, "wc"))
	j.Append(Event{Kind: EvJobFailed, Job: 1, Error: "boom"})
	st, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	jr := st.Job(1)
	if jr == nil || jr.State != JobFailed || jr.Error != "boom" {
		t.Fatalf("inspect = %+v", jr)
	}
	if _, err := Inspect(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("Inspect of a missing dir succeeded")
	}
}

// Apply idempotency invariants used by replay.
func TestApplyIdempotent(t *testing.T) {
	st := NewState()
	events := []Event{
		submitEv(3, "wc"),
		taskEv(3, 0, 0, 10),
		taskEv(3, 0, 0, 10),  // duplicate completion
		submitEv(3, "other"), // re-submit must not rename
		{Kind: EvJobDone, Job: 3},
		taskEv(3, 0, 1, 10), // completion after done: dropped
	}
	for _, ev := range events {
		st.Apply(ev)
	}
	jr := st.Job(3)
	if jr.TasksDone != 1 || jr.ShuffleBytes != 10 {
		t.Fatalf("duplicate counted: %+v", jr)
	}
	if jr.Name != "wc" {
		t.Fatalf("re-submit renamed job: %q", jr.Name)
	}
	if jr.State != JobDone || jr.Tasks != nil {
		t.Fatalf("post-done completion resurrected tasks: %+v", jr)
	}
	// Job 0 (unmanaged) is never folded.
	st.Apply(Event{Kind: EvTaskDone, Job: 0, Dataset: 0, Task: 0})
	if len(st.Jobs) != 1 {
		t.Fatalf("job 0 folded: %v", st.Jobs)
	}
	// Clone is deep.
	c := st.Clone()
	if !reflect.DeepEqual(c, st) {
		t.Fatal("clone differs")
	}
	c.Apply(submitEv(9, "x"))
	if st.Job(9) != nil {
		t.Fatal("clone shares state")
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitEv(1, "wc")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// An empty or garbage log file never errors Open — it is restarted.
func TestGarbageLogRestarts(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LogName), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 0 {
		t.Fatalf("garbage produced jobs: %v", st.Jobs)
	}
	if err := j.Append(submitEv(1, "wc")); err != nil {
		t.Fatal(err)
	}
	j.Abandon()
	_, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Job(1) == nil {
		t.Fatal("append after garbage restart lost")
	}
}

// The decoder rejects absurd length prefixes without allocating.
func TestDecodeRecordsBadLength(t *testing.T) {
	frame := make([]byte, 8)
	binary.LittleEndian.PutUint32(frame, 1<<31)
	events, off := DecodeRecords(frame)
	if len(events) != 0 || off != 0 {
		t.Fatalf("decoded %d events at off %d", len(events), off)
	}
}

func TestSpecHashDistinguishes(t *testing.T) {
	a := SpecHash("wordcount", true)
	if a != SpecHash("wordcount", true) {
		t.Fatal("hash not deterministic")
	}
	if a == SpecHash("wordcount", false) || a == SpecHash("pi", true) {
		t.Fatal("hash collision across specs")
	}
}

// FuzzJournalReplay fuzzes the record decoder: arbitrary bytes must
// decode some intact prefix without panicking, and re-encoding that
// prefix must decode back to itself (round-trip stability).
func FuzzJournalReplay(f *testing.F) {
	// Seed with a valid two-record log body.
	var seed []byte
	for _, ev := range []Event{submitEv(1, "wc"), taskEv(1, 0, 0, 10)} {
		payload, _ := json.Marshal(ev)
		rec := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
		copy(rec[8:], payload)
		seed = append(seed, rec...)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		events, off := DecodeRecords(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d out of range [0,%d]", off, len(data))
		}
		// Folding arbitrary decoded events must not panic either.
		st := NewState()
		for _, ev := range events {
			st.Apply(ev)
		}
		// The intact prefix re-decodes identically.
		again, off2 := DecodeRecords(data[:off])
		if off2 != off || len(again) != len(events) {
			t.Fatalf("prefix re-decode: %d events at %d, want %d at %d",
				len(again), off2, len(events), off)
		}
	})
}

// A task's output manifests keep their record and byte counts through
// the log, a checkpoint, and replay: input plans skip KV buckets whose
// counts are both zero, so a lost count would drop a bucket's records.
func TestManifestCountsSurviveReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []bucket.Descriptor{
		{Name: "j1/ds3/t0/s0", URL: "file:///shared/j1_ds3_t0_s0", Records: 7, Bytes: 1234},
		{Name: "j1/ds3/t0/s1", URL: "file:///shared/j1_ds3_t0_s1"},
		{Name: "j1/ds3/t0/s2", URL: "file:///shared/j1_ds3_t0_s2", Records: 1},
	}
	for _, ev := range []Event{submitEv(1, "fused"), {Kind: EvTaskDone, Job: 1, Dataset: 3, Task: 0, Outputs: FromDescriptors(want)}} {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	check := func(st *State, stage string) {
		t.Helper()
		var got []bucket.Descriptor
		for _, m := range st.Job(1).TaskOutputs(3, 0) {
			got = append(got, m.Descriptor())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: descriptors = %+v, want %+v", stage, got, want)
		}
	}
	j.Abandon()
	j, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(st, "log replay")
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	j.Abandon()
	j, st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	check(st, "checkpoint replay")
}
