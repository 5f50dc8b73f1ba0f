package master

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

// pollTask signs in (once) and polls until the node holds a task.
func pollTask(t *testing.T, m *Master, id string) rpcproto.Assignment {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := client(m).Call(rpcproto.MethodGetTask, id)
		if err != nil {
			t.Fatal(err)
		}
		a, err := rpcproto.DecodeAssignment(raw)
		if err != nil {
			t.Fatal(err)
		}
		if a.Status == rpcproto.StatusTask {
			return a
		}
	}
	t.Fatalf("%s got no task", id)
	return rpcproto.Assignment{}
}

func doneReport(a rpcproto.Assignment) []any {
	return rpcproto.EncodeReports([]rpcproto.Report{{
		Done: true, Job: int64(a.Spec.Job), TaskID: a.TaskID,
		Outputs: []bucket.Descriptor{{Name: "out", URL: "mem:out", Records: 1, Bytes: 8}},
		Timing:  obs.Timing{WallNS: 1000, InBytes: 64},
	}})
}

// submitCounted submits n tasks and counts their callbacks.
func submitCounted(m *Master, n int) *atomic.Int64 {
	var fired atomic.Int64
	for _, spec := range specsForTest(n) {
		m.Submit(spec, func(*core.TaskResult, error) { fired.Add(1) })
	}
	return &fired
}

// A slave whose poll response was dropped sends the same report again
// with its next poll; the master accepts it once.
func TestPiggybackedReportRedeliveredIsAcceptedOnce(t *testing.T) {
	m := newMaster(t, Options{LongPoll: 20 * time.Millisecond})
	id := signin(t, m).SlaveID
	fired := submitCounted(m, 1)
	a := pollTask(t, m, id)
	for i := 0; i < 2; i++ {
		raw, err := client(m).Call(rpcproto.MethodGetTask, id, doneReport(a))
		if err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		if got, _ := rpcproto.DecodeAssignment(raw); got.Status != rpcproto.StatusIdle {
			t.Fatalf("poll %d answered %q, want idle", i, got.Status)
		}
	}
	waitCond(t, "task callback", func() bool { return fired.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	if n := fired.Load(); n != 1 {
		t.Errorf("callback fired %d times, want 1", n)
	}
	if st := m.Stats(); st.TasksDone != 1 {
		t.Errorf("TasksDone = %d, want 1", st.TasksDone)
	}
	if nodes := m.Nodes(); len(nodes) != 1 || nodes[0].TasksDone != 1 {
		t.Errorf("nodes = %+v, want one node with 1 task done", nodes)
	}
}

// A report riding on the poll of a node the master no longer knows is
// applied before the unknown-slave fault that makes the node re-sign
// in.
func TestPiggybackedReportAppliedBeforeUnknownFault(t *testing.T) {
	m := newMaster(t, Options{LongPoll: 20 * time.Millisecond})
	id := signin(t, m).SlaveID
	fired := submitCounted(m, 1)
	a := pollTask(t, m, id)
	m.mu.Lock()
	delete(m.slaves, id) // as after a restart from the journal
	m.mu.Unlock()
	_, err := client(m).Call(rpcproto.MethodGetTask, id, doneReport(a))
	if !rpcproto.IsUnknownSlave(err) {
		t.Fatalf("poll from forgotten node: %v, want the unknown-slave fault", err)
	}
	if n := fired.Load(); n != 1 {
		t.Errorf("callback fired %d times before the fault, want 1", n)
	}
	if st := m.Stats(); st.TasksDone != 1 {
		t.Errorf("TasksDone = %d, want 1", st.TasksDone)
	}
}

func TestGetTaskRejectsMalformedReports(t *testing.T) {
	m := newMaster(t, Options{LongPoll: 20 * time.Millisecond})
	id := signin(t, m).SlaveID
	var f *xmlrpc.Fault
	if _, err := client(m).Call(rpcproto.MethodGetTask, id, "not a report list"); !errors.As(err, &f) {
		t.Errorf("malformed reports: %v, want a fault", err)
	}
}

// The blacklist park runs on the master's clock: a parked poll answers
// idle after LongPoll of fake time, and shutdown as soon as the master
// closes.
func TestBlacklistParkFollowsClockAndClose(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	m, err := New(Options{
		Clock:            clk,
		LongPoll:         time.Hour,
		HeartbeatTimeout: 1000 * time.Hour,
		BlacklistAfter:   1,
		MaxAttempts:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bad := signin(t, m).SlaveID
	signin(t, m) // a healthy peer, so the blacklist may bite
	submitCounted(m, 1)
	a := pollTask(t, m, bad)
	failed := rpcproto.EncodeReports([]rpcproto.Report{{Job: int64(a.Spec.Job), TaskID: a.TaskID, Err: "boom"}})

	answer := make(chan rpcproto.Assignment, 1)
	poll := func(args ...any) {
		raw, err := client(m).Call(rpcproto.MethodGetTask, args...)
		if err != nil {
			t.Error(err)
			close(answer)
			return
		}
		got, _ := rpcproto.DecodeAssignment(raw)
		answer <- got
	}
	// The poll delivering the failure is itself parked.
	go poll(bad, failed)
	select {
	case got := <-answer:
		t.Fatalf("parked poll answered %q before any fake time passed", got.Status)
	case <-time.After(50 * time.Millisecond):
	}
	deadline := time.Now().Add(5 * time.Second)
	var got rpcproto.Assignment
	for done := false; !done; {
		clk.Advance(time.Hour)
		select {
		case got = <-answer:
			done = true
		case <-time.After(5 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("parked poll never answered as fake time passed")
			}
		}
	}
	if got.Status != rpcproto.StatusIdle {
		t.Fatalf("parked poll answered %q, want idle", got.Status)
	}
	if st := m.Stats(); st.Blacklisted != 1 || st.TasksFailed != 1 {
		t.Errorf("Blacklisted = %d, TasksFailed = %d, want 1 and 1", st.Blacklisted, st.TasksFailed)
	}

	go poll(bad)
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	closed := make(chan struct{})
	go func() { m.Close(); close(closed) }()
	select {
	case got = <-answer:
		if got.Status != rpcproto.StatusShutdown {
			t.Errorf("parked poll answered %q on Close, want shutdown", got.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked poll not answered on Close")
	}
	<-closed
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close took %v with a parked poll", d)
	}
}

// Close returns as soon as every signed-in node has been answered
// shutdown, instead of sleeping out its grace period.
func TestCloseReturnsOnceFleetHeardShutdown(t *testing.T) {
	m, err := New(Options{LongPoll: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{signin(t, m).SlaveID, signin(t, m).SlaveID}
	answers := make(chan string, len(ids))
	for _, id := range ids {
		go func(id string) {
			raw, err := client(m).Call(rpcproto.MethodGetTask, id)
			if err != nil {
				answers <- err.Error()
				return
			}
			a, _ := rpcproto.DecodeAssignment(raw)
			answers <- a.Status
		}(id)
	}
	time.Sleep(50 * time.Millisecond) // both polls are waiting
	start := time.Now()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= shutdownGrace {
		t.Errorf("Close took %v, want under the %v grace once both nodes heard", d, shutdownGrace)
	}
	for range ids {
		if got := <-answers; got != rpcproto.StatusShutdown {
			t.Errorf("poll answered %q, want shutdown", got)
		}
	}
}

// A master restarted from its journal never reissues its predecessor's
// node ids, so a report still in flight from before the crash cannot
// complete the restarted master's assignment of the same task number.
func TestRestartedMasterIgnoresPreCrashReport(t *testing.T) {
	journalDir := t.TempDir()
	opts := Options{JournalDir: journalDir, Dir: t.TempDir(), LongPoll: 20 * time.Millisecond}
	m1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	oldID := signin(t, m1).SlaveID
	submitCounted(m1, 1)
	stale := pollTask(t, m1, oldID)
	m1.Crash()

	opts.Dir = t.TempDir()
	m2 := newMaster(t, opts)
	newID := signin(t, m2).SlaveID
	if newID == oldID {
		t.Fatalf("restarted master reissued node id %q", oldID)
	}
	fired := submitCounted(m2, 1)
	if a := pollTask(t, m2, newID); a.TaskID != stale.TaskID {
		t.Fatalf("task ids %d and %d: the test needs them to collide", a.TaskID, stale.TaskID)
	}
	if _, err := client(m2).Call(rpcproto.MethodGetTask, oldID, doneReport(stale)); !rpcproto.IsUnknownSlave(err) {
		t.Fatalf("pre-crash poll: %v, want the unknown-slave fault", err)
	}
	if n := fired.Load(); n != 0 {
		t.Errorf("pre-crash report completed the new assignment (%d callbacks)", n)
	}
	if m2.Scheduler().Running() != 1 {
		t.Errorf("Running = %d, want the new assignment still running", m2.Scheduler().Running())
	}
}
