package master

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

func specsForTest(n int) []*core.TaskSpec {
	out := make([]*core.TaskSpec, n)
	for i := range out {
		out[i] = &core.TaskSpec{
			Op:        &core.Operation{Kind: core.OpMap, FuncName: "m", Splits: 1, Dataset: 1},
			TaskIndex: i,
			InputURLs: []string{"mem:0/none"},
		}
	}
	return out
}

func newMaster(t *testing.T, opts Options) *Master {
	t.Helper()
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func client(m *Master) *xmlrpc.Client {
	return xmlrpc.NewClient(m.URL())
}

func signin(t *testing.T, m *Master) rpcproto.SigninReply {
	t.Helper()
	raw, err := client(m).Call(rpcproto.MethodSignin)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := rpcproto.DecodeSigninReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestPortFile(t *testing.T) {
	dir := t.TempDir()
	pf := filepath.Join(dir, "port")
	m := newMaster(t, Options{PortFile: pf})
	data, err := os.ReadFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != m.Addr() {
		t.Errorf("port file contains %q, master at %q", got, m.Addr())
	}
}

func TestSigninAssignsDistinctIDs(t *testing.T) {
	m := newMaster(t, Options{})
	a := signin(t, m)
	b := signin(t, m)
	if a.SlaveID == b.SlaveID {
		t.Errorf("duplicate slave id %q", a.SlaveID)
	}
	if m.NumSlaves() != 2 {
		t.Errorf("NumSlaves = %d", m.NumSlaves())
	}
	if m.Stats().SlavesSeen != 2 {
		t.Errorf("SlavesSeen = %d", m.Stats().SlavesSeen)
	}
}

func TestPingUnknownSlaveRejected(t *testing.T) {
	m := newMaster(t, Options{})
	if _, err := client(m).Call(rpcproto.MethodPing, "slave-999"); err == nil {
		t.Error("ping from unknown slave accepted")
	}
}

func TestGetTaskIdleWhenNoWork(t *testing.T) {
	m := newMaster(t, Options{LongPoll: 50 * time.Millisecond})
	reply := signin(t, m)
	raw, err := client(m).Call(rpcproto.MethodGetTask, reply.SlaveID)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rpcproto.DecodeAssignment(raw)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != rpcproto.StatusIdle {
		t.Errorf("status = %q, want idle", a.Status)
	}
}

func TestGetTaskAfterCloseIsShutdown(t *testing.T) {
	m, err := New(Options{LongPoll: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reply := signin(t, m)
	// Closing in the background while a long poll could be in flight.
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	raw, err := client(m).Call(rpcproto.MethodGetTask, reply.SlaveID)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rpcproto.DecodeAssignment(raw)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != rpcproto.StatusShutdown {
		t.Errorf("status = %q, want shutdown", a.Status)
	}
	m.mu.Lock()
	m.closed = false
	m.mu.Unlock()
	m.Close()
}

// waitCond polls for an asynchronous effect (reaper goroutine catching
// up with an already-advanced fake clock); no simulated time passes
// while polling.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReaperRemovesSilentSlaves(t *testing.T) {
	// Driven entirely by the fake clock: the slave goes "silent" by the
	// clock jumping past the heartbeat timeout, no real sleeps.
	clk := clock.NewFake(time.Unix(1000, 0))
	m := newMaster(t, Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
		Clock:             clk,
	})
	signin(t, m)
	if m.NumSlaves() != 1 {
		t.Fatal("slave not signed in")
	}
	clk.Advance(100 * time.Millisecond) // past timeout; fires the reaper tick
	waitCond(t, "silent slave to be reaped", func() bool { return m.NumSlaves() == 0 })
	if m.Stats().SlavesLost != 1 {
		t.Errorf("SlavesLost = %d", m.Stats().SlavesLost)
	}
}

func TestHeartbeatKeepsSlaveAlive(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	m := newMaster(t, Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
		Clock:             clk,
	})
	reply := signin(t, m)
	c := client(m)
	// Advance in sub-timeout steps, pinging after each: the reaper ticks
	// fire but the slave is never older than the cutoff.
	for i := 0; i < 10; i++ {
		clk.Advance(60 * time.Millisecond)
		if _, err := c.Call(rpcproto.MethodPing, reply.SlaveID); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumSlaves() != 1 {
		t.Error("heartbeating slave was reaped")
	}
}

func TestTaskLeaseRequeuesLostAssignment(t *testing.T) {
	// A slave takes a task and its get_task response is "lost" (it never
	// reports back but keeps heartbeating). With TaskLease set, the
	// reaper reclaims the assignment once the lease expires — without
	// declaring the slave dead.
	clk := clock.NewFake(time.Unix(1000, 0))
	m := newMaster(t, Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Second, // slave stays alive throughout
		TaskLease:         200 * time.Millisecond,
		LongPoll:          time.Millisecond,
		Clock:             clk,
	})
	reply := signin(t, m)
	task, err := m.Scheduler().SubmitGroup(specsForTest(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = task
	raw, err := client(m).Call(rpcproto.MethodGetTask, reply.SlaveID)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rpcproto.DecodeAssignment(raw)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != rpcproto.StatusTask {
		t.Fatalf("status = %q, want task", a.Status)
	}
	if m.Scheduler().Running() != 1 {
		t.Fatal("task not running")
	}
	// The reaper ticks every HeartbeatTimeout/2 (5s); one tick is far
	// past the 200ms lease but still inside the 10s liveness window.
	clk.Advance(5 * time.Second)
	waitCond(t, "stale lease requeue", func() bool { return m.Scheduler().Pending() == 1 })
	if m.Scheduler().Running() != 0 {
		t.Errorf("Running = %d after lease expiry", m.Scheduler().Running())
	}
	if m.Stats().TasksRequeued != 1 {
		t.Errorf("TasksRequeued = %d, want 1", m.Stats().TasksRequeued)
	}
	if m.NumSlaves() != 1 {
		t.Error("slave wrongly reaped by lease requeue")
	}
}

func TestWaitForSlavesTimeout(t *testing.T) {
	m := newMaster(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.WaitForSlaves(ctx, 3); err == nil {
		t.Error("WaitForSlaves returned without slaves")
	}
}

func TestHandlerArgValidation(t *testing.T) {
	m := newMaster(t, Options{})
	c := client(m)
	cases := []struct {
		method string
		args   []any
	}{
		{rpcproto.MethodPing, nil},
		{rpcproto.MethodPing, []any{int64(7)}},
	}
	for _, tc := range cases {
		if _, err := c.Call(tc.method, tc.args...); err == nil {
			t.Errorf("%s(%v) accepted", tc.method, tc.args)
		}
	}
}

// The master serves exactly the flat star's protocol: the four methods
// a slave or an operator calls answer, and the retired names of the
// batched two-level tier and of per-task reports are not served.
func TestMasterServesExactlyLeafProtocol(t *testing.T) {
	m := newMaster(t, Options{LongPoll: 20 * time.Millisecond})
	c := client(m)
	for _, method := range []string{"get_tasks", "task_done", "task_failed", "report_batch", "list_nodes"} {
		_, err := c.Call(method, "slave-1")
		var f *xmlrpc.Fault
		if !errors.As(err, &f) || f.Code != -32601 {
			t.Errorf("%s: got %v, want the -32601 method-not-found fault", method, err)
		}
	}

	id := signin(t, m).SlaveID
	if _, err := c.Call(rpcproto.MethodPing, id); err != nil {
		t.Errorf("ping: %v", err)
	}
	raw, err := c.Call(rpcproto.MethodGetTask, id)
	if err != nil {
		t.Fatalf("get_task: %v", err)
	}
	if a, err := rpcproto.DecodeAssignment(raw); err != nil || a.Status != rpcproto.StatusIdle {
		t.Errorf("get_task answered %+v, %v; want idle", a, err)
	}
	if v, err := c.Call(rpcproto.MethodDrain, id); err != nil || v != true {
		t.Errorf("drain: %v, %v", v, err)
	}
}

func TestDataServerRejectsTraversal(t *testing.T) {
	m := newMaster(t, Options{})
	// Fetch via the bucket store's http path with a traversal name.
	resp, err := xmlrpc.NewClient("http://" + m.Addr() + "/RPC2").HTTPClient.Get(
		"http://" + m.Addr() + "/data/..%2F..%2Fetc%2Fpasswd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("path traversal served")
	}
}

func TestCloseIdempotent(t *testing.T) {
	m, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
