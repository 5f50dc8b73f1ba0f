package submaster

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/master"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

// harness is a real master with one sub-master running against it.
type harness struct {
	m  *master.Master
	sm *SubMaster
	rt *obs.Runtime
}

func newHarness(t *testing.T, smOpts Options) *harness {
	t.Helper()
	rt := obs.New(nil)
	m, err := master.New(master.Options{LongPoll: 100 * time.Millisecond, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	smOpts.MasterAddr = m.Addr()
	smOpts.Obs = rt
	if smOpts.FlushInterval == 0 {
		smOpts.FlushInterval = 2 * time.Millisecond
	}
	sm, err := New(smOpts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sm.Run(ctx); close(done) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("sub-master did not stop")
		}
	})
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := m.WaitForSlaves(wctx, 1); err != nil {
		t.Fatal(err)
	}
	return &harness{m: m, sm: sm, rt: rt}
}

// fakeChild is a scripted leaf speaking the master↔node protocol to
// the sub-master over real XML-RPC.
type fakeChild struct {
	t      *testing.T
	client *xmlrpc.Client
	id     string
}

func attach(t *testing.T, sm *SubMaster, slots int64) *fakeChild {
	t.Helper()
	c := &fakeChild{t: t, client: xmlrpc.NewClient("http://" + sm.Addr() + xmlrpc.RPCPath)}
	args := rpcproto.SigninArgs{Kind: rpcproto.NodeKindSlave, Slots: slots}
	raw, err := c.client.Call(rpcproto.MethodSignin, args.Encode())
	if err != nil {
		t.Fatal(err)
	}
	reply, err := rpcproto.DecodeSigninReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	c.id = reply.SlaveID
	return c
}

// poll asks for work until an assignment (or shutdown) arrives.
func (c *fakeChild) poll(timeout time.Duration) rpcproto.Assignment {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		raw, err := c.client.Call(rpcproto.MethodGetTask, c.id)
		if err != nil {
			c.t.Fatal(err)
		}
		a, err := rpcproto.DecodeAssignment(raw)
		if err != nil {
			c.t.Fatal(err)
		}
		if a.Status != rpcproto.StatusIdle {
			return a
		}
	}
	c.t.Fatalf("child %s: no assignment within %v", c.id, timeout)
	return rpcproto.Assignment{}
}

func (c *fakeChild) done(a rpcproto.Assignment) {
	c.t.Helper()
	outs := rpcproto.EncodeDescriptors([]bucket.Descriptor{
		{Name: fmt.Sprintf("t%d", a.TaskID), URL: "mem:done"},
	})
	if _, err := c.client.Call(rpcproto.MethodTaskDone, c.id, int64(a.Spec.Job), a.TaskID, outs, rpcproto.EncodeTiming(obs.Timing{WallNS: 1000})); err != nil {
		c.t.Fatal(err)
	}
}

func (c *fakeChild) fail(a rpcproto.Assignment, msg string) {
	c.t.Helper()
	if _, err := c.client.Call(rpcproto.MethodTaskFailed, c.id, int64(a.Spec.Job), a.TaskID, msg); err != nil {
		c.t.Fatal(err)
	}
}

func spec(i int) *core.TaskSpec {
	return &core.TaskSpec{
		Op:        &core.Operation{Kind: core.OpMap, FuncName: "m", Splits: 1, Dataset: 1},
		TaskIndex: i,
		InputURLs: []string{"mem:0/none"},
	}
}

func TestTasksFlowThroughTree(t *testing.T) {
	h := newHarness(t, Options{})
	child := attach(t, h.sm, 2)
	if sm := h.sm.ID(); sm == "" || len(child.id) <= len(sm) || child.id[:len(sm)] != sm {
		t.Errorf("child id %q not namespaced under node id %q", child.id, h.sm.ID())
	}

	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		h.m.Submit(spec(i), func(res *core.TaskResult, err error) { results <- err })
	}
	for i := 0; i < 3; i++ {
		child.done(child.poll(5 * time.Second))
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Errorf("task callback error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("master callback never fired")
		}
	}
	if got := h.sm.TasksFetched(); got != 3 {
		t.Errorf("TasksFetched = %d, want 3", got)
	}
	if h.rt.M().Get(obs.MetricSubmasterBatches) == 0 {
		t.Error("no report batches sent")
	}
	if got := h.rt.M().Get(obs.MetricSubmasterReports); got != 3 {
		t.Errorf("reports forwarded = %d, want 3", got)
	}
	// The master's per-node accounting sees the sub-master, not the
	// child. The master counts a completion after its callback fires,
	// so wait for the count rather than reading it once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		nodes := h.m.Nodes()
		if len(nodes) != 1 || nodes[0].Kind != rpcproto.NodeKindSubmaster {
			t.Fatalf("master nodes = %+v", nodes)
		}
		if nodes[0].TasksDone == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node TasksDone = %d, want 3", nodes[0].TasksDone)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLocalRetryAbsorbsFailure(t *testing.T) {
	// A child failure inside the local budget is retried by the
	// sub-master without the master ever hearing about it.
	h := newHarness(t, Options{LocalAttempts: 2})
	child := attach(t, h.sm, 1)

	result := make(chan error, 1)
	h.m.Submit(spec(0), func(res *core.TaskResult, err error) { result <- err })

	a := child.poll(5 * time.Second)
	child.fail(a, "transient")
	retry := child.poll(5 * time.Second)
	if retry.TaskID != a.TaskID {
		t.Errorf("retry task id %d, want %d", retry.TaskID, a.TaskID)
	}
	child.done(retry)

	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("task did not recover locally: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master callback never fired")
	}
	if got := h.m.Stats().TasksFailed; got != 0 {
		t.Errorf("master saw %d failures; the retry should have been local", got)
	}
	if got := h.rt.M().Get(obs.MetricSubmasterLocalRetries); got != 1 {
		t.Errorf("local retries metric = %d, want 1", got)
	}
}

func TestLocalExhaustionEscalates(t *testing.T) {
	// Burning the whole local budget escalates the failure upward; the
	// master's own retry budget then re-dispatches the task.
	h := newHarness(t, Options{LocalAttempts: 1})
	child := attach(t, h.sm, 1)

	result := make(chan error, 1)
	h.m.Submit(spec(0), func(res *core.TaskResult, err error) { result <- err })

	child.fail(child.poll(5*time.Second), "hard failure")
	// The master requeues and the sub-master fetches the task again.
	child.done(child.poll(5 * time.Second))

	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("master retry did not recover: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master callback never fired")
	}
	if got := h.m.Stats().TasksFailed; got != 1 {
		t.Errorf("master saw %d failures, want exactly the escalation", got)
	}
}

func TestDrainChildReturnsLeases(t *testing.T) {
	// Draining a child requeues its lease into the local scheduler; a
	// sibling picks it up and the drained child is sent away cleanly.
	h := newHarness(t, Options{})
	c1 := attach(t, h.sm, 1)
	c2 := attach(t, h.sm, 1)

	result := make(chan error, 1)
	h.m.Submit(spec(0), func(res *core.TaskResult, err error) { result <- err })

	a := c1.poll(5 * time.Second)
	if !h.sm.DrainChild(c1.id) {
		t.Fatal("drain refused")
	}
	if bye := c1.poll(5 * time.Second); bye.Status != rpcproto.StatusShutdown {
		t.Errorf("drained child got %q, want shutdown", bye.Status)
	}
	b := c2.poll(5 * time.Second)
	if b.TaskID != a.TaskID {
		t.Errorf("sibling got task %d, want requeued %d", b.TaskID, a.TaskID)
	}
	c2.done(b)
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("task lost in drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master callback never fired")
	}
	if got := h.sm.ChildCount(); got != 1 {
		t.Errorf("ChildCount = %d after drain, want 1", got)
	}
}

// report polls again carrying the outcome of a as the piggybacked
// report, returning the answer (or error) of that poll.
func (c *fakeChild) report(a rpcproto.Assignment) (any, error) {
	return c.client.Call(rpcproto.MethodGetTask, c.id, rpcproto.EncodeReports([]rpcproto.Report{{
		Done: true, Job: int64(a.Spec.Job), TaskID: a.TaskID,
		Outputs: []bucket.Descriptor{{Name: fmt.Sprintf("t%d", a.TaskID), URL: "mem:done"}},
		Timing:  obs.Timing{WallNS: 1000},
	}}))
}

// A child redelivering the same piggybacked report after a dropped
// response has it accepted once.
func TestPiggybackedReportRedeliveredIsAcceptedOnce(t *testing.T) {
	h := newHarness(t, Options{LongPoll: 20 * time.Millisecond})
	child := attach(t, h.sm, 1)
	result := make(chan error, 2)
	h.m.Submit(spec(0), func(res *core.TaskResult, err error) { result <- err })
	a := child.poll(5 * time.Second)
	for i := 0; i < 2; i++ {
		if _, err := child.report(a); err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
	}
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master callback never fired")
	}
	// The master counts a completion after its callback fires; wait for
	// the count, then give a duplicate time to show up.
	deadline := time.Now().Add(5 * time.Second)
	for h.m.Stats().TasksDone < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if got := h.m.Stats().TasksDone; got != 1 {
		t.Errorf("master TasksDone = %d, want 1", got)
	}
	if got := h.rt.M().Get(obs.MetricSubmasterReports); got != 1 {
		t.Errorf("reports forwarded = %d, want 1", got)
	}
	if nodes := h.sm.Nodes(); len(nodes) != 1 || nodes[0].TasksDone != 1 {
		t.Errorf("children = %+v, want one with 1 task done", nodes)
	}
}

// A report riding on the poll of a child the sub-master forgot is
// applied before the unknown-child fault.
func TestPiggybackedReportAppliedBeforeUnknownFault(t *testing.T) {
	h := newHarness(t, Options{LongPoll: 20 * time.Millisecond})
	child := attach(t, h.sm, 1)
	result := make(chan error, 1)
	h.m.Submit(spec(0), func(res *core.TaskResult, err error) { result <- err })
	a := child.poll(5 * time.Second)
	h.sm.mu.Lock()
	h.sm.forgetChildLocked(child.id)
	h.sm.mu.Unlock()
	if _, err := child.report(a); !rpcproto.IsUnknownSlave(err) {
		t.Fatalf("poll from forgotten child: %v, want the unknown-slave fault", err)
	}
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("task failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("report from forgotten child was not applied")
	}
}

// A fused task crosses the sub-master tier intact both ways: its
// members reach the child in the assignment, and their results —
// outputs with record and byte counts — reach the master in the batch.
func TestFusedTaskForwardedBothWays(t *testing.T) {
	h := newHarness(t, Options{LongPoll: 20 * time.Millisecond})
	child := attach(t, h.sm, 1)
	head := &core.TaskSpec{
		Op:        &core.Operation{Kind: core.OpReduce, FuncName: "r", Splits: 2, Dataset: 2, Narrow: true},
		TaskIndex: 1,
		InputURLs: []string{"mem:0/none"},
		Then: []*core.TaskSpec{{
			Op:           &core.Operation{Kind: core.OpMap, FuncName: "m", Splits: 1, Dataset: 3, Resident: true},
			TaskIndex:    1,
			InputDataset: 2,
			TraceID:      7,
		}},
	}
	result := make(chan *core.TaskResult, 1)
	h.m.Submit(head, func(res *core.TaskResult, err error) {
		if err != nil {
			t.Error(err)
		}
		result <- res
	})
	a := child.poll(5 * time.Second)
	if len(a.Spec.Then) != 1 {
		t.Fatalf("child got %d fused members, want 1", len(a.Spec.Then))
	}
	if m := a.Spec.Then[0]; m.Op.FuncName != "m" || m.Op.Dataset != 3 || !m.Op.Resident || m.InputDataset != 2 || m.TaskIndex != 1 || m.TraceID != 7 {
		t.Errorf("child's member = %+v (op %+v)", m, m.Op)
	}
	member := &core.TaskResult{
		Outputs: []bucket.Descriptor{{Name: "ds3/t1/s0", URL: "mem:member", Records: 4, Bytes: 96}},
		Timing:  obs.Timing{WallNS: 500, InRecords: 4},
	}
	report := rpcproto.DoneReport(int64(a.Spec.Job), a.TaskID, &core.TaskResult{
		Outputs: []bucket.Descriptor{{Name: "ds2/t1/s0", URL: "mem:e"}, {Name: "ds2/t1/s1", URL: "mem:head", Records: 4, Bytes: 96}},
		Then:    []*core.TaskResult{member},
	})
	if _, err := child.client.Call(rpcproto.MethodGetTask, child.id, rpcproto.EncodeReports([]rpcproto.Report{report})); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-result:
		if len(res.Then) != 1 || !reflect.DeepEqual(res.Then[0].Outputs, member.Outputs) || res.Then[0].Timing != member.Timing {
			t.Errorf("master got member results %+v, want %+v", res.Then, member)
		}
		if res.Outputs[1].Records != 4 || res.Outputs[1].Bytes != 96 {
			t.Errorf("head outputs lost their counts: %+v", res.Outputs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master callback never fired")
	}
}
