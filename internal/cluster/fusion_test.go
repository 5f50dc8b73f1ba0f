package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// fusedChain runs a narrow reduce that feeds two maps, mapName and an
// identity: slowsplit holds the first wave long enough that the driver
// has queued both maps before the narrow reduce's tasks are
// dispatched, so a pipelined driver fuses them. It closes the job and
// returns both maps' outputs, in sorted order.
func fusedChain(t *testing.T, job *core.Job, mapName string) (left, right []kvio.Pair) {
	t.Helper()
	src, err := job.LocalData(inputPairs(), core.OpOpts{Splits: 3, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := job.MapReduce(src, "slowsplit", "sum", core.OpOpts{Splits: 2, Combine: "sum"}, core.OpOpts{Splits: 2})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := job.Reduce(mid, "sum", core.OpOpts{Splits: 2, KeyAligned: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := job.Map(narrow, mapName, core.OpOpts{Splits: 2, Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := job.Map(narrow, "identity", core.OpOpts{Splits: 1, Partition: "constant"})
	if err != nil {
		t.Fatal(err)
	}
	if left, err = a.CollectSorted(); err != nil {
		t.Fatal(err)
	}
	if right, err = b.CollectSorted(); err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	return left, right
}

// fusedChainJob runs fusedChain on a fresh driver over exec.
func fusedChainJob(t *testing.T, exec core.Executor, opts core.JobOptions, mapName string) (left, right []kvio.Pair) {
	t.Helper()
	return fusedChain(t, core.NewJobWith(exec, opts), mapName)
}

// TestFusedChainAllExecutorsAgree: one narrow reduce feeding two maps
// is byte-identical on every executor, pipelined (fused) or barriered
// (not), and the pipelined drivers really fused.
func TestFusedChainAllExecutorsAgree(t *testing.T) {
	wantL, wantR := fusedChainJob(t, core.NewSerial(testRegistry()), core.JobOptions{}, "identity")
	if len(wantL) == 0 || len(wantR) == 0 {
		t.Fatal("reference run produced no output")
	}
	for _, pipelined := range []bool{true, false} {
		execs := map[string]func() (core.Executor, func()){
			"serial": func() (core.Executor, func()) { e := core.NewSerial(testRegistry()); return e, func() { e.Close() } },
			"threads": func() (core.Executor, func()) {
				e := core.NewThreads(testRegistry(), 4)
				return e, func() { e.Close() }
			},
			"mock": func() (core.Executor, func()) {
				e, err := core.NewMockParallel(testRegistry(), "")
				if err != nil {
					t.Fatal(err)
				}
				return e, func() { e.Close() }
			},
			"cluster": func() (core.Executor, func()) {
				c, err := Start(testRegistry(), Options{Slaves: 2})
				if err != nil {
					t.Fatal(err)
				}
				return c.Executor(), func() { c.Close() }
			},
		}
		for name, mk := range execs {
			exec, closeExec := mk()
			rt := obs.New(nil)
			gotL, gotR := fusedChainJob(t, exec, core.JobOptions{Pipeline: pipelined, Obs: rt}, "identity")
			closeExec()
			if !samePairs(gotL, wantL) || !samePairs(gotR, wantR) {
				t.Errorf("%s (pipelined %v): output differs from the reference", name, pipelined)
			}
			fused := rt.M().Get(obs.MetricTasksFused)
			if pipelined && fused == 0 {
				t.Errorf("%s: pipelined run fused nothing", name)
			}
			if !pipelined && fused != 0 {
				t.Errorf("%s: barriered run fused %d tasks", name, fused)
			}
		}
	}
}

// gateRegistry adds "gatemap", an identity map that sleeps 100 ms per
// record and signals entered on its first call: every attempt running
// it stays in flight long enough for the test to crash its slave.
func gateRegistry(entered chan<- struct{}) *core.Registry {
	reg := testRegistry()
	var once sync.Once
	reg.RegisterMap("gatemap", func(key, value []byte, emit kvio.Emitter) error {
		once.Do(func() { close(entered) })
		time.Sleep(100 * time.Millisecond)
		return emit.Emit(key, value)
	})
	return reg
}

// TestChaosSlaveCrashDuringFusedAttempt kills the slave running a
// fused attempt while its member runs. The attempt is retried whole
// under the head's task id, the output stays byte-identical, and no
// task — head or member — completes twice.
func TestChaosSlaveCrashDuringFusedAttempt(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	wantL, wantR := fusedChainJob(t, core.NewSerial(testRegistry()), core.JobOptions{}, "identity")
	entered := make(chan struct{})
	rt := obs.New(nil)
	c, err := Start(gateRegistry(entered), Options{
		Slaves:            3,
		SharedDir:         t.TempDir(),
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		Obs:               rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	killed := make(chan error, 1)
	go func() {
		<-entered
		// Only fused attempts are running now: every other task of
		// the job either finished before them or waits on them.
		for i := 0; i < c.NumSlaves(); i++ {
			if c.Master().Scheduler().RunningOn(c.Slave(i).ID()) > 0 {
				killed <- c.KillSlave(i)
				return
			}
		}
		killed <- nil
	}()
	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: true, Obs: rt})
	gotL, gotR := fusedChain(t, job, "gatemap")
	stats := job.Stats()
	if err := <-killed; err != nil {
		t.Fatal(err)
	}
	if !samePairs(gotL, wantL) || !samePairs(gotR, wantR) {
		t.Error("output after a crash mid fused attempt differs from serial")
	}
	if rt.M().Get(obs.MetricTasksFused) == 0 {
		t.Fatal("nothing fused; the crash did not hit a fused attempt")
	}
	if c.Master().Stats().SlavesLost == 0 && rt.M().Get("mrs_sched_requeued_total") == 0 {
		t.Error("the crashed slave's fused attempt was never requeued")
	}
	// Every logical task completed exactly once, at the driver and at
	// the master: 3 maps, 2 reduces, 2 narrow reduces and 2 + 2 maps.
	const tasks = 11
	if stats.Tasks != tasks {
		t.Errorf("driver counted %d task completions, want %d", stats.Tasks, tasks)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Master().Stats().TasksDone != tasks && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Master().Stats().TasksDone; got != tasks {
		t.Errorf("master accepted %d completions, want %d", got, tasks)
	}
}

// TestMasterCrashAfterFusedCompletionsRecoversMembers crashes a
// journaled master after fused tasks completed, restarts it and
// resumes the job: heads and members come back from the journal, and
// no member runs again.
func TestMasterCrashAfterFusedCompletionsRecoversMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery suite skipped in -short mode")
	}
	var calls atomic.Int64
	var hold atomic.Bool
	hold.Store(true)
	holding := make(chan struct{}, 1)
	reg := testRegistry()
	reg.RegisterMap("countmap", func(key, value []byte, emit kvio.Emitter) error {
		calls.Add(1)
		return emit.Emit(key, value)
	})
	reg.RegisterMap("holdmap", func(key, value []byte, emit kvio.Emitter) error {
		select {
		case holding <- struct{}{}:
		default:
		}
		for hold.Load() {
			time.Sleep(5 * time.Millisecond)
		}
		return emit.Emit(key, value)
	})
	// Phase one is a fused chain, collected; phase two holds the job
	// open so the master can crash with phase one journaled.
	program := func(out *[]kvio.Pair) func(*core.Job) error {
		return func(job *core.Job) error {
			src, err := job.LocalData(inputPairs(), core.OpOpts{Splits: 3, Partition: "roundrobin"})
			if err != nil {
				return err
			}
			mid, err := job.MapReduce(src, "slowsplit", "sum", core.OpOpts{Splits: 2, Combine: "sum"}, core.OpOpts{Splits: 2})
			if err != nil {
				return err
			}
			narrow, err := job.Reduce(mid, "sum", core.OpOpts{Splits: 2, KeyAligned: true})
			if err != nil {
				return err
			}
			counted, err := job.Map(narrow, "countmap", core.OpOpts{Splits: 2})
			if err != nil {
				return err
			}
			if *out, err = counted.CollectSorted(); err != nil {
				return err
			}
			held, err := job.Map(counted, "holdmap", core.OpOpts{})
			if err != nil {
				return err
			}
			return held.Wait()
		}
	}
	want, _ := fusedChainJob(t, core.NewSerial(testRegistry()), core.JobOptions{}, "identity")

	rt := obs.New(nil)
	c, err := Start(reg, Options{Slaves: 2, SharedDir: t.TempDir(), JournalDir: t.TempDir(), Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer hold.Store(false) // a held slot would block Close
	var first []kvio.Pair
	mj, err := c.Submit("fused", core.JobOptions{Pipeline: true}, program(&first))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-holding:
	case <-time.After(30 * time.Second):
		t.Fatal("phase two never started")
	}
	// 3 maps, 2 reduces, 2 narrow reduces and their 2 fused members.
	const phaseOne = 9
	deadline := time.Now().Add(5 * time.Second)
	for c.Master().Stats().TasksDone < phaseOne && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fused := rt.M().Get(obs.MetricTasksFused); fused != 2 {
		t.Fatalf("%s = %d before the crash, want 2", obs.MetricTasksFused, fused)
	}
	time.Sleep(50 * time.Millisecond) // let the last completion's journal append land
	c.CrashMaster()
	hold.Store(false)
	if err := mj.Wait(); err == nil {
		t.Fatal("job outlived its master")
	}
	ran := calls.Load()

	if err := c.RestartMaster(); err != nil {
		t.Fatal(err)
	}
	var second []kvio.Pair
	rj, err := c.Jobs().Resume(mj.ID(), "fused", core.JobOptions{Pipeline: true}, program(&second))
	if err != nil {
		t.Fatal(err)
	}
	if err := rj.Wait(); err != nil {
		t.Fatalf("resumed job: %v", err)
	}
	if !samePairs(first, want) || !samePairs(second, want) {
		t.Error("output before or after the crash differs from serial")
	}
	if again := calls.Load() - ran; again != 0 {
		t.Errorf("fused members ran %d more map calls after the restart, want 0", again)
	}
	if got := rt.M().Get(obs.MetricRecoveredTasks); got < phaseOne {
		t.Errorf("%s = %d, want >= %d (every phase-one task, members included)", obs.MetricRecoveredTasks, got, phaseOne)
	}
}
