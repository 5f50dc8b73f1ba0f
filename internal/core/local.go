package core

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/bucket"
	"repro/internal/obs"
)

// LocalExecutor runs tasks in the current process. It provides three of
// the paper's four execution modes:
//
//   - Serial: one worker, in-memory buckets. Deterministic, simplest to
//     debug.
//   - MockParallel: one worker, file-backed buckets; the work is split
//     into exactly the tasks the distributed runtime would run, and all
//     intermediate data lands in files that can be inspected.
//   - Threads: N workers, in-memory buckets. (In Python the GIL forces
//     Mrs to use processes; Go goroutines give real parallelism, so
//     this mode has no Python counterpart but the same semantics.)
//
// The fourth mode, Bypass, doesn't execute operations at all; the
// public mrs package dispatches it before a Job exists.
//
// All three modes share one asynchronous runner: an unbounded FIFO task
// queue drained by up to `workers` goroutines. Submit never blocks and
// never invokes the completion callback synchronously — the same
// contract the distributed master provides — so every executor drives
// the Job's pipelined DAG scheduler through the identical code path.
//
// Workers start on demand and exit as soon as the queue is empty, so an
// idle executor holds no goroutine: one nobody closed is collected with
// its store like any other value.
type LocalExecutor struct {
	env     *TaskEnv
	ownsDir string // temp dir to remove on Close ("" if none)
	obs     *obs.Runtime

	mu    sync.Mutex
	idle  *sync.Cond  // signalled when the last worker exits
	queue []localTask // unbounded pending set
	lanes []int       // trace lanes of the workers not running, next last
	busy  int         // running workers
}

type localTask struct {
	spec *TaskSpec
	done func(*TaskResult, error)
}

func newLocal(env *TaskEnv, workers int, ownsDir string) *LocalExecutor {
	e := &LocalExecutor{env: env, ownsDir: ownsDir, lanes: make([]int, workers)}
	for i := range e.lanes {
		e.lanes[i] = workers - 1 - i // worker-0 first
	}
	e.idle = sync.NewCond(&e.mu)
	return e
}

// NewSerial returns the serial executor.
func NewSerial(reg *Registry) *LocalExecutor {
	return newLocal(&TaskEnv{Store: bucket.NewMemStore(), Reg: reg}, 1, "")
}

// NewMockParallel returns the mock-parallel executor. dir receives the
// intermediate data files; if empty a temp dir is created and removed
// on Close.
func NewMockParallel(reg *Registry, dir string) (*LocalExecutor, error) {
	owns := ""
	if dir == "" {
		d, err := os.MkdirTemp("", "mrs-mock-*")
		if err != nil {
			return nil, err
		}
		dir = d
		owns = d
	}
	store, err := bucket.NewFileStore(dir, "")
	if err != nil {
		return nil, err
	}
	return newLocal(&TaskEnv{Store: store, Reg: reg, TempDir: dir}, 1, owns), nil
}

// NewThreads returns an in-process parallel executor with n workers.
func NewThreads(reg *Registry, n int) *LocalExecutor {
	if n < 1 {
		n = 1
	}
	return newLocal(&TaskEnv{Store: bucket.NewMemStore(), Reg: reg}, n, "")
}

// Store implements Executor.
func (e *LocalExecutor) Store() *bucket.Store { return e.env.Store }

// SetSpillBytes overrides the external-sort threshold (testing and the
// spill ablation bench).
func (e *LocalExecutor) SetSpillBytes(n int64) { e.env.SpillBytes = n }

// SetResidentBudget installs a resident dataset cache with the given
// byte budget (<= 0 removes it). Local executors are one process, so a
// "warm worker" is just process memory — but the cache still spares
// Resident iterative workloads their per-iteration store reads, and it
// lets the residency ablations run on every execution mode. Must be
// called before the first Submit.
func (e *LocalExecutor) SetResidentBudget(n int64) {
	e.env.Resident = NewResidentCache(n)
	if e.env.Resident != nil {
		e.env.Resident.SetMetrics(e.env.Obs.M())
		obs.RegisterResidentGauge(e.env.Obs.M())
	}
}

// SetObserver wires the executor into an observability runtime: worker
// start/finish events go to its tracer (lanes named worker-0..N-1), the
// task engine reports into its metrics, and a queue-depth gauge is
// registered. Must be called before the first Submit.
func (e *LocalExecutor) SetObserver(rt *obs.Runtime) {
	e.obs = rt
	e.env.Obs = rt
	e.env.Store.SetMetrics(rt.M())
	if e.env.Resident != nil {
		// Set in either order with SetResidentBudget.
		e.env.Resident.SetMetrics(rt.M())
		obs.RegisterResidentGauge(rt.M())
	}
	if e.env.Clock == nil && rt != nil {
		e.env.Clock = rt.Clk()
	}
	rt.M().SetGauge("mrs_local_queue_depth", func() int64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return int64(len(e.queue))
	})
}

// Submit implements Executor: the task joins the FIFO queue, and a
// worker starts for it if fewer than `workers` are running.
func (e *LocalExecutor) Submit(spec *TaskSpec, done func(*TaskResult, error)) {
	e.mu.Lock()
	e.queue = append(e.queue, localTask{spec: spec, done: done})
	if n := len(e.lanes); n > 0 {
		lane := e.lanes[n-1]
		e.lanes = e.lanes[:n-1]
		e.busy++
		go e.worker(lane)
	}
	e.mu.Unlock()
}

// worker drains the queue and exits once it is empty, handing its lane
// back; a later Submit starts a new worker on it.
func (e *LocalExecutor) worker(lane int) {
	name := fmt.Sprintf("worker-%d", lane)
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			e.lanes = append(e.lanes, lane)
			if e.busy--; e.busy == 0 {
				e.idle.Broadcast()
			}
			e.mu.Unlock()
			return
		}
		t := e.queue[0]
		e.queue[0] = localTask{}
		e.queue = e.queue[1:]
		e.mu.Unlock()
		// Local executors run each task exactly once, so the span is
		// always attempt 1.
		StartSpans(e.obs.T(), t.spec, 1, name)
		res, err := ExecTask(e.env, t.spec)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		FinishSpans(e.obs.T(), t.spec, 1, name, res, msg)
		t.done(res, err)
	}
}

// Free implements Executor.
func (e *LocalExecutor) Free(m *Materialized) {
	for _, name := range m.BucketNames() {
		_ = e.env.Store.Remove(name)
	}
}

// Close implements Executor: waits for in-flight and queued tasks to
// finish, then releases resources. A Submit after Close still runs its
// task, so its callback fires exactly once.
func (e *LocalExecutor) Close() error {
	e.mu.Lock()
	for e.busy > 0 {
		e.idle.Wait()
	}
	e.mu.Unlock()
	if e.ownsDir != "" {
		return os.RemoveAll(e.ownsDir)
	}
	return nil
}
