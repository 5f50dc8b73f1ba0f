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
// queue drained by `workers` goroutines. Submit never blocks and never
// invokes the completion callback synchronously — the same contract the
// distributed master provides — so every executor drives the Job's
// pipelined DAG scheduler through the identical code path.
type LocalExecutor struct {
	env     *TaskEnv
	workers int
	ownsDir string // temp dir to remove on Close ("" if none)
	obs     *obs.Runtime

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []localTask // unbounded pending set
	started bool
	closed  bool
	wg      sync.WaitGroup
}

type localTask struct {
	spec *TaskSpec
	done func(*TaskResult, error)
}

func newLocal(env *TaskEnv, workers int, ownsDir string) *LocalExecutor {
	e := &LocalExecutor{env: env, workers: workers, ownsDir: ownsDir}
	e.cond = sync.NewCond(&e.mu)
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

// SetPrefetch sets the input-fetch window (0 = default, 1 = sequential).
// Must be called before the first Submit.
func (e *LocalExecutor) SetPrefetch(n int) { e.env.Prefetch = n }

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

// SetCompress makes the executor's store write compressed buckets.
// Only meaningful for file-backed stores (MockParallel); memory stores
// ignore it. Must be called before the first Submit.
func (e *LocalExecutor) SetCompress(on bool) { e.env.Store.SetCompress(on) }

// SetCodec selects the registered compression codec the executor's
// store writes block-framed buckets with ("" disables block framing;
// unknown names error). Like SetCompress, only file-backed stores write
// at rest; memory stores ignore it. Must be called before the first
// Submit.
func (e *LocalExecutor) SetCodec(name string) error { return e.env.Store.SetCodec(name) }

// SetBlockSize overrides the record-block flush threshold in bytes
// (0 = default). Must be called before the first Submit.
func (e *LocalExecutor) SetBlockSize(n int) { e.env.Store.SetBlockSize(n) }

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

// Submit implements Executor: the task joins the FIFO queue and is
// executed by one of the worker goroutines (started lazily on first
// use).
func (e *LocalExecutor) Submit(spec *TaskSpec, done func(*TaskResult, error)) {
	e.mu.Lock()
	if !e.started {
		e.started = true
		for w := 0; w < e.workers; w++ {
			e.wg.Add(1)
			go e.worker(w)
		}
	}
	e.queue = append(e.queue, localTask{spec: spec, done: done})
	e.cond.Signal()
	e.mu.Unlock()
}

// worker drains the queue until Close; the queue is fully drained even
// when Close races with late submissions, so every Submit's callback
// fires exactly once.
func (e *LocalExecutor) worker(idx int) {
	defer e.wg.Done()
	name := fmt.Sprintf("worker-%d", idx)
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		t := e.queue[0]
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
// finish, then releases resources.
func (e *LocalExecutor) Close() error {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
	if e.ownsDir != "" {
		return os.RemoveAll(e.ownsDir)
	}
	return nil
}
