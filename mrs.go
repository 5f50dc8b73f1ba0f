// Package mrs is a Go implementation of Mrs, the lightweight MapReduce
// framework for scientific computing described in McNabb, Lund & Seppi,
// "Mrs: MapReduce for Scientific Computing in Python" (SC 2012 PyHPC).
//
// A program supplies named map and reduce functions and a Run method
// that queues operations on a Job; mrs runs it under any of several
// execution modes selected at startup (mirroring the paper's §IV-A):
//
//   - serial: everything sequential and in memory — for development.
//   - mock: the exact task decomposition of the distributed mode, one
//     process, intermediate data in inspectable files — for debugging.
//   - threads: in-process parallel execution (Go needs no separate
//     processes; the paper's GIL discussion does not apply).
//   - master / slave: the distributed runtime — XML-RPC control plane,
//     HTTP or shared-filesystem data plane, heartbeats, task affinity,
//     and failure recovery.
//   - local: a convenience that boots a master plus N slaves inside
//     one process over real localhost sockets.
//   - bypass: calls the program's Bypass method, skipping mrs almost
//     entirely.
//
// Every mode must produce identical output for the same program; a
// difference indicates a bug in the program (or in mrs).
package mrs

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/master"
	"repro/internal/obs"
	"repro/internal/prand"
	"repro/internal/slave"
)

// Re-exported core types: these are the vocabulary of a mrs program.
type (
	// Job queues operations; see core.Job.
	Job = core.Job
	// Dataset is a handle to queued output; see core.Dataset.
	Dataset = core.Dataset
	// OpOpts tunes one operation; see core.OpOpts.
	OpOpts = core.OpOpts
	// Registry holds named map/reduce functions.
	Registry = core.Registry
	// Emitter receives emitted records.
	Emitter = kvio.Emitter
	// Pair is a key-value record.
	Pair = kvio.Pair
	// MapFunc and ReduceFunc are the user function signatures.
	MapFunc    = core.MapFunc
	ReduceFunc = core.ReduceFunc
)

// NewRegistry returns an empty function registry.
func NewRegistry() *Registry { return core.NewRegistry() }

// Program is a mrs application. Register installs the program's
// functions into a registry (this happens in every process — master,
// slaves, and local modes alike); Run drives the job.
type Program interface {
	Register(reg *Registry) error
	Run(job *Job) error
}

// Bypasser is optionally implemented by programs that support the
// bypass execution mode: a plain serial entry point sharing code with
// the MapReduce implementation (§IV-A).
type Bypasser interface {
	Bypass() error
}

// Options selects and configures the execution mode.
type Options struct {
	// Implementation: "serial" (default), "mock", "threads", "local",
	// "master", "slave", or "bypass".
	Implementation string
	// Workers is the thread count for "threads" (default 4).
	Workers int
	// Slaves is the worker count for "local" (default 2).
	Slaves int
	// Speculation enables speculative straggler re-execution when
	// positive: a task whose only running attempt has taken longer
	// than Speculation times the operation's median attempt duration
	// gets a duplicate attempt on another node; the first completion
	// wins and output stays byte-identical. Applies to "local" and
	// "master".
	Speculation float64
	// MasterAddr is the master's host:port (required for "slave").
	MasterAddr string
	// Addr is the master listen address ("master"; default 127.0.0.1:0).
	Addr string
	// PortFile receives the master's host:port once listening.
	PortFile string
	// SharedDir switches the distributed data plane to filesystem
	// staging in this directory (must be shared across machines).
	SharedDir string
	// MockDir is where "mock" leaves its intermediate files (default:
	// a temp dir removed afterwards).
	MockDir string
	// MinSlaves makes a master wait for this many slaves before
	// running (default 1).
	MinSlaves int
	// MinSlavesTimeout bounds that wait (default 60s).
	MinSlavesTimeout time.Duration
	// Seed is the program's base random seed (see Random).
	Seed uint64
	// TracePath, when set, records every task attempt and writes a
	// Chrome trace-event JSON timeline there when the job finishes
	// (open it in chrome://tracing or Perfetto). See
	// docs/OBSERVABILITY.md.
	TracePath string
	// DebugAddr, when set, serves the observability surface —
	// /debug/status, /debug/metrics (Prometheus text), /debug/pprof —
	// on this address, in every mode including slave. The master
	// additionally always mounts the same surface on its own port.
	DebugAddr string
	// ResidentBudget is the per-worker resident dataset cache budget in
	// bytes: input splits of operations queued with OpOpts.Resident are
	// fetched once and served from worker memory on later iterations
	// (LRU-evicted under this budget, reclaimed by per-job GC). <= 0
	// disables the cache; output is byte-identical either way. See
	// docs/ITERATIVE.md.
	ResidentBudget int64
}

func (o *Options) fill() {
	if o.Implementation == "" {
		o.Implementation = "serial"
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Slaves <= 0 {
		o.Slaves = 2
	}
	if o.MinSlaves <= 0 {
		o.MinSlaves = 1
	}
	if o.MinSlavesTimeout <= 0 {
		o.MinSlavesTimeout = 60 * time.Second
	}
}

// Run executes the program under the selected implementation and
// returns when it completes (for "slave": when the master shuts down).
func Run(p Program, opts Options) error {
	opts.fill()
	reg := core.NewRegistry()
	if err := p.Register(reg); err != nil {
		return fmt.Errorf("mrs: registering functions: %w", err)
	}

	rt := obs.New(nil)
	if opts.TracePath != "" {
		rt.StartTrace()
	}
	if opts.DebugAddr != "" {
		dbg, err := obs.ServeDebug(opts.DebugAddr, rt, func() string {
			return fmt.Sprintf("mrs -mrs=%s\n", opts.Implementation)
		})
		if err != nil {
			return fmt.Errorf("mrs: debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "mrs: debug surface at http://%s/debug/status\n", dbg.Addr())
	}

	switch opts.Implementation {
	case "bypass":
		b, ok := p.(Bypasser)
		if !ok {
			return fmt.Errorf("mrs: program does not implement Bypass")
		}
		return b.Bypass()

	case "serial":
		exec := core.NewSerial(reg)
		exec.SetObserver(rt)
		exec.SetResidentBudget(opts.ResidentBudget)
		return runWithExecutor(p, exec, opts, rt)

	case "mock":
		exec, err := core.NewMockParallel(reg, opts.MockDir)
		if err != nil {
			return err
		}
		exec.SetObserver(rt)
		exec.SetResidentBudget(opts.ResidentBudget)
		return runWithExecutor(p, exec, opts, rt)

	case "threads":
		exec := core.NewThreads(reg, opts.Workers)
		exec.SetObserver(rt)
		exec.SetResidentBudget(opts.ResidentBudget)
		return runWithExecutor(p, exec, opts, rt)

	case "local":
		c, err := cluster.Start(reg, cluster.Options{
			Slaves:            opts.Slaves,
			SpeculationFactor: opts.Speculation,
			SharedDir:         opts.SharedDir,
			Obs:               rt,
			ResidentBudget:    opts.ResidentBudget,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		return runManaged(p, c.M, opts, rt)

	case "master":
		m, err := master.New(master.Options{
			Addr:              opts.Addr,
			PortFile:          opts.PortFile,
			SharedDir:         opts.SharedDir,
			SpeculationFactor: opts.Speculation,
			Obs:               rt,
		})
		if err != nil {
			return err
		}
		defer m.Close()
		ctx, cancel := context.WithTimeout(context.Background(), opts.MinSlavesTimeout)
		defer cancel()
		if err := m.WaitForSlaves(ctx, opts.MinSlaves); err != nil {
			return err
		}
		return runManaged(p, m, opts, rt)

	case "slave":
		if opts.MasterAddr == "" {
			return fmt.Errorf("mrs: slave mode requires MasterAddr")
		}
		s, err := slave.New(reg, slave.Options{
			MasterAddr:     opts.MasterAddr,
			SharedDir:      opts.SharedDir,
			Obs:            rt,
			ResidentBudget: opts.ResidentBudget,
		})
		if err != nil {
			return err
		}
		return s.Run(context.Background())
	}
	return fmt.Errorf("mrs: unknown implementation %q", opts.Implementation)
}

// runWithExecutor owns the executor's lifetime.
func runWithExecutor(p Program, exec core.Executor, opts Options, rt *obs.Runtime) error {
	defer exec.Close()
	return runJob(p, exec, opts, rt)
}

func runJob(p Program, exec core.Executor, opts Options, rt *obs.Runtime) error {
	job := core.NewJobWith(exec, core.JobOptions{Pipeline: true, Obs: rt})
	runErr := p.Run(job)
	closeErr := job.Close()
	// Every task is finished once Close returns, so the trace is complete.
	if terr := writeTrace(opts.TracePath, rt); terr != nil && runErr == nil && closeErr == nil {
		closeErr = terr
	}
	if runErr != nil {
		return runErr
	}
	return closeErr
}

// runManaged drives the program as one managed job on the master's
// multi-tenant manager — the same submission path a shared fleet uses
// for many concurrent programs, degenerated to a single tenant. Wait
// resolves only after the job's driver has fully drained, so the trace
// is complete when it returns.
func runManaged(p Program, m *master.Master, opts Options, rt *obs.Runtime) error {
	mj, err := m.Jobs().Submit("mrs", core.JobOptions{Pipeline: true, Obs: rt}, p.Run)
	if err != nil {
		return err
	}
	runErr := mj.Wait()
	if terr := writeTrace(opts.TracePath, rt); terr != nil && runErr == nil {
		runErr = terr
	}
	return runErr
}

func writeTrace(path string, rt *obs.Runtime) error {
	if path == "" || rt == nil || rt.Trace == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mrs: trace: %w", err)
	}
	if err := rt.Trace.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("mrs: trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mrs: trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "mrs: wrote %d task spans to %s\n", rt.Trace.NumSpans(), path)
	return nil
}

// Random returns an independent pseudorandom stream for the argument
// tuple, the Go analogue of mrs.MapReduce.random(*args) (§IV-A): any
// combination of up-to-~300 integers (task index, iteration, particle
// id, …) deterministically names its own Mersenne Twister stream, so
// stochastic programs give identical results in every execution mode.
func Random(seed uint64, args ...uint64) *prand.MT {
	return prand.Random(seed, args...)
}
