// Package cluster boots a complete master + N-slave deployment on
// localhost TCP for examples, tests, and benchmarks. The control plane
// (XML-RPC over HTTP), the data plane (HTTP bucket serving or shared-
// filesystem staging), heartbeats, and scheduling are all the real
// distributed code paths; only the machines are local.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/master"
	"repro/internal/obs"
	"repro/internal/slave"
)

// Options configures a local cluster.
type Options struct {
	// Slaves is the worker count (default 2).
	Slaves int
	// SharedDir switches the data plane to filesystem staging in the
	// given directory (the fault-tolerant mode). Empty selects direct
	// HTTP serving between slaves.
	SharedDir string
	// JournalDir, when set, gives the master a durable job journal so it
	// can be crashed (CrashMaster) and restarted (RestartMaster) without
	// losing completed work. Required for master-crash chaos plans.
	JournalDir string
	// Master options forwarded (heartbeats, retries, affinity).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	MaxAttempts       int
	DisableAffinity   bool
	// TaskLease, when set, forwards to the master: running assignments
	// older than the lease are requeued (recovery from lost get_task
	// responses under chaos). Leave zero outside fault tests.
	TaskLease time.Duration
	// Chaos, when non-nil, injects faults into every slave's RPC and
	// data path and applies the injector's crash/hang plan to the
	// cluster. Slave i gets the stream role "slave<i>".
	Chaos *fault.Injector
	// Obs is one observability runtime shared by the master and every
	// slave (the whole cluster is in-process, so local task-engine
	// metrics and master trace events naturally aggregate). Nil gives
	// the master a private metrics-only runtime.
	Obs *obs.Runtime
	// Prefetch is the per-slave input-fetch window (0 = default,
	// 1 = one bucket at a time).
	Prefetch int
	// MaxConcurrentJobs bounds how many managed jobs the master runs at
	// once (0 = master default). Jobs past the bound queue in
	// submission order.
	MaxConcurrentJobs int
	// SlaveConcurrency is how many tasks each slave runs at once
	// (default 1). Raise it so one fleet can serve several jobs' tasks
	// simultaneously.
	SlaveConcurrency int
	// ResidentBudget is the per-slave resident dataset cache budget in
	// bytes (<= 0 disables residency on the whole fleet).
	ResidentBudget int64
	// SpeculationFactor enables straggler re-execution on the master's
	// scheduler: a task running longer than factor × the job's median
	// attempt duration gets a duplicate attempt, first completion wins.
	// 0 disables.
	SpeculationFactor float64
	// SpeculationMinRuntime floors the speculation trigger (0 =
	// default); only meaningful with SpeculationFactor set.
	SpeculationMinRuntime time.Duration
}

// Cluster is a running local deployment.
type Cluster struct {
	M *master.Master

	chaos    *fault.Injector
	obs      *obs.Runtime
	prefetch int
	slaveCon int
	resident int64

	mopts      master.Options // as built by Start, for RestartMaster
	masterAddr string         // concrete listen address of the first master

	mu      sync.Mutex
	slaves  []*slaveHandle
	timers  []*time.Timer // pending chaos events, stopped on Close
	nextIdx int
}

type slaveHandle struct {
	s      *slave.Slave
	cancel context.CancelFunc
	err    error
	done   chan struct{} // closed when Run returns; err is set before the close
}

// Start boots the master and slaves and waits until all slaves have
// signed in.
func Start(reg *core.Registry, opts Options) (*Cluster, error) {
	if opts.Slaves <= 0 {
		opts.Slaves = 2
	}
	mopts := master.Options{
		SharedDir:             opts.SharedDir,
		JournalDir:            opts.JournalDir,
		HeartbeatInterval:     opts.HeartbeatInterval,
		HeartbeatTimeout:      opts.HeartbeatTimeout,
		MaxAttempts:           opts.MaxAttempts,
		DisableAffinity:       opts.DisableAffinity,
		TaskLease:             opts.TaskLease,
		Obs:                   opts.Obs,
		MaxConcurrentJobs:     opts.MaxConcurrentJobs,
		SpeculationFactor:     opts.SpeculationFactor,
		SpeculationMinRuntime: opts.SpeculationMinRuntime,
	}
	m, err := master.New(mopts)
	if err != nil {
		return nil, err
	}
	c := &Cluster{M: m, chaos: opts.Chaos, obs: opts.Obs, prefetch: opts.Prefetch, slaveCon: opts.SlaveConcurrency, resident: opts.ResidentBudget, mopts: mopts, masterAddr: m.Addr()}
	for i := 0; i < opts.Slaves; i++ {
		if _, err := c.AddSlave(reg, opts.SharedDir); err != nil {
			c.Close()
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitForSlaves(ctx, opts.Slaves); err != nil {
		c.Close()
		return nil, err
	}
	c.scheduleChaos(opts.Slaves)
	return c, nil
}

// slaveRole names the fault stream of slave i; the same naming is used
// for decisions and for crash/hang plan targeting so a chaos run's
// schedule is stable across executions.
func slaveRole(i int) string { return fmt.Sprintf("slave%d", i) }

// scheduleChaos arms the injector's crash/hang plan against this
// cluster. Crashes cancel the slave's Run loop (its data server dies
// too); hangs stall the slave's RPC paths past the heartbeat timeout so
// the master reaps it and the slave must re-sign in.
func (c *Cluster) scheduleChaos(nSlaves int) {
	if c.chaos == nil {
		return
	}
	for _, ev := range c.chaos.Plan(nSlaves) {
		ev := ev
		var fire func()
		switch ev.Kind {
		case fault.PlanCrash:
			fire = func() { _ = c.KillSlave(ev.Slave) }
		case fault.PlanHang:
			fire = func() { c.chaos.HangFor(slaveRole(ev.Slave), ev.Dur) }
		case fault.PlanMasterCrash:
			restartAfter := ev.Dur
			fire = func() {
				c.CrashMaster()
				c.mu.Lock()
				c.timers = append(c.timers, time.AfterFunc(restartAfter, func() { _ = c.RestartMaster() }))
				c.mu.Unlock()
			}
		default:
			continue
		}
		c.mu.Lock()
		c.timers = append(c.timers, time.AfterFunc(ev.At, fire))
		c.mu.Unlock()
	}
}

// Drain asks the master to take a node (by id or advertised address)
// out of rotation; see master.Drain.
func (c *Cluster) Drain(target string) bool {
	return c.Master().Drain(target)
}

// AddSlave starts one more slave (usable mid-run, e.g. in elasticity
// tests) and returns its index; it receives work immediately if a job
// is in flight.
func (c *Cluster) AddSlave(reg *core.Registry, sharedDir string) (int, error) {
	c.mu.Lock()
	idx := c.nextIdx
	c.nextIdx++
	c.mu.Unlock()
	sopts := slave.Options{
		MasterAddr:     c.masterAddr,
		SharedDir:      sharedDir,
		Obs:            c.obs,
		Prefetch:       c.prefetch,
		Concurrency:    c.slaveCon,
		ResidentBudget: c.resident,
	}
	if c.chaos != nil {
		role := slaveRole(idx)
		sopts.RPCIntercept = c.chaos.Intercept(role)
		// The injector wraps the tuned shared transport so chaos runs
		// keep the same connection-reuse behavior as clean runs.
		sopts.DataClient = &http.Client{
			Timeout:   bucket.HTTPTimeout,
			Transport: c.chaos.RoundTripper(role, bucket.DefaultTransport),
		}
		sopts.BackoffSeed = uint64(idx) + 1
	}
	s, err := slave.New(reg, sopts)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &slaveHandle{s: s, cancel: cancel, done: make(chan struct{})}
	go func() {
		h.err = s.Run(ctx)
		close(h.done)
	}()
	c.mu.Lock()
	for len(c.slaves) <= idx {
		c.slaves = append(c.slaves, nil)
	}
	c.slaves[idx] = h
	c.mu.Unlock()
	return idx, nil
}

// Master returns the current master under the cluster lock — after a
// RestartMaster the public M field points at the replacement, and this
// accessor is the race-safe way to observe the swap.
func (c *Cluster) Master() *master.Master {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.M
}

// CrashMaster kills the master abruptly: no journal flush, no shutdown
// broadcast, in-flight RPCs severed — the process-kill simulation.
// In-flight jobs fail with sched.ErrClosed; resume them by job id on
// the restarted master.
func (c *Cluster) CrashMaster() {
	c.Master().Crash()
}

// RestartMaster boots a fresh master from the journal on the crashed
// master's address, so slaves (which retry and then re-sign-in via the
// unknown-slave fault) reconnect without reconfiguration. It replaces
// the cluster's M.
func (c *Cluster) RestartMaster() error {
	c.mu.Lock()
	mopts := c.mopts
	mopts.Addr = c.masterAddr
	c.mu.Unlock()
	var m *master.Master
	var err error
	// The crashed listener's port can linger briefly; retry the bind.
	for i := 0; i < 100; i++ {
		m, err = master.New(mopts)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("cluster: restart master: %w", err)
	}
	c.mu.Lock()
	c.M = m
	c.mu.Unlock()
	return nil
}

// Executor returns the cluster's core.Executor (the master).
func (c *Cluster) Executor() core.Executor { return c.Master() }

// Jobs returns the master's job manager, for submitting several
// programs against this one fleet.
func (c *Cluster) Jobs() *master.JobManager { return c.Master().Jobs() }

// Submit admits a named program to the shared fleet; see
// master.JobManager.Submit.
func (c *Cluster) Submit(name string, opts core.JobOptions, run func(*core.Job) error) (*master.ManagedJob, error) {
	return c.Master().Jobs().Submit(name, opts, run)
}

// NumSlaves returns the number of slaves the harness ever started.
func (c *Cluster) NumSlaves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slaves)
}

// Slave returns the i-th slave (for inspecting task counts).
func (c *Cluster) Slave(i int) *slave.Slave {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slaves[i].s
}

// KillSlave abruptly stops slave i: its loop is cancelled and its data
// server dies with it, simulating a crashed worker.
func (c *Cluster) KillSlave(i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.slaves) || c.slaves[i] == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no slave %d", i)
	}
	h := c.slaves[i]
	c.mu.Unlock()
	h.cancel()
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("cluster: slave %d did not stop", i)
	}
	return nil
}

// Close shuts down the whole cluster: master first (which tells its
// slaves to shut down via get_task), then force-cancels stragglers.
func (c *Cluster) Close() error {
	c.mu.Lock()
	timers := c.timers
	c.timers = nil
	c.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	err := c.Master().Close()
	c.mu.Lock()
	handles := append([]*slaveHandle(nil), c.slaves...)
	c.mu.Unlock()
	for _, h := range handles {
		if h == nil {
			continue
		}
		select {
		case <-h.done:
		case <-time.After(3 * time.Second):
			h.cancel()
			<-h.done
		}
	}
	return err
}
