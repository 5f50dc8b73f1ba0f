// Package master implements the distributed master: it serves the
// XML-RPC control plane, tracks slave liveness via heartbeats, drives
// the task scheduler, and acts as a core.Executor so programs run on a
// cluster exactly as they run serially.
//
// Mirroring §IV of the Mrs paper: starting a job requires only starting
// one master and any number of slaves; no daemons or config files. The
// master writes its address to a port file so startup scripts (and the
// pbs simulator) can hand it to slaves.
//
// The master is also the cluster's observability hub (internal/obs,
// docs/OBSERVABILITY.md): its HTTP server mounts the /debug surface —
// /debug/status, /debug/metrics (Prometheus text), /debug/pprof — next
// to the RPC and data endpoints, trace IDs issued by the Job driver
// travel to slaves inside assignments, and the per-attempt timing
// breakdown slaves report with each task outcome flows back through the
// scheduler into Job.Stats.
package master

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bucket"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/xmlrpc"
)

// DefaultBlacklistAfter is how many task failures a slave may report
// before the master stops assigning it work (while other slaves live).
const DefaultBlacklistAfter = 16

// Options configures a master.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// PortFile, if set, receives "host:port\n" once listening — the
	// paper's mechanism for slaves to discover a master started by a
	// batch script.
	PortFile string
	// Dir is the master's bucket directory (local data, collect
	// staging). Empty means a private temp dir, made at the first
	// bucket file and removed on Close.
	Dir string
	// SharedDir, when non-empty, signals filesystem staging mode: the
	// master (and every slave) uses this directory and file:// URLs.
	SharedDir string
	// HeartbeatInterval is sent to slaves at signin (default 250ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a silent slave lives (default 8x
	// the interval).
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds task retries (default sched.DefaultMaxAttempts).
	MaxAttempts int
	// LongPoll bounds a get_task block (default 1s).
	LongPoll time.Duration
	// DisableAffinity turns off iteration affinity (ablation).
	DisableAffinity bool
	// TaskLease, when positive, requeues tasks that have been running
	// longer than this — recovery for assignments whose get_task
	// response was lost in flight. Completions are idempotent, so
	// requeuing a task that is secretly still running is safe; size the
	// lease well above the longest legitimate task. Zero disables.
	TaskLease time.Duration
	// BlacklistAfter stops assigning tasks to a slave after this many
	// reported task failures, as long as at least one other slave is
	// alive (repeat-offender quarantine). Zero selects
	// DefaultBlacklistAfter; negative disables.
	BlacklistAfter int
	// SpeculationFactor enables speculative straggler re-execution: a
	// task whose sole attempt has run longer than this factor times the
	// operation's median completed duration gets a duplicate attempt on
	// a different node, first completion wins (sched.SetSpeculation).
	// Zero disables.
	SpeculationFactor float64
	// SpeculationMinRuntime floors the speculation threshold (0 selects
	// the scheduler default; tests shrink it to drive fake-clock
	// speculation).
	SpeculationMinRuntime time.Duration
	// Clock drives heartbeat reaping, leases, and long-poll deadlines
	// (default: the wall clock; tests inject a fake).
	Clock clock.Clock
	// Obs is the observability runtime shared with the Job driver; the
	// master feeds it scheduler trace events and control-plane metrics
	// and serves it at /debug. Nil creates a private metrics-only
	// runtime so /debug/metrics always works.
	Obs *obs.Runtime
	// MaxConcurrentJobs bounds the JobManager's admission: at most this
	// many managed jobs run at once, the rest queue in submission order
	// (default DefaultMaxConcurrentJobs).
	MaxConcurrentJobs int
	// JournalDir, when non-empty, makes the master durable: job
	// lifecycle events are logged there (internal/journal), and a master
	// started on a directory holding a previous master's journal recovers
	// its state — clients then reattach via Jobs().Resume and completed
	// tasks are answered from their journaled output manifests instead of
	// re-executing. Pair with SharedDir so the data those manifests name
	// survives the crash too.
	JournalDir string
	// JournalCheckpointEvery compacts the journal on this period (0
	// disables timer-driven compaction).
	JournalCheckpointEvery time.Duration
	// JournalCheckpointRecords compacts the journal after this many
	// records (0 = journal default, negative disables).
	JournalCheckpointRecords int
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 8 * o.HeartbeatInterval
	}
	if o.LongPoll <= 0 {
		o.LongPoll = time.Second
	}
	if o.BlacklistAfter == 0 {
		o.BlacklistAfter = DefaultBlacklistAfter
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	if o.Obs == nil {
		o.Obs = obs.New(o.Clock)
	}
	if o.MaxConcurrentJobs <= 0 {
		o.MaxConcurrentJobs = DefaultMaxConcurrentJobs
	}
}

// slaveInfo tracks one signed-in slave.
type slaveInfo struct {
	id        string
	addr      string // advertised address ("" for anonymous slaves)
	slots     int64  // offered task slots
	tasksDone int64  // completions this node reported
	draining  bool   // next get_task answers shutdown and forgets it
	shutDown  bool   // a poll was answered shutdown after Close began
	polls     int64  // get_task polls received, counted up to slots
	lastSeen  time.Time
}

// polling reports whether every slot the node offered has polled.
func (info *slaveInfo) polling() bool { return info.polls >= max(info.slots, 1) }

// Master is the distributed executor.
type Master struct {
	opts    Options
	sched   *sched.Scheduler
	store   *bucket.Store
	ln      net.Listener
	httpSrv *http.Server
	addr    string
	manager *JobManager

	// recovered is the journal state replayed at startup (empty when no
	// journal or a fresh one); immutable after New.
	recovered *journal.State
	// incarnation numbers this start of a journaled master (0 without a
	// journal); node ids carry it from the second start on.
	incarnation int64

	mu             sync.Mutex
	slaves         map[string]*slaveInfo
	nextSlave      int
	pendingDeletes map[string][]string // slaveID -> bucket names
	pendingGC      map[string][]int64  // slaveID -> completed job ids to reclaim
	jobStats       map[core.JobID]*JobTaskStats
	taskStats      TaskStats
	journal        *journal.Journal // nil once detached by Close/Crash
	closed         bool
	crashed        bool // Crash() was used; skip clean-shutdown signals

	// closing is closed by Close and Crash: it wakes parked polls.
	// shutdownAck is kicked each time a node is first answered shutdown,
	// so Close can stop waiting once the whole fleet has heard.
	closing     chan struct{}
	shutdownAck chan struct{}
	// joined is closed and replaced once every slot of a node has
	// polled (wakeWaiters), so WaitForSlaves recounts.
	joined chan struct{}

	reaperStop chan struct{}
	reaperDone chan struct{}
	specDone   chan struct{} // nil unless the speculation scanner runs

	// fresh holds the server's connections that have carried no request
	// yet (http.StateNew). Shutdown counts such a connection as busy for
	// 5 s, so Close closes them itself once the fleet has heard.
	connMu sync.Mutex
	fresh  map[net.Conn]struct{}
}

// JobTaskStats counts one job's completed work as reported over the
// control plane (rendered on /debug/status and by benchmarks).
type JobTaskStats struct {
	TasksDone    int64
	TasksFailed  int64
	ShuffleBytes int64 // input bytes the job's finished tasks consumed
}

// TaskStats counts control-plane events (benchmarks read these).
type TaskStats struct {
	TasksAssigned int64
	TasksDone     int64
	TasksFailed   int64
	TasksRequeued int64 // stale leases reclaimed (lost assignments)
	SlavesSeen    int64
	SlavesLost    int64
	Blacklisted   int64 // get_task requests parked by the blacklist
	IdlePolls     int64 // get_task polls answered idle
}

// New starts a master listening on opts.Addr.
func New(opts Options) (*Master, error) {
	opts.fill()
	m := &Master{
		opts:           opts,
		sched:          sched.NewWithClock(opts.MaxAttempts, opts.Clock),
		slaves:         map[string]*slaveInfo{},
		pendingDeletes: map[string][]string{},
		pendingGC:      map[string][]int64{},
		jobStats:       map[core.JobID]*JobTaskStats{},
		closing:        make(chan struct{}),
		shutdownAck:    make(chan struct{}, 1),
		joined:         make(chan struct{}),
		reaperStop:     make(chan struct{}),
		reaperDone:     make(chan struct{}),
		fresh:          map[net.Conn]struct{}{},
	}
	m.sched.SetObserver(opts.Obs)
	m.sched.SetBlacklist(opts.BlacklistAfter, m.NumSlaves)
	if opts.SpeculationFactor > 0 {
		m.sched.SetSpeculation(sched.SpeculationConfig{
			SlownessFactor: opts.SpeculationFactor,
			MinRuntime:     opts.SpeculationMinRuntime,
		})
	}
	m.registerGauges(opts.Obs)
	m.manager = newJobManager(m, opts.MaxConcurrentJobs)
	m.recovered = journal.NewState()

	if opts.JournalDir != "" {
		jl, st, err := journal.Open(opts.JournalDir, journal.Options{
			Clock:             opts.Clock,
			Metrics:           opts.Obs.M(),
			CheckpointEvery:   opts.JournalCheckpointEvery,
			CheckpointRecords: opts.JournalCheckpointRecords,
		})
		if err != nil {
			return nil, err
		}
		m.journal = jl
		m.recovered = st
		// Number this start durably before any node signs in: a
		// restarted master must never reissue a node id its predecessor
		// handed out, or a task report still in flight from before the
		// crash could name a new assignment of the same (node, task).
		m.incarnation = st.Incarnation + 1
		err = jl.Append(journal.Event{Kind: journal.EvMasterStarted, Incarnation: m.incarnation})
		if err == nil {
			err = jl.Sync()
		}
		if err != nil {
			jl.Close()
			return nil, err
		}
		if len(st.Jobs) > 0 {
			opts.Obs.M().Add(obs.MetricMasterRecoveries, 1)
		}
		// Seed the manager's id counter past every journaled job so
		// resumed and fresh submissions never collide, restore journaled
		// fair-share weights, and rebuild the control-plane stats the
		// journaled completions would have accumulated — a recovered
		// master reports the same JobStats a never-crashed one does.
		m.manager.nextID = core.JobID(st.MaxJobID)
		for id, jr := range st.Jobs {
			if jr.State != journal.JobRunning {
				continue
			}
			if jr.Weight > 0 {
				m.sched.SetJobWeight(core.JobID(id), jr.Weight)
			}
			m.jobStats[core.JobID(id)] = &JobTaskStats{
				TasksDone:    jr.TasksDone,
				ShuffleBytes: jr.ShuffleBytes,
			}
			m.taskStats.TasksDone += jr.TasksDone
		}
	}

	dir := opts.Dir // "" gives the store a private directory
	if opts.SharedDir != "" {
		dir = opts.SharedDir
	}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		if m.journal != nil {
			m.journal.Close()
		}
		return nil, fmt.Errorf("master: listen %s: %w", opts.Addr, err)
	}
	m.ln = ln
	m.addr = ln.Addr().String()

	baseURL := ""
	if opts.SharedDir == "" {
		baseURL = "http://" + m.addr + "/data"
	}
	store, err := bucket.NewFileStore(dir, baseURL)
	if err != nil {
		ln.Close()
		if m.journal != nil {
			m.journal.Close()
		}
		return nil, err
	}
	store.SetMetrics(opts.Obs.M())
	m.store = store

	rpc := xmlrpc.NewServer()
	for method, h := range map[string]xmlrpc.Handler{
		rpcproto.MethodSignin:  m.handleSignin,
		rpcproto.MethodGetTask: m.handleGetTask,
		rpcproto.MethodPing:    m.handlePing,
		rpcproto.MethodDrain:   m.handleDrain,
	} {
		rpc.Register(method, obs.CountCalls(opts.Obs.M(), method, h))
	}

	mux := http.NewServeMux()
	mux.Handle(xmlrpc.RPCPath, rpc)
	mux.HandleFunc("/data/", m.serveData)
	obs.RegisterDebug(mux, opts.Obs, m.statusPage)
	m.httpSrv = &http.Server{Handler: mux, ConnState: m.trackConn}
	go m.httpSrv.Serve(ln)
	go m.reaper()
	if opts.SpeculationFactor > 0 {
		// Straggler scans run on their own cadence, tied to the
		// speculation floor rather than the (much coarser) liveness
		// timeout: a stalled attempt should be duplicated within a
		// couple of MinRuntime periods.
		m.specDone = make(chan struct{})
		go m.speculator()
	}

	if opts.PortFile != "" {
		if err := os.WriteFile(opts.PortFile, []byte(m.addr+"\n"), 0o644); err != nil {
			m.Close()
			return nil, fmt.Errorf("master: writing port file: %w", err)
		}
	}
	return m, nil
}

// Addr returns the master's host:port.
func (m *Master) Addr() string { return m.addr }

// journalAppend logs an event if the master is durable; a detached
// journal (Close/Crash in progress) drops it.
func (m *Master) journalAppend(ev journal.Event) {
	m.mu.Lock()
	jl := m.journal
	m.mu.Unlock()
	if jl != nil {
		_ = jl.Append(ev)
	}
}

// Recovered returns a snapshot of the journal state the master
// replayed at startup (empty when not durable or nothing was
// journaled). Clients use it to find jobs to Resume.
func (m *Master) Recovered() *journal.State {
	return m.recovered.Clone()
}

// recoveredOutputs returns the journaled output manifests for a task,
// or nil when the task never completed (or the data they name no
// longer exists — then the task simply re-executes).
func (m *Master) recoveredOutputs(jobID core.JobID, dataset, taskIndex int) []journal.Manifest {
	jr := m.recovered.Job(int64(jobID))
	if jr == nil || jr.State != journal.JobRunning {
		return nil
	}
	outs := jr.TaskOutputs(dataset, taskIndex)
	if len(outs) == 0 {
		return nil
	}
	for _, o := range outs {
		if !m.manifestAlive(o) {
			return nil
		}
	}
	return outs
}

// recoveredResult rebuilds a task's result, fused members included,
// from journaled output manifests. It returns nil unless recoveredOutputs
// has manifests for the task and for every member.
func (m *Master) recoveredResult(spec *core.TaskSpec) *core.TaskResult {
	outs := m.recoveredOutputs(spec.Job, spec.Op.Dataset, spec.TaskIndex)
	if outs == nil {
		return nil
	}
	res := &core.TaskResult{Dataset: spec.Op.Dataset, TaskIndex: spec.TaskIndex}
	for _, o := range outs {
		res.Outputs = append(res.Outputs, o.Descriptor())
	}
	for _, member := range spec.Then {
		r := m.recoveredResult(member)
		if r == nil {
			return nil
		}
		res.Then = append(res.Then, r)
	}
	return res
}

// manifestAlive reports whether a journaled bucket manifest still
// names reachable data. Files (shared-dir staging) and this master's
// own buckets are statted; slave-served HTTP buckets cannot be checked
// cheaply and are assumed dead — the previous fleet's data servers died
// with the previous master's run, so counting on them would trade a
// cheap re-execution for a task-long fetch stall.
func (m *Master) manifestAlive(o journal.Manifest) bool {
	switch {
	case strings.HasPrefix(o.URL, "file://"):
		_, err := os.Stat(strings.TrimPrefix(o.URL, "file://"))
		return err == nil
	default:
		return false
	}
}

// URL returns the master's RPC endpoint URL.
func (m *Master) URL() string { return "http://" + m.addr + xmlrpc.RPCPath }

// Stats returns a snapshot of control-plane counters.
func (m *Master) Stats() TaskStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.taskStats
}

// Scheduler exposes the scheduler (ablation benches).
func (m *Master) Scheduler() *sched.Scheduler { return m.sched }

// Jobs returns the master's job manager, which hosts concurrent
// core.Job executors behind a bounded admission queue.
func (m *Master) Jobs() *JobManager { return m.manager }

// JobStats returns a snapshot of one job's control-plane counters.
func (m *Master) JobStats(id core.JobID) JobTaskStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if js, ok := m.jobStats[id]; ok {
		return *js
	}
	return JobTaskStats{}
}

func (m *Master) jobStatsLocked(id core.JobID) *JobTaskStats {
	js, ok := m.jobStats[id]
	if !ok {
		js = &JobTaskStats{}
		m.jobStats[id] = js
	}
	return js
}

// registerGauges exposes control-plane state to the metrics surface.
// TaskStats counters are exported as gauges because they are snapshots
// of the same mutex-guarded struct benchmarks read.
func (m *Master) registerGauges(rt *obs.Runtime) {
	mm := rt.M()
	mm.SetGauge("mrs_slaves_live", func() int64 { return int64(m.NumSlaves()) })
	stat := func(pick func(TaskStats) int64) func() int64 {
		return func() int64 { return pick(m.Stats()) }
	}
	mm.SetGauge("mrs_master_tasks_assigned", stat(func(s TaskStats) int64 { return s.TasksAssigned }))
	mm.SetGauge("mrs_master_tasks_done", stat(func(s TaskStats) int64 { return s.TasksDone }))
	mm.SetGauge("mrs_master_tasks_failed", stat(func(s TaskStats) int64 { return s.TasksFailed }))
	mm.SetGauge("mrs_master_tasks_requeued", stat(func(s TaskStats) int64 { return s.TasksRequeued }))
	mm.SetGauge("mrs_master_blacklisted", stat(func(s TaskStats) int64 { return s.Blacklisted }))
	mm.SetGauge("mrs_slaves_seen", stat(func(s TaskStats) int64 { return s.SlavesSeen }))
	mm.SetGauge("mrs_slaves_lost", stat(func(s TaskStats) int64 { return s.SlavesLost }))
}

// statusPage renders the master half of /debug/status: the aggregate
// fields single-job runs have always had, plus — when the JobManager
// has hosted any jobs — a per-job table of state, task counts, and
// shuffled bytes.
func (m *Master) statusPage() string {
	st := m.Stats()
	out := fmt.Sprintf(
		"mrs master %s\nslaves live: %d (seen %d, lost %d)\nsched: %d pending, %d running\ntasks: %d assigned, %d done, %d failed, %d requeued, %d blacklisted polls\n",
		m.addr, m.NumSlaves(), st.SlavesSeen, st.SlavesLost,
		m.sched.Pending(), m.sched.Running(),
		st.TasksAssigned, st.TasksDone, st.TasksFailed, st.TasksRequeued, st.Blacklisted)
	if nodes := m.Nodes(); len(nodes) > 0 {
		out += "nodes:\n"
		for _, n := range nodes {
			extra := ""
			if n.Draining {
				extra = " draining"
			}
			out += fmt.Sprintf("  %s addr=%s slots=%d done=%d%s\n",
				n.ID, n.Addr, n.Slots, n.TasksDone, extra)
		}
	}
	jobs := m.manager.List()
	if len(jobs) == 0 {
		return out
	}
	out += "jobs:\n"
	for _, ji := range jobs {
		pending, running := m.sched.JobCounts(ji.ID)
		js := m.JobStats(ji.ID)
		out += fmt.Sprintf("  job %d %q: %s — %d pending, %d running, %d done, %d failed, %d bytes shuffled\n",
			ji.ID, ji.Name, ji.State, pending, running, js.TasksDone, js.TasksFailed, js.ShuffleBytes)
	}
	return out
}

// serveData serves bucket files to slaves and to Collect.
func (m *Master) serveData(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/data/")
	path, err := m.store.ServeName(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bucket.ServeBucket(w, r, path)
}

// ---------------------------------------------------------------------------
// RPC handlers

func (m *Master) handleSignin(args []any) (any, error) {
	node := rpcproto.DecodeSigninArgs(args)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("master: closed")
	}
	m.nextSlave++
	id := fmt.Sprintf("slave-%d", m.nextSlave)
	if m.incarnation > 1 {
		id = fmt.Sprintf("slave-r%d-%d", m.incarnation, m.nextSlave)
	}
	m.slaves[id] = &slaveInfo{
		id:       id,
		addr:     node.Addr,
		slots:    node.Slots,
		lastSeen: m.opts.Clock.Now(),
	}
	m.taskStats.SlavesSeen++
	return rpcproto.SigninReply{
		SlaveID:         id,
		HeartbeatMillis: m.opts.HeartbeatInterval.Milliseconds(),
	}.Encode(), nil
}

// touch refreshes a slave's liveness; returns false for unknown slaves
// (e.g. ones already declared dead).
func (m *Master) touch(slaveID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	info, ok := m.slaves[slaveID]
	if !ok {
		return false
	}
	info.lastSeen = m.opts.Clock.Now()
	return true
}

// unknownSlaveFault is the typed fault slaves key their re-signin on.
func unknownSlaveFault(slaveID string) *xmlrpc.Fault {
	return &xmlrpc.Fault{
		Code:    rpcproto.FaultUnknownSlave,
		Message: fmt.Sprintf("master: unknown slave %s (declared dead?)", slaveID),
	}
}

func slaveIDArg(args []any) (string, error) {
	if len(args) < 1 {
		return "", fmt.Errorf("master: missing slave id")
	}
	id, ok := args[0].(string)
	if !ok || id == "" {
		return "", fmt.Errorf("master: bad slave id %v", args[0])
	}
	return id, nil
}

func (m *Master) handlePing(args []any) (any, error) {
	id, err := slaveIDArg(args)
	if err != nil {
		return nil, err
	}
	if !m.touch(id) {
		return nil, unknownSlaveFault(id)
	}
	return true, nil
}

// handleGetTask answers a slave's poll: get_task(node[, reports]). The
// optional reports are the outcomes of the slot's previous task, so a
// slave pays one round trip per task: the poll that asks for the next
// task delivers the last one's result. Reports are applied before
// anything else — the unknown-node fault, the drain or shutdown answer,
// the blacklist park — and applying one twice is harmless (the
// scheduler ignores duplicates), so a slave redelivers a report until a
// poll is answered. A report the scheduler rejects is final and does
// not fail the poll.
func (m *Master) handleGetTask(args []any) (any, error) {
	id, err := slaveIDArg(args)
	if err != nil {
		return nil, err
	}
	if len(args) >= 2 {
		reports, err := rpcproto.DecodeReports(args[1])
		if err != nil {
			return nil, err
		}
		_ = m.applyReports(id, reports)
	}
	a, err := m.assignOne(id)
	if err != nil {
		return nil, err
	}
	return encodeAssignment(a)
}

// assignOne is the poll body: liveness bookkeeping, piggybacked
// broadcasts, then one long poll on the scheduler.
func (m *Master) assignOne(id string) (rpcproto.Assignment, error) {
	if !m.touch(id) {
		return rpcproto.Assignment{}, unknownSlaveFault(id)
	}
	// Collect piggybacked deletes and job-GC broadcasts.
	m.mu.Lock()
	a := rpcproto.Assignment{Deletes: m.pendingDeletes[id], GCJobs: m.pendingGC[id]}
	delete(m.pendingDeletes, id)
	delete(m.pendingGC, id)
	closed := m.closed
	draining := false
	info := m.slaves[id]
	if info != nil && !info.polling() {
		if info.polls++; info.polling() {
			m.wakeWaiters()
		}
	}
	if info != nil && info.draining {
		// Drain completion: the node's leases were already requeued by
		// Drain; this poll carries the shutdown answer and the node is
		// forgotten. Late task reports from it still resolve through
		// the scheduler's stale-delivery tolerance.
		draining = true
		delete(m.slaves, id)
	}
	m.mu.Unlock()
	if draining {
		a.Status = rpcproto.StatusShutdown
		return a, nil
	}
	if closed {
		return m.shutdownAnswer(id, a)
	}
	if m.blacklisted(id) {
		// Park the repeat offender for a long-poll period so it paces
		// itself like an idle slave, then send it away empty-handed.
		if !m.park() {
			return m.shutdownAnswer(id, a)
		}
		m.touch(id)
		m.mu.Lock()
		m.taskStats.Blacklisted++
		m.taskStats.IdlePolls++
		m.mu.Unlock()
		a.Status = rpcproto.StatusIdle
		return a, nil
	}
	task, attempt, err := m.sched.RequestAttempt(id, m.opts.LongPoll)
	if err == sched.ErrClosed {
		return m.shutdownAnswer(id, a)
	}
	if err != nil {
		return rpcproto.Assignment{}, err
	}
	m.touch(id) // the long poll may have taken a while
	m.mu.Lock()
	if task == nil {
		m.taskStats.IdlePolls++
		m.mu.Unlock()
		a.Status = rpcproto.StatusIdle
		return a, nil
	}
	m.taskStats.TasksAssigned++
	m.mu.Unlock()
	a.Status = rpcproto.StatusTask
	a.TaskID = int64(task.ID)
	a.Attempt = int64(attempt)
	a.Spec = task.Spec
	return a, nil
}

// park holds a poll for one long-poll period on the master's clock. It
// reports false when Close or Crash cut the wait short.
func (m *Master) park() bool {
	wake := make(chan struct{})
	t := m.opts.Clock.AfterFunc(m.opts.LongPoll, func() { close(wake) })
	defer t.Stop()
	select {
	case <-wake:
		return true
	case <-m.closing:
		return false
	}
}

// shutdownAnswer answers a poll that arrives while the master stops. A
// closing master tells the node to shut down and records that it
// heard; a crashing master must not tell the fleet to shut down — a
// plain error makes slaves back off and retry until the restarted
// master answers.
func (m *Master) shutdownAnswer(id string, a rpcproto.Assignment) (rpcproto.Assignment, error) {
	m.mu.Lock()
	if m.crashed {
		m.mu.Unlock()
		return rpcproto.Assignment{}, fmt.Errorf("master: unavailable (crashing)")
	}
	first := false
	if info := m.slaves[id]; info != nil && !info.shutDown {
		info.shutDown, first = true, true
	}
	m.mu.Unlock()
	if first {
		select {
		case m.shutdownAck <- struct{}{}:
		default:
		}
	}
	a.Status = rpcproto.StatusShutdown
	return a, nil
}

// blacklisted reports whether the slave has failed enough tasks to be
// parked rather than long-polled. Quarantine is per job inside the
// scheduler (a slave blacklisted for one job still serves others);
// only a slave blacklisted for *every* current job is parked here. The
// last live slave is never blacklisted — a degraded worker beats a
// deadlocked job.
func (m *Master) blacklisted(id string) bool {
	return m.sched.BlacklistedEverywhere(id)
}

func encodeAssignment(a rpcproto.Assignment) (any, error) {
	enc, err := a.Encode()
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// applyTaskDone feeds one completion into the scheduler and, if
// accepted, into stats, metrics, and the journal — once for the task
// and once for each fused member it carried.
func (m *Master) applyTaskDone(id string, jobID, taskID int64, result *core.TaskResult) error {
	spec, err := m.sched.CompleteTask(sched.TaskID(taskID), id, result)
	if err != nil {
		return err
	}
	if spec != nil {
		m.recordDone(id, jobID, spec, result)
		for i, member := range spec.Then {
			if i < len(result.Then) {
				m.recordDone(id, jobID, member, result.Then[i])
			}
		}
	}
	if m.opts.DisableAffinity {
		m.sched.ClearAffinity()
	}
	return nil
}

// recordDone counts one accepted task completion and journals it.
func (m *Master) recordDone(id string, jobID int64, spec *core.TaskSpec, result *core.TaskResult) {
	m.mu.Lock()
	m.taskStats.TasksDone++
	if info := m.slaves[id]; info != nil {
		info.tasksDone++
	}
	js := m.jobStatsLocked(core.JobID(jobID))
	js.TasksDone++
	js.ShuffleBytes += result.Timing.InBytes
	m.mu.Unlock()
	mm := m.opts.Obs.M()
	mm.Add(obs.JobSeries("mrs_job_tasks_done_total", jobID), 1)
	mm.Add(obs.JobSeries("mrs_job_shuffle_bytes_total", jobID), result.Timing.InBytes)
	if spec.Job != 0 {
		m.journalAppend(journal.Event{
			Kind:    journal.EvTaskDone,
			Job:     int64(spec.Job),
			Dataset: spec.Op.Dataset,
			Task:    spec.TaskIndex,
			Outputs: journal.FromDescriptors(result.Outputs),
			InBytes: result.Timing.InBytes,
			Node:    id,
		})
	}
}

// applyTaskFailed is applyTaskDone's failure-path twin.
func (m *Master) applyTaskFailed(id string, jobID, taskID int64, msg string) error {
	m.mu.Lock()
	m.taskStats.TasksFailed++
	m.jobStatsLocked(core.JobID(jobID)).TasksFailed++
	m.mu.Unlock()
	m.opts.Obs.M().Add(obs.JobSeries("mrs_job_tasks_failed_total", jobID), 1)
	return m.sched.Fail(sched.TaskID(taskID), id, msg)
}

// applyReports applies a slave's task outcomes, each naming its own
// job. Every report is applied even if one errors, and the first error
// is returned.
func (m *Master) applyReports(id string, reports []rpcproto.Report) error {
	var firstErr error
	for _, r := range reports {
		var err error
		if r.Done {
			err = m.applyTaskDone(id, r.Job, r.TaskID, r.Result())
		} else {
			err = m.applyTaskFailed(id, r.Job, r.TaskID, r.Err)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// handleDrain takes a node out of rotation by id or advertised
// address: its leases requeue immediately and its next get_task
// answers shutdown. args: (target).
func (m *Master) handleDrain(args []any) (any, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("master: drain wants (node-id-or-addr)")
	}
	target, _ := args[0].(string)
	if target == "" {
		return nil, fmt.Errorf("master: bad drain target %v", args[0])
	}
	if !m.Drain(target) {
		return nil, fmt.Errorf("master: drain: no node %q", target)
	}
	return true, nil
}

// Drain marks the node (by id or advertised address) draining and
// returns its leases to the scheduler. Reports whether a node matched.
func (m *Master) Drain(target string) bool {
	m.mu.Lock()
	var info *slaveInfo
	if byID := m.slaves[target]; byID != nil {
		info = byID
	} else {
		for _, si := range m.slaves {
			if si.addr != "" && si.addr == target {
				info = si
				break
			}
		}
	}
	if info == nil {
		m.mu.Unlock()
		return false
	}
	info.draining = true
	id := info.id
	m.mu.Unlock()
	m.opts.Obs.M().Add(obs.MetricMasterDrains, 1)
	m.sched.Drain(id)
	return true
}

// Nodes returns a snapshot of every signed-in node, sorted by id
// (diagnostics and the status page).
func (m *Master) Nodes() []rpcproto.NodeInfo {
	m.mu.Lock()
	out := make([]rpcproto.NodeInfo, 0, len(m.slaves))
	for _, si := range m.slaves {
		out = append(out, rpcproto.NodeInfo{
			ID:        si.id,
			Addr:      si.addr,
			Slots:     si.slots,
			TasksDone: si.tasksDone,
			Draining:  si.draining,
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ---------------------------------------------------------------------------
// Liveness

func (m *Master) reaper() {
	defer close(m.reaperDone)
	tick := m.opts.Clock.NewTicker(m.opts.HeartbeatTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-m.reaperStop:
			return
		case <-tick.Chan():
			cutoff := m.opts.Clock.Now().Add(-m.opts.HeartbeatTimeout)
			var dead []string
			m.mu.Lock()
			for id, info := range m.slaves {
				if info.lastSeen.Before(cutoff) {
					dead = append(dead, id)
					delete(m.slaves, id)
					delete(m.pendingDeletes, id)
					m.taskStats.SlavesLost++
				}
			}
			m.mu.Unlock()
			for _, id := range dead {
				m.sched.SlaveDead(id)
			}
			if m.opts.TaskLease > 0 {
				if n := m.sched.RequeueStale(m.opts.TaskLease); n > 0 {
					m.mu.Lock()
					m.taskStats.TasksRequeued += int64(n)
					m.mu.Unlock()
				}
			}
		}
	}
}

// speculator periodically scans running attempts for stragglers and
// queues duplicate attempts (sched.Speculate); started only when
// Options.SpeculationFactor enables speculation.
func (m *Master) speculator() {
	defer close(m.specDone)
	interval := m.opts.SpeculationMinRuntime / 2
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := m.opts.Clock.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.reaperStop:
			return
		case <-tick.Chan():
			m.sched.Speculate()
		}
	}
}

// NumSlaves returns the count of live slaves.
func (m *Master) NumSlaves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.slaves)
}

// WaitForSlaves blocks until at least n slaves are signed in and have
// polled get_task from every slot they offered, so work submitted next
// finds the whole fleet asking for it. A node's last first poll wakes
// it to recount, so it returns on the poll that completes the count,
// with no timer; it fails when ctx ends or the master stops.
func (m *Master) WaitForSlaves(ctx context.Context, n int) error {
	for {
		m.mu.Lock()
		have, joined := 0, m.joined
		for _, info := range m.slaves {
			if info.polling() {
				have++
			}
		}
		m.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-joined:
		case <-m.closing:
			return fmt.Errorf("master: stopped while waiting for %d polling slaves (%d are)", n, have)
		case <-ctx.Done():
			return fmt.Errorf("master: waiting for %d polling slaves (%d are): %w", n, have, ctx.Err())
		}
	}
}

// wakeWaiters wakes every WaitForSlaves to recount; m.mu must be held.
func (m *Master) wakeWaiters() {
	close(m.joined)
	m.joined = make(chan struct{})
}

// ---------------------------------------------------------------------------
// core.Executor

// Store implements core.Executor.
func (m *Master) Store() *bucket.Store { return m.store }

// Submit implements core.Executor: the task enters the scheduler's
// pending set, where tasks from any number of concurrent operations
// interleave, and slaves pull it via get_task. The callback fires when
// the task succeeds, exhausts its retry budget, or the master shuts
// down; the scheduler guarantees it never fires synchronously from
// inside Submit and never while internal locks are held.
func (m *Master) Submit(spec *core.TaskSpec, done func(*core.TaskResult, error)) {
	// Recovery short-circuit: a resumed job re-drives its whole program,
	// but tasks whose completions the journal replayed are answered from
	// their journaled output manifests — no slave ever sees them again.
	// Dataset ids are queue positions and task indexes are stable, so a
	// deterministic driver resubmits each task under the same key. A
	// fused task is answered only if its head and every member are
	// journaled; otherwise it runs whole again, which is safe because
	// outputs are deterministic and the last publish wins.
	if spec.Job != 0 {
		if res := m.recoveredResult(spec); res != nil {
			m.opts.Obs.M().Add(obs.MetricRecoveredTasks, int64(1+len(res.Then)))
			go done(res, nil)
			return
		}
	}
	if _, err := m.sched.Submit(spec, sched.Callback(done)); err != nil {
		// Scheduler already closed; deliver the refusal asynchronously
		// to honor the Executor contract.
		go done(nil, err)
	}
}

// SetJobWeight adjusts a managed job's fair-share weight, journaling
// the change so a recovered master restores it.
func (m *Master) SetJobWeight(id core.JobID, weight int) {
	m.sched.SetJobWeight(id, weight)
	if id != 0 {
		m.journalAppend(journal.Event{Kind: journal.EvJobWeight, Job: int64(id), Weight: weight})
	}
}

// Free implements core.Executor. Buckets owned by the master (its own
// store, or the shared directory) are removed directly; buckets served
// by slaves are queued as piggybacked delete commands, each on the node
// that serves it.
func (m *Master) Free(mat *core.Materialized) {
	m.mu.Lock()
	defer m.mu.Unlock()
	told := map[string]bool{} // live slaves queued a delete of the dataset
	last := ""                // the dataset's last slave-served bucket
	queue := func(id, name string) {
		m.pendingDeletes[id] = append(m.pendingDeletes[id], name)
		told[id] = true
	}
	for _, split := range mat.Splits {
		for _, d := range split {
			if d.Name == "" {
				continue
			}
			switch {
			case strings.HasPrefix(d.URL, "file://"):
				// A shared-dir bucket, usually a slave's: the URL names
				// its exact file, which the master's store never indexed.
				_ = m.store.RemoveFile(strings.TrimPrefix(d.URL, "file://"))
			case strings.HasPrefix(d.URL, "http://"+m.addr+"/"):
				_ = m.store.Remove(d.Name)
			default:
				// A slave's bucket URL names the data address it
				// advertised at signin, so the delete goes to that node.
				// When no live node claims the URL, every live slave is
				// asked; removal is idempotent, so non-owners no-op.
				last = d.Name
				host, _, _ := strings.Cut(strings.TrimPrefix(d.URL, "http://"), "/")
				owned := false
				for id, info := range m.slaves {
					if info.addr != "" && info.addr == host {
						queue(id, d.Name)
						owned = true
					}
				}
				if !owned {
					for id := range m.slaves {
						queue(id, d.Name)
					}
				}
			}
		}
	}
	// A slave drops its resident-cache splits of a dataset on the delete
	// of any one of its buckets, and it may have cached splits of one it
	// serves no bucket of: each live slave not yet told gets one name.
	if last != "" {
		for id := range m.slaves {
			if !told[id] {
				queue(id, last)
			}
		}
	}
}

// jobComplete reclaims a finished managed job's runtime state: the
// master's own copy of the job's buckets is removed immediately, every
// live slave gets the job id queued as a GC broadcast (piggybacked on
// its next get_task, like Free's per-bucket deletes), and the
// scheduler drops the job's queues/affinities/blacklist. Slaves that
// sign in later never held the job's data, so queueing only to the
// current fleet is complete.
func (m *Master) jobComplete(id core.JobID) {
	m.mu.Lock()
	if m.crashed {
		// A crashing master must not reclaim anything: the journaled
		// manifests name exactly these buckets, and recovery needs them.
		m.mu.Unlock()
		return
	}
	for sid := range m.slaves {
		m.pendingGC[sid] = append(m.pendingGC[sid], int64(id))
	}
	m.mu.Unlock()
	_, _ = m.store.RemoveJob(int64(id))
	m.sched.JobDone(id)
}

// Close implements core.Executor: it tells slaves to shut down (via
// get_task) and stops serving.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.closing)
	jl := m.journal
	m.journal = nil
	m.mu.Unlock()

	// The journal must be checkpointed, fsynced, and unlocked BEFORE the
	// scheduler closes: closing the scheduler fails the running jobs and
	// releases the admission queue, and anything that happens after that
	// must not race a half-flushed journal (interrupted jobs stay
	// "running" in the journal — that is what makes them resumable).
	if jl != nil {
		_ = jl.Close()
	}

	m.sched.Close()
	close(m.reaperStop)
	<-m.reaperDone
	if m.specDone != nil {
		<-m.specDone
	}

	// Closing the scheduler wakes every long-polled get_task, whose
	// handlers then answer shutdown; every idle slot waits in such a
	// poll, so an idle fleet hears at once. Nodes still mid-task (or
	// killed) get a short grace period to poll before the HTTP server
	// stops accepting connections.
	m.awaitShutdownAcks(shutdownGrace)
	// Drop our own pooled fetch connections (Collect reads from slave
	// data servers) so their shutdowns quiesce too.
	m.store.CloseIdle()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	m.closeFreshConns()
	err := m.httpSrv.Shutdown(ctx)
	if err != nil {
		m.httpSrv.Close()
	}
	_ = m.store.Close() // a private directory goes; its buckets die with the master
	return nil
}

// trackConn is the server's ConnState hook: it keeps the set of
// connections that have not carried a request yet.
func (m *Master) trackConn(c net.Conn, state http.ConnState) {
	m.connMu.Lock()
	if state == http.StateNew {
		m.fresh[c] = struct{}{}
	} else {
		delete(m.fresh, c)
	}
	m.connMu.Unlock()
}

// closeFreshConns closes every connection that has carried no request:
// a client that dialled and never sent (a lost dial race on its
// transport, a pre-connect) would otherwise hold Shutdown for its whole
// bound.
func (m *Master) closeFreshConns() {
	m.connMu.Lock()
	for c := range m.fresh {
		c.Close()
		delete(m.fresh, c)
	}
	m.connMu.Unlock()
}

// shutdownGrace bounds how long Close waits for signed-in nodes to be
// answered shutdown.
const shutdownGrace = 100 * time.Millisecond

// awaitShutdownAcks returns once every signed-in node has been answered
// shutdown at least once, or after grace.
func (m *Master) awaitShutdownAcks(grace time.Duration) {
	deadline := time.NewTimer(grace)
	defer deadline.Stop()
	for !m.fleetShutDown() {
		select {
		case <-m.shutdownAck:
		case <-deadline.C:
			return
		}
	}
}

func (m *Master) fleetShutDown() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, info := range m.slaves {
		if !info.shutDown {
			return false
		}
	}
	return true
}

// Crash stops the master the way SIGKILL would, for crash-recovery
// tests: the journal is abandoned without a final checkpoint or fsync,
// the HTTP server is torn down abruptly, and — unlike Close — no
// shutdown signal ever reaches the fleet (slaves see RPC errors, back
// off, and retry until a restarted master answers) and no bucket data
// is reclaimed: a given directory (Dir, SharedDir) is left on disk for
// the restart. A private one, which no restart could find, goes with
// the store.
func (m *Master) Crash() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.crashed = true
	close(m.closing)
	jl := m.journal
	m.journal = nil
	m.mu.Unlock()

	if jl != nil {
		jl.Abandon()
	}
	// Abrupt: in-flight RPCs die mid-connection, exactly as on a kill.
	m.httpSrv.Close()
	m.sched.Close()
	close(m.reaperStop)
	<-m.reaperDone
	if m.specDone != nil {
		<-m.specDone
	}
	m.store.CloseIdle()
	m.store.Close()
	return nil
}
