// Package slave implements the worker process: it signs in with the
// master, heartbeats, pulls tasks, executes them with the shared task
// engine from internal/core, and serves its output buckets to peers
// over a built-in HTTP server (§IV-B's "direct communication" path) or
// stages them on a shared filesystem (the fault-tolerant path).
//
// A slave optionally carries a resident dataset cache
// (Options.ResidentBudget, core.ResidentCache): input splits of
// Resident-marked operations are kept pinned in memory after their
// first fetch, so each iteration of an iterative job reads its
// invariant inputs locally instead of re-shuffling them. The cache is
// slave-wide (shared by every job's task env), bounded by an LRU byte
// budget, and drained per job by the master's GC broadcast. See
// docs/ITERATIVE.md.
//
// Each task attempt is measured by the task engine (wall time, time
// blocked reading input, byte/record counts) and the breakdown rides
// back to the master in the task's report on the slot's next get_task,
// where it lands in the trace span for the attempt and in Job.Stats;
// an Options.Obs runtime additionally collects the slave's local
// task-engine metrics (tasks executed, shuffle bytes by data path) for
// the -mrs-debug-addr surface. See docs/OBSERVABILITY.md.
package slave

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

// Options configures a slave.
type Options struct {
	// MasterAddr is the master's host:port.
	MasterAddr string
	// Dir is the local bucket directory (default: fresh temp dir).
	Dir string
	// SharedDir enables filesystem staging: buckets live here and are
	// advertised as file:// URLs; no data server is started.
	SharedDir string
	// Addr is the data server listen address (default "127.0.0.1:0").
	Addr string
	// Logger receives slave diagnostics (default: discard).
	Logger *log.Logger
	// MaxConsecutiveRPCErrors before the slave gives up on the master.
	MaxConsecutiveRPCErrors int
	// RPCIntercept wraps every outgoing master RPC (fault injection,
	// tracing). Nil means direct calls.
	RPCIntercept xmlrpc.Intercept
	// DataClient overrides the HTTP client used for slave-to-slave
	// bucket fetches (fault injection). Nil selects the shared default.
	DataClient *http.Client
	// BackoffSeed seeds the retry-jitter stream so a slave's backoff
	// schedule is reproducible (0 selects a fixed default).
	BackoffSeed uint64
	// Obs receives the slave's task-engine metrics (nil disables).
	Obs *obs.Runtime
	// Prefetch is the input-fetch window for this slave's tasks
	// (0 = default, 1 = sequential).
	Prefetch int
	// Concurrency is how many tasks the slave runs at once (default 1,
	// the classic sequential worker). With a multi-job master, slots
	// above 1 let one slave serve several jobs' tasks concurrently.
	Concurrency int
	// ResidentBudget is the byte budget of the slave's resident dataset
	// cache: Resident-marked input splits are kept in memory (LRU under
	// this budget) and served warm when later iterations consume the
	// same split. <= 0 disables the cache.
	ResidentBudget int64
}

// Slave is one worker.
type Slave struct {
	opts    Options
	reg     *core.Registry
	client  *xmlrpc.Client
	store   *bucket.Store
	env     *core.TaskEnv
	ln      net.Listener
	httpSrv *http.Server
	ownsDir string
	logger  *log.Logger
	retry   *fault.Backoff

	idMu     sync.Mutex
	id       string     // master-assigned; rewritten on re-signin
	signinMu sync.Mutex // serializes re-signin across task slots

	// Per-job execution state: jobs other than 0 get their own TaskEnv
	// clone with a private temp dir, created lazily and reclaimed when
	// the master broadcasts the job's completion.
	envMu   sync.Mutex
	envs    map[core.JobID]*core.TaskEnv
	jobDirs map[core.JobID]string

	// resident is the slave-wide resident dataset cache. It lives on
	// the slave, not on a per-job env: envFor's struct copy shares the
	// pointer, so every job's tasks see one cache (keys are job-scoped)
	// and the job GC broadcast can reclaim a job's entries in one call.
	resident *core.ResidentCache

	tasksRun  atomic.Int64
	resignins atomic.Int64
	jobGCs    atomic.Int64
}

// New prepares a slave (listening for data but not yet signed in).
func New(reg *core.Registry, opts Options) (*Slave, error) {
	if opts.MasterAddr == "" {
		return nil, fmt.Errorf("slave: MasterAddr required")
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.MaxConsecutiveRPCErrors <= 0 {
		opts.MaxConsecutiveRPCErrors = 10
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.New(os.Stderr, "", 0)
		logger.SetOutput(discard{})
	}
	seed := opts.BackoffSeed
	if seed == 0 {
		seed = 1
	}
	s := &Slave{
		opts:    opts,
		reg:     reg,
		client:  xmlrpc.NewClient("http://" + opts.MasterAddr + xmlrpc.RPCPath),
		logger:  logger,
		retry:   fault.NewBackoff(seed),
		envs:    map[core.JobID]*core.TaskEnv{},
		jobDirs: map[core.JobID]string{},
	}
	s.client.Intercept = opts.RPCIntercept

	dir := opts.Dir
	if opts.SharedDir != "" {
		dir = opts.SharedDir
	} else if dir == "" {
		d, err := os.MkdirTemp("", "mrs-slave-*")
		if err != nil {
			return nil, err
		}
		dir = d
		s.ownsDir = d
	}

	baseURL := ""
	if opts.SharedDir == "" {
		ln, err := net.Listen("tcp", opts.Addr)
		if err != nil {
			return nil, fmt.Errorf("slave: listen %s: %w", opts.Addr, err)
		}
		s.ln = ln
		baseURL = "http://" + ln.Addr().String() + "/data"
	}
	store, err := bucket.NewFileStore(dir, baseURL)
	if err != nil {
		if s.ln != nil {
			s.ln.Close()
		}
		return nil, err
	}
	s.store = store
	if opts.DataClient != nil {
		store.SetHTTPClient(opts.DataClient)
	}
	store.SetMetrics(opts.Obs.M())
	// The runtime may be shared by several slaves (the in-process
	// cluster), so slaves contribute counters, which sum, rather than
	// per-slave gauges, which would collide.
	s.resident = core.NewResidentCache(opts.ResidentBudget)
	s.resident.SetMetrics(opts.Obs.M())
	if s.resident != nil {
		obs.RegisterResidentGauge(opts.Obs.M())
	}
	s.env = &core.TaskEnv{Store: store, Reg: reg, TempDir: dir, Obs: opts.Obs, Prefetch: opts.Prefetch, Resident: s.resident}
	if opts.Obs != nil {
		s.env.Clock = opts.Obs.Clk()
	}

	if s.ln != nil {
		mux := http.NewServeMux()
		mux.HandleFunc("/data/", s.serveData)
		s.httpSrv = &http.Server{Handler: mux}
		go s.httpSrv.Serve(s.ln)
	}
	return s, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// DataAddr returns the data server address ("" in shared-dir mode).
func (s *Slave) DataAddr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ID returns the master-assigned slave id (empty before signin).
func (s *Slave) ID() string {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	return s.id
}

func (s *Slave) setID(id string) {
	s.idMu.Lock()
	s.id = id
	s.idMu.Unlock()
}

// TasksRun returns how many tasks this slave has executed.
func (s *Slave) TasksRun() int64 { return s.tasksRun.Load() }

// JobGCs returns how many job-complete reclamations this slave has
// performed.
func (s *Slave) JobGCs() int64 { return s.jobGCs.Load() }

// Store returns this slave's bucket store.
func (s *Slave) Store() *bucket.Store { return s.store }

// ResidentBytes returns the bytes currently pinned in this slave's
// resident cache (0 when the cache is disabled).
func (s *Slave) ResidentBytes() int64 { return s.resident.Bytes() }

// ResidentSplits returns how many input splits this slave's resident
// cache holds.
func (s *Slave) ResidentSplits() int { return s.resident.Len() }

// Resignins returns how many times the slave re-signed in after the
// master declared it dead (e.g. it hung past the heartbeat timeout).
func (s *Slave) Resignins() int64 { return s.resignins.Load() }

func (s *Slave) serveData(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/data/")
	path, err := s.store.ServeName(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bucket.ServeBucket(w, r, path)
}

// Run signs in and processes tasks until the master shuts down, the
// context is cancelled, or the master becomes unreachable.
//
// Each task slot is one poll → run → poll loop: the get_task that asks
// for a slot's next task carries the outcome of its last one (the
// optional reports argument), so a task costs one control round trip.
func (s *Slave) Run(ctx context.Context) error {
	defer s.cleanup()

	reply, err := s.signin(ctx)
	if err != nil {
		return err
	}
	s.setID(reply.SlaveID)

	// run ends when ctx does (a kill: heartbeats stop at once, even
	// while a slot is still inside a task) or when any slot stops the
	// whole slave (shutdown answered, or the master lost).
	run, stop := context.WithCancel(ctx)
	defer stop()
	go s.heartbeat(run, time.Duration(reply.HeartbeatMillis)*time.Millisecond)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	wg.Add(s.opts.Concurrency)
	for i := 0; i < s.opts.Concurrency; i++ {
		go func() {
			defer wg.Done()
			if err := s.slot(run); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
			stop()
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return firstErr
}

// slot is one task slot's loop. It returns nil when the master answers
// shutdown or the run ends, and an error when the slave must give up.
func (s *Slave) slot(ctx context.Context) error {
	// report is the outcome of the slot's last task, sent with every
	// poll until one is answered: the master applies reports before
	// anything else and ignores duplicates, so redelivery is safe.
	var report []any
	var reportID string // the node id the reported task was assigned to
	consecutiveErrs := 0
	for ctx.Err() == nil {
		id := s.ID()
		args := []any{id}
		if report != nil {
			// Report under the id the task was assigned to: a sibling
			// slot may have re-signed in since, and the scheduler
			// accepts an outcome only from the task's assignee.
			id = reportID
			args = []any{id, report}
		}
		raw, err := s.client.Call(rpcproto.MethodGetTask, args...)
		if err != nil {
			if rpcproto.IsUnknownSlave(err) {
				// The master reaped us (we hung or our heartbeats were
				// lost past the timeout), or it restarted from its
				// journal and has never met us. It applied the report
				// before faulting, and our old tasks were requeued or
				// replayed; rejoin under a fresh identity rather than
				// dying.
				report = nil
				if ctx.Err() != nil {
					return nil
				}
				if err := s.resignin(ctx, id); err != nil {
					return err
				}
				consecutiveErrs = 0
				continue
			}
			consecutiveErrs++
			s.logger.Printf("slave %s: get_task: %v", id, err)
			if consecutiveErrs >= s.opts.MaxConsecutiveRPCErrors {
				return fmt.Errorf("slave: master unreachable: %w", err)
			}
			if !sleepCtx(ctx, s.retry.Delay(consecutiveErrs)) {
				return nil
			}
			continue
		}
		consecutiveErrs = 0
		report = nil
		a, err := rpcproto.DecodeAssignment(raw)
		if err != nil {
			return fmt.Errorf("slave: bad assignment: %w", err)
		}
		s.deleteBuckets(a.Deletes)
		for _, job := range a.GCJobs {
			s.gcJob(core.JobID(job))
		}
		switch a.Status {
		case rpcproto.StatusShutdown:
			return nil
		case rpcproto.StatusTask:
			report = rpcproto.EncodeReports([]rpcproto.Report{s.runTask(a)})
			reportID = id
		}
	}
	return nil
}

// resignin re-establishes the slave's identity after an unknown-slave
// fault. oldID guards against slots racing to re-sign-in: the first
// signs in, the others find the id already replaced.
func (s *Slave) resignin(ctx context.Context, oldID string) error {
	s.signinMu.Lock()
	defer s.signinMu.Unlock()
	if s.ID() != oldID {
		return nil
	}
	s.logger.Printf("slave %s: declared dead by master; re-signing in", oldID)
	reply, err := s.signin(ctx)
	if err != nil {
		return fmt.Errorf("slave: re-signin after being declared dead: %w", err)
	}
	s.setID(reply.SlaveID)
	s.resignins.Add(1)
	s.opts.Obs.M().Add("mrs_slave_resignins_total", 1)
	return nil
}

// runTask executes one assignment, fused members included, and returns
// its outcome as a report.
func (s *Slave) runTask(a rpcproto.Assignment) rpcproto.Report {
	r := rpcproto.Report{Job: int64(a.Spec.Job), TaskID: a.TaskID}
	env, err := s.envFor(a.Spec.Job)
	if err != nil {
		s.logger.Printf("slave %s: job %d env: %v", s.ID(), r.Job, err)
		r.Err = err.Error()
		return r
	}
	result, err := core.ExecTask(env, a.Spec)
	s.tasksRun.Add(1)
	if err != nil {
		s.logger.Printf("slave %s: task %d (attempt %d) failed: %v", s.ID(), a.TaskID, a.Attempt, err)
		r.Err = err.Error()
		return r
	}
	return rpcproto.DoneReport(r.Job, r.TaskID, result)
}

// envFor returns the task environment for a job. Job 0 (the unmanaged
// single-job path) runs in the slave's base environment, preserving
// classic layout; other jobs get a lazily created clone whose TempDir
// is a private per-job directory, so concurrent jobs never interleave
// scratch files and a job's scratch can be reclaimed wholesale.
func (s *Slave) envFor(job core.JobID) (*core.TaskEnv, error) {
	if job == 0 {
		return s.env, nil
	}
	s.envMu.Lock()
	defer s.envMu.Unlock()
	if env, ok := s.envs[job]; ok {
		return env, nil
	}
	dir, err := os.MkdirTemp(s.env.TempDir, fmt.Sprintf("job%d-*", job))
	if err != nil {
		return nil, fmt.Errorf("slave: job %d temp dir: %w", job, err)
	}
	env := *s.env
	env.TempDir = dir
	s.envs[job] = &env
	s.jobDirs[job] = dir
	return &env, nil
}

// deleteBuckets removes buckets of freed datasets from the store, and
// the resident-cache splits of those datasets with them: no task reads
// a freed dataset again.
func (s *Slave) deleteBuckets(names []string) {
	for _, name := range names {
		_ = s.store.Remove(name)
		if job, ds, ok := core.ParseBucketNameJob(name); ok {
			s.resident.DropDataset(job, ds)
		}
	}
}

// gcJob reclaims everything a completed job left on this slave: its
// buckets in the store, its pinned resident-cache splits, and its
// private scratch directory. The master
// broadcasts the job id on the next get_task of every slave once the
// job's driver has drained.
func (s *Slave) gcJob(job core.JobID) {
	n, err := s.store.RemoveJob(int64(job))
	if err != nil {
		s.logger.Printf("slave %s: gc job %d: %v", s.ID(), job, err)
	}
	if freed := s.resident.DropJob(job); freed > 0 {
		s.opts.Obs.M().Add(obs.MetricResidentGCBytes, freed)
	}
	s.envMu.Lock()
	dir, ok := s.jobDirs[job]
	delete(s.jobDirs, job)
	delete(s.envs, job)
	s.envMu.Unlock()
	if ok {
		os.RemoveAll(dir)
	}
	s.jobGCs.Add(1)
	s.opts.Obs.M().Add("mrs_slave_job_gcs_total", 1)
	if n > 0 {
		s.logger.Printf("slave %s: gc job %d: removed %d buckets", s.ID(), job, n)
	}
}

func (s *Slave) signin(ctx context.Context) (rpcproto.SigninReply, error) {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		select {
		case <-ctx.Done():
			return rpcproto.SigninReply{}, ctx.Err()
		default:
		}
		// Advertise the data address and slot count (diagnostics and
		// drain by address).
		node := rpcproto.SigninArgs{
			Addr:  s.DataAddr(),
			Slots: int64(s.opts.Concurrency),
		}
		raw, err := s.client.Call(rpcproto.MethodSignin, node.Encode())
		if err == nil {
			return rpcproto.DecodeSigninReply(raw)
		}
		lastErr = err
		if !sleepCtx(ctx, s.retry.Delay(attempt+1)) {
			return rpcproto.SigninReply{}, ctx.Err()
		}
	}
	return rpcproto.SigninReply{}, fmt.Errorf("slave: signin failed: %w", lastErr)
}

func (s *Slave) heartbeat(ctx context.Context, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			id := s.ID()
			if _, err := s.client.Call(rpcproto.MethodPing, id); err != nil {
				s.logger.Printf("slave %s: ping: %v", id, err)
			}
		}
	}
}

func (s *Slave) cleanup() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	// Release pooled data-plane and control-plane connections so peers
	// and the master can shut their servers down gracefully.
	s.store.CloseIdle()
	s.store.Close() // RAM buckets die with the slave, like its process would
	s.client.CloseIdle()
	s.envMu.Lock()
	dirs := s.jobDirs
	s.jobDirs = map[core.JobID]string{}
	s.envs = map[core.JobID]*core.TaskEnv{}
	s.envMu.Unlock()
	for _, d := range dirs {
		os.RemoveAll(d)
	}
	if s.ownsDir != "" {
		os.RemoveAll(s.ownsDir)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
