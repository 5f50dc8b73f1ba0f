// Package submaster implements the middle tier of the hierarchical
// control plane: a node that signs in to the master as one aggregated
// worker group while serving the full master↔node protocol to a shard
// of the fleet. Unmodified slaves attach to a sub-master exactly as
// they would to the master — signin, get_task (carrying their task
// reports), ping, or the task_done/task_failed reports of older
// clients — and never learn the tree exists.
//
// Downward, a sub-master owns its shard: child signins, heartbeats and
// reaping, a local sched.Scheduler instance that dispatches the work
// the sub-master holds a lease on, a local retry budget that absorbs
// transient child failures without a master round trip, and fan-out of
// the master's piggybacked delete/GC broadcasts. Upward, it behaves
// like one wide slave: it polls get_task only while its children have
// idle slots (demand-driven fetch, capped at FetchWindow concurrent
// polls), batches its children's task outcomes into report_batch RPCs,
// and heartbeats under a single identity. If the master restarts and
// answers with the unknown-slave fault, the sub-master re-signs in
// under a fresh id without disturbing its children — they only ever
// knew the sub-master's address, so crash-resume composes with the
// tree.
//
// The sub-master carries no data plane. Task payloads flow directly
// between slaves' bucket servers (or the shared filesystem) exactly as
// in the flat topology; only control traffic is aggregated here.
// See docs/DESIGN.md ("Hierarchical control plane").
package submaster

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/xmlrpc"
)

// Options configures a sub-master.
type Options struct {
	// MasterAddr is the parent master's host:port.
	MasterAddr string
	// Addr is the child-facing control listen address
	// (default "127.0.0.1:0").
	Addr string
	// PortFile, when set, receives the child-facing host:port once
	// listening (how out-of-process slaves find their sub-master).
	PortFile string
	// Logger receives diagnostics (default: discard).
	Logger *log.Logger
	// MaxConsecutiveRPCErrors before the sub-master gives up on the
	// master (default 10).
	MaxConsecutiveRPCErrors int
	// RPCIntercept wraps every upward master RPC (fault injection).
	RPCIntercept xmlrpc.Intercept
	// BackoffSeed seeds the retry-jitter stream (0 selects a default).
	BackoffSeed uint64
	// Obs receives the sub-master's control-plane metrics (nil
	// disables).
	Obs *obs.Runtime
	// FetchWindow caps concurrent upward get_task polls (default 4).
	// In-flight tasks are bounded by the children's aggregate slots,
	// not by the window: a fetcher hands its slot to the task it
	// fetched and immediately polls for the next one.
	FetchWindow int
	// FetchBatch caps how many assignments one upward poll may carry
	// (default 16). A fetcher grabs every free child slot up to this
	// cap before polling, so refilling an idle shard costs one
	// get_tasks round trip instead of one RPC per task.
	FetchBatch int
	// FlushInterval is how long a buffered child report may wait
	// before a report_batch carries it upward (default 5ms).
	FlushInterval time.Duration
	// MaxBatch is the report count that forces an immediate flush
	// (default 64).
	MaxBatch int
	// LocalAttempts is the local retry budget per task: how many times
	// a task may fail inside this shard before the failure escalates
	// to the master (default 2).
	LocalAttempts int
	// LongPoll bounds a child's get_task wait (default 1s).
	LongPoll time.Duration
	// HeartbeatInterval paces child heartbeats (default 500ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout reaps silent children (default 5s).
	HeartbeatTimeout time.Duration
	// SpeculationFactor enables shard-local straggler re-execution
	// with this slowness factor (0 disables). The master speculates
	// across nodes; this catches stragglers hidden inside the shard,
	// which the master cannot see through the aggregated identity.
	SpeculationFactor float64
	// DrainLinger bounds how long Run keeps answering children after
	// shutdown begins, so they observe a clean shutdown status instead
	// of a dead socket (default 3s).
	DrainLinger time.Duration
}

type childInfo struct {
	id       string
	addr     string
	slots    int64
	lastSeen time.Time
	draining bool
	tasks    atomic.Int64
}

// SubMaster is one middle-tier node.
type SubMaster struct {
	opts    Options
	client  *xmlrpc.Client
	sched   *sched.Scheduler
	ln      net.Listener
	httpSrv *http.Server
	addr    string
	logger  *log.Logger
	retry   *fault.Backoff

	idMu     sync.Mutex
	id       string // master-assigned; rewritten on upward re-signin
	hbMillis int64  // parent-chosen heartbeat interval

	mu             sync.Mutex
	slotCond       *sync.Cond // waits for used < capacity
	children       map[string]*childInfo
	nextChild      int
	pendingDeletes map[string][]string
	pendingGC      map[string][]int64
	capacity       int // aggregate child slots
	used           int // slots held by fetched or in-flight tasks
	closing        bool

	// local maps a local sched task id to its parent-lease bookkeeping;
	// an entry present after sched.Fail means the failure was absorbed
	// by the local retry budget rather than escalated.
	localMu sync.Mutex
	local   map[sched.TaskID]*localTask

	reportMu sync.Mutex
	reports  []rpcproto.Report
	kick     chan struct{}

	stop     chan struct{} // closed by beginShutdown
	stopOnce sync.Once
	stopHB   chan struct{}
	runErr   error
	wg       sync.WaitGroup // fetchers

	tasksFetched atomic.Int64
	resignins    atomic.Int64
}

type localTask struct {
	job      int64
	parentID int64
}

// New prepares a sub-master: listening for children but not yet signed
// in upward (Run does that).
func New(opts Options) (*SubMaster, error) {
	if opts.MasterAddr == "" {
		return nil, fmt.Errorf("submaster: MasterAddr required")
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.MaxConsecutiveRPCErrors <= 0 {
		opts.MaxConsecutiveRPCErrors = 10
	}
	if opts.FetchWindow <= 0 {
		opts.FetchWindow = 4
	}
	if opts.FetchBatch <= 0 {
		opts.FetchBatch = 16
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 5 * time.Millisecond
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	if opts.LocalAttempts <= 0 {
		opts.LocalAttempts = 2
	}
	if opts.LongPoll <= 0 {
		opts.LongPoll = time.Second
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 500 * time.Millisecond
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * time.Second
	}
	if opts.DrainLinger <= 0 {
		opts.DrainLinger = 3 * time.Second
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	seed := opts.BackoffSeed
	if seed == 0 {
		seed = 1
	}
	s := &SubMaster{
		opts:           opts,
		client:         xmlrpc.NewClient("http://" + opts.MasterAddr + xmlrpc.RPCPath),
		logger:         logger,
		retry:          fault.NewBackoff(seed),
		children:       map[string]*childInfo{},
		pendingDeletes: map[string][]string{},
		pendingGC:      map[string][]int64{},
		local:          map[sched.TaskID]*localTask{},
		kick:           make(chan struct{}, 1),
		stop:           make(chan struct{}),
		stopHB:         make(chan struct{}),
		hbMillis:       opts.HeartbeatInterval.Milliseconds(),
	}
	s.client.Intercept = opts.RPCIntercept
	s.slotCond = sync.NewCond(&s.mu)

	// The local scheduler dispatches the leases this node holds. Its
	// observer is the shared runtime: with worker-keyed trace spans the
	// child-level attempt lane coexists with the master's node-level
	// lane for the same trace id, which is exactly the two-level view
	// docs/OBSERVABILITY.md describes.
	s.sched = sched.New(opts.LocalAttempts)
	if opts.Obs != nil {
		s.sched.SetObserver(opts.Obs)
	}
	if opts.SpeculationFactor > 0 {
		s.sched.SetSpeculation(sched.SpeculationConfig{SlownessFactor: opts.SpeculationFactor})
	}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("submaster: listen %s: %w", opts.Addr, err)
	}
	s.ln = ln
	s.addr = ln.Addr().String()

	rpc := xmlrpc.NewServer()
	for method, h := range map[string]xmlrpc.Handler{
		rpcproto.MethodSignin:     s.handleSignin,
		rpcproto.MethodGetTask:    s.handleGetTask,
		rpcproto.MethodTaskDone:   s.handleTaskDone,
		rpcproto.MethodTaskFailed: s.handleTaskFailed,
		rpcproto.MethodPing:       s.handlePing,
		rpcproto.MethodDrain:      s.handleDrain,
		rpcproto.MethodListNodes:  s.handleListNodes,
	} {
		rpc.Register(method, obs.CountCalls(opts.Obs.M(), method, h))
	}
	mux := http.NewServeMux()
	mux.Handle(xmlrpc.RPCPath, rpc)
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)

	if opts.PortFile != "" {
		if err := os.WriteFile(opts.PortFile, []byte(s.addr+"\n"), 0o644); err != nil {
			s.httpSrv.Close()
			return nil, fmt.Errorf("submaster: writing port file: %w", err)
		}
	}
	return s, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Addr returns the child-facing control address.
func (s *SubMaster) Addr() string { return s.addr }

// ID returns the master-assigned node id (empty before signin).
func (s *SubMaster) ID() string {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	return s.id
}

func (s *SubMaster) setID(id string) {
	s.idMu.Lock()
	s.id = id
	s.idMu.Unlock()
}

// TasksFetched returns how many assignments this node pulled from the
// master.
func (s *SubMaster) TasksFetched() int64 { return s.tasksFetched.Load() }

// Resignins returns how many times this node re-signed in upward after
// the master stopped recognizing it.
func (s *SubMaster) Resignins() int64 { return s.resignins.Load() }

// ChildCount returns how many children are currently signed in.
func (s *SubMaster) ChildCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.children)
}

// WaitForChildren blocks until n children have signed in.
func (s *SubMaster) WaitForChildren(ctx context.Context, n int) error {
	for {
		if s.ChildCount() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.stop:
			return fmt.Errorf("submaster: shut down while waiting for children")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Run signs in upward and relays work until the master shuts down, the
// context is cancelled, or the master becomes unreachable.
func (s *SubMaster) Run(ctx context.Context) error {
	defer s.cleanup()

	reply, err := s.signinUpward(ctx)
	if err != nil {
		return err
	}
	s.setID(reply.SlaveID)
	s.idMu.Lock()
	s.hbMillis = reply.HeartbeatMillis
	s.idMu.Unlock()

	go s.heartbeat(time.Duration(reply.HeartbeatMillis) * time.Millisecond)
	defer close(s.stopHB)
	reaperStop := make(chan struct{})
	go s.childReaper(reaperStop)
	defer close(reaperStop)
	flusherDone := make(chan struct{})
	go s.flusher(flusherDone)

	s.wg.Add(s.opts.FetchWindow)
	for i := 0; i < s.opts.FetchWindow; i++ {
		go s.fetcher(ctx)
	}

	select {
	case <-ctx.Done():
		s.beginShutdown(ctx.Err())
	case <-s.stop:
	}
	s.wg.Wait()
	close(flusherDone)
	s.flush() // deliver reports buffered after the flusher exited
	if ctx.Err() == nil {
		// Graceful shutdown only: a cancelled context is a kill, and
		// waiting for orphans to poll would just stall the killer.
		s.lingerForChildren()
	}

	s.mu.Lock()
	err = s.runErr
	s.mu.Unlock()
	return err
}

// Close triggers shutdown from outside Run (tests, process teardown).
func (s *SubMaster) Close() {
	s.beginShutdown(nil)
}

// beginShutdown transitions the node to draining: the local scheduler
// closes (waking child polls into a shutdown answer) and fetchers stop.
func (s *SubMaster) beginShutdown(err error) {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		if err != nil {
			s.runErr = err
		}
		s.slotCond.Broadcast()
		s.mu.Unlock()
		// Outside s.mu: Close fires task callbacks, which take s.mu to
		// release their slots.
		s.sched.Close()
		close(s.stop)
	})
}

// lingerForChildren keeps the child-facing server answering until every
// child has polled its shutdown status (or DrainLinger elapses), so
// children exit through the protocol rather than a connection error.
func (s *SubMaster) lingerForChildren() {
	deadline := time.Now().Add(s.opts.DrainLinger)
	for time.Now().Before(deadline) {
		if s.ChildCount() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *SubMaster) cleanup() {
	s.httpSrv.Close()
	s.client.CloseIdle()
}

// ---------------------------------------------------------------------------
// Upward side: signin, heartbeat, demand-driven fetch, report batching

func (s *SubMaster) signinUpward(ctx context.Context) (rpcproto.SigninReply, error) {
	args := rpcproto.SigninArgs{
		Kind:  rpcproto.NodeKindSubmaster,
		Addr:  s.addr,
		Slots: int64(s.slotCapacity()),
	}
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		select {
		case <-ctx.Done():
			return rpcproto.SigninReply{}, ctx.Err()
		default:
		}
		raw, err := s.client.Call(rpcproto.MethodSignin, args.Encode())
		if err == nil {
			return rpcproto.DecodeSigninReply(raw)
		}
		lastErr = err
		if !sleepCtx(ctx, s.retry.Delay(attempt+1)) {
			return rpcproto.SigninReply{}, ctx.Err()
		}
	}
	return rpcproto.SigninReply{}, fmt.Errorf("submaster: signin failed: %w", lastErr)
}

// resignin re-establishes the upward identity after an unknown-slave
// fault. Children are untouched: they address this node, not the
// master, so a master restart is invisible below this line (the local
// scheduler keeps dispatching work already fetched). oldID guards
// against concurrent fetchers racing to re-sign-in.
func (s *SubMaster) resignin(ctx context.Context, oldID string) error {
	s.idMu.Lock()
	if s.id != oldID {
		s.idMu.Unlock()
		return nil // another goroutine already re-signed in
	}
	s.idMu.Unlock()
	s.logger.Printf("submaster %s: no longer known to master; re-signing in", oldID)
	reply, err := s.signinUpward(ctx)
	if err != nil {
		return fmt.Errorf("submaster: re-signin: %w", err)
	}
	s.idMu.Lock()
	if s.id == oldID {
		s.id = reply.SlaveID
		s.hbMillis = reply.HeartbeatMillis
		s.resignins.Add(1)
		s.opts.Obs.M().Add(obs.MetricSubmasterResignins, 1)
	}
	s.idMu.Unlock()
	return nil
}

func (s *SubMaster) heartbeat(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopHB:
			return
		case <-tick.C:
			id := s.ID()
			if _, err := s.client.Call(rpcproto.MethodPing, id); err != nil {
				s.logger.Printf("submaster %s: ping: %v", id, err)
			}
		}
	}
}

func (s *SubMaster) slotCapacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity
}

// acquireSlot blocks until a child slot is free (or shutdown). A slot
// is what makes the fetch demand-driven: with no idle child capacity
// the node stops polling the master entirely.
func (s *SubMaster) acquireSlot() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closing && s.used >= s.capacity {
		s.slotCond.Wait()
	}
	if s.closing {
		return false
	}
	s.used++
	return true
}

func (s *SubMaster) releaseSlot() {
	s.releaseSlots(1)
}

func (s *SubMaster) releaseSlots(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.used -= n
	s.slotCond.Broadcast()
	s.mu.Unlock()
}

// tryAcquireSlots grabs up to n additional free slots without
// blocking, returning how many it got. The fetcher calls it right
// before an upward poll so one get_tasks round trip can refill every
// idle child at once.
func (s *SubMaster) tryAcquireSlots(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return 0
	}
	got := 0
	for got < n && s.used < s.capacity {
		s.used++
		got++
	}
	return got
}

// fetcher is one upward polling loop. It owns at most one slot at a
// time: while holding it, it polls the master until it fetches a task
// (the slot transfers to the task and releases on completion) or the
// master signals shutdown.
func (s *SubMaster) fetcher(ctx context.Context) {
	defer s.wg.Done()
	consecutive := 0
	for {
		if !s.acquireSlot() {
			return
		}
		if !s.fetchWithSlot(ctx, &consecutive) {
			return
		}
	}
}

// fetchWithSlot polls until the held slot is handed to a task (true) or
// the fetcher should exit (false, slot released). Each poll also grabs
// every other free child slot (up to FetchBatch) and asks the master
// for that many assignments in one get_tasks round trip, so refilling
// an idle shard costs one RPC instead of one per task.
func (s *SubMaster) fetchWithSlot(ctx context.Context, consecutive *int) bool {
	for {
		select {
		case <-ctx.Done():
			s.releaseSlot()
			s.beginShutdown(ctx.Err())
			return false
		case <-s.stop:
			s.releaseSlot()
			return false
		default:
		}
		id := s.ID()
		extra := s.tryAcquireSlots(s.opts.FetchBatch - 1)
		raw, err := s.client.Call(rpcproto.MethodGetTasks, id, int64(1+extra))
		if err != nil {
			s.releaseSlots(extra)
			if rpcproto.IsUnknownSlave(err) {
				if rerr := s.resignin(ctx, id); rerr != nil {
					s.releaseSlot()
					s.beginShutdown(rerr)
					return false
				}
				*consecutive = 0
				continue
			}
			*consecutive++
			s.logger.Printf("submaster %s: get_tasks: %v", id, err)
			if *consecutive >= s.opts.MaxConsecutiveRPCErrors {
				s.releaseSlot()
				s.beginShutdown(fmt.Errorf("submaster: master unreachable: %w", err))
				return false
			}
			if !sleepCtx(ctx, s.retry.Delay(*consecutive)) {
				s.releaseSlot()
				s.beginShutdown(ctx.Err())
				return false
			}
			continue
		}
		*consecutive = 0
		as, err := rpcproto.DecodeAssignments(raw)
		if err == nil && len(as) == 0 {
			err = fmt.Errorf("empty reply")
		}
		if err != nil {
			s.releaseSlots(1 + extra)
			s.beginShutdown(fmt.Errorf("submaster: bad get_tasks reply: %w", err))
			return false
		}
		first := as[0]
		s.relay(first.Deletes, first.GCJobs)
		switch first.Status {
		case rpcproto.StatusShutdown:
			s.releaseSlots(1 + extra)
			s.beginShutdown(nil)
			return false
		case rpcproto.StatusIdle:
			// Master paced us via its long poll; keep the base slot for
			// the next poll, return the rest to the pool.
			s.releaseSlots(extra)
			continue
		case rpcproto.StatusTask:
			// Hand each fetched task one of the held slots; surplus
			// slots return to the pool.
			held := 1 + extra
			for _, a := range as {
				if !s.submitLocal(a) {
					s.releaseSlots(held)
					return false
				}
				held--
			}
			s.releaseSlots(held)
			return true
		default:
			s.releaseSlots(1 + extra)
			s.beginShutdown(fmt.Errorf("submaster: bad assignment status %q", first.Status))
			return false
		}
	}
}

// submitLocal enters a fetched assignment into the local scheduler.
// The completion callback releases the slot and enqueues the upward
// report under the parent's task id.
func (s *SubMaster) submitLocal(a rpcproto.Assignment) bool {
	lt := &localTask{job: int64(a.Spec.Job), parentID: a.TaskID}
	var localID sched.TaskID
	// localMu is held across Submit (which never fires the callback
	// synchronously) so the callback observes localID assigned.
	s.localMu.Lock()
	id, err := s.sched.Submit(a.Spec, func(res *core.TaskResult, err error) {
		defer s.releaseSlot()
		s.localMu.Lock()
		delete(s.local, localID)
		s.localMu.Unlock()
		if err != nil {
			if err == sched.ErrClosed {
				// Shutting down: the master's lease on this task will
				// requeue it elsewhere; reporting a failure would burn
				// one of its global attempts for a local non-failure.
				return
			}
			s.enqueueReport(rpcproto.Report{Job: lt.job, TaskID: lt.parentID, Err: err.Error()})
			return
		}
		s.enqueueReport(rpcproto.Report{
			Done:    true,
			Job:     lt.job,
			TaskID:  lt.parentID,
			Outputs: res.Outputs,
			Timing:  res.Timing,
		})
	})
	if err != nil {
		s.localMu.Unlock()
		return false // closed
	}
	localID = id
	s.local[id] = lt
	s.localMu.Unlock()
	s.tasksFetched.Add(1)
	s.opts.Obs.M().Add(obs.MetricSubmasterFetched, 1)
	return true
}

// relay fans the master's piggybacked broadcasts out to every child
// and applies job GC to local scheduling state.
func (s *SubMaster) relay(deletes []string, gcJobs []int64) {
	if len(deletes) == 0 && len(gcJobs) == 0 {
		return
	}
	s.mu.Lock()
	for id := range s.children {
		if len(deletes) > 0 {
			s.pendingDeletes[id] = append(s.pendingDeletes[id], deletes...)
		}
		if len(gcJobs) > 0 {
			s.pendingGC[id] = append(s.pendingGC[id], gcJobs...)
		}
	}
	s.mu.Unlock()
	for _, j := range gcJobs {
		s.sched.JobDone(core.JobID(j))
	}
}

// enqueueReport buffers one upward task outcome; a full buffer forces
// an immediate flush.
func (s *SubMaster) enqueueReport(r rpcproto.Report) {
	s.reportMu.Lock()
	s.reports = append(s.reports, r)
	full := len(s.reports) >= s.opts.MaxBatch
	s.reportMu.Unlock()
	s.opts.Obs.M().Add(obs.MetricSubmasterReports, 1)
	if full {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

func (s *SubMaster) flusher(done chan struct{}) {
	tick := time.NewTicker(s.opts.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-s.kick:
		case <-tick.C:
		}
		s.flush()
	}
}

// reportRetries bounds report_batch delivery attempts; like a slave's
// task reports, losing a batch is survivable (the master's task lease
// recovers the work) but expensive.
const reportRetries = 6

// flush delivers all buffered reports upward in MaxBatch-sized
// report_batch calls.
func (s *SubMaster) flush() {
	for {
		s.reportMu.Lock()
		n := len(s.reports)
		if n == 0 {
			s.reportMu.Unlock()
			return
		}
		if n > s.opts.MaxBatch {
			n = s.opts.MaxBatch
		}
		batch := make([]rpcproto.Report, n)
		copy(batch, s.reports)
		s.reports = append(s.reports[:0], s.reports[n:]...)
		s.reportMu.Unlock()
		s.deliver(batch)
	}
}

func (s *SubMaster) deliver(batch []rpcproto.Report) {
	s.opts.Obs.M().Add(obs.MetricSubmasterBatches, 1)
	var lastErr error
	for attempt := 1; attempt <= reportRetries; attempt++ {
		if attempt > 1 {
			time.Sleep(s.retry.Delay(attempt - 1))
		}
		id := s.ID()
		_, err := s.client.Call(rpcproto.MethodReportBatch, id, rpcproto.EncodeReports(batch))
		if err == nil {
			return
		}
		lastErr = err
		if rpcproto.IsUnknownSlave(err) {
			// The master processed the batch before faulting; only the
			// identity needs repair.
			if rerr := s.resignin(context.Background(), id); rerr != nil {
				s.logger.Printf("submaster: %v", rerr)
			}
			return
		}
		if _, isFault := err.(*xmlrpc.Fault); isFault {
			break // server-side rejection is final
		}
	}
	s.logger.Printf("submaster %s: report_batch (%d reports) undelivered: %v", s.ID(), len(batch), lastErr)
}

// ---------------------------------------------------------------------------
// Downward side: the master↔node protocol served to children

func (s *SubMaster) handleSignin(args []any) (any, error) {
	node := rpcproto.DecodeSigninArgs(args)
	slots := node.Slots
	if slots <= 0 {
		slots = 1 // pre-tree slaves advertise nothing; assume one slot
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, fmt.Errorf("submaster: closed")
	}
	s.nextChild++
	id := fmt.Sprintf("c%d", s.nextChild)
	if sm := s.ID(); sm != "" {
		// Child ids carry the upward identity so trace lanes and
		// list_nodes rows are unambiguous fleet-wide.
		id = sm + "." + id
	}
	s.children[id] = &childInfo{
		id:       id,
		addr:     node.Addr,
		slots:    slots,
		lastSeen: time.Now(),
	}
	s.capacity += int(slots)
	s.slotCond.Broadcast()
	s.mu.Unlock()
	s.opts.Obs.M().Add(obs.MetricSubmasterChildSignins, 1)
	s.idMu.Lock()
	hb := s.hbMillis
	s.idMu.Unlock()
	return rpcproto.SigninReply{SlaveID: id, HeartbeatMillis: hb}.Encode(), nil
}

// touchChild refreshes a child's liveness; false for unknown children.
func (s *SubMaster) touchChild(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.children[id]
	if !ok {
		return false
	}
	c.lastSeen = time.Now()
	return true
}

func unknownChildFault(id string) *xmlrpc.Fault {
	return &xmlrpc.Fault{
		Code:    rpcproto.FaultUnknownSlave,
		Message: fmt.Sprintf("submaster: unknown child %s (declared dead?)", id),
	}
}

func childIDArg(args []any) (string, error) {
	if len(args) < 1 {
		return "", fmt.Errorf("submaster: missing child id")
	}
	id, ok := args[0].(string)
	if !ok || id == "" {
		return "", fmt.Errorf("submaster: bad child id %v", args[0])
	}
	return id, nil
}

func (s *SubMaster) handlePing(args []any) (any, error) {
	id, err := childIDArg(args)
	if err != nil {
		return nil, err
	}
	if !s.touchChild(id) {
		return nil, unknownChildFault(id)
	}
	return true, nil
}

// handleGetTask answers a child's poll: get_task(child[, reports]).
// As on the master, the optional reports (the child's previous task
// outcomes) are applied before anything else, a report the local
// scheduler rejects does not fail the poll, and redelivery is harmless.
func (s *SubMaster) handleGetTask(args []any) (any, error) {
	id, err := childIDArg(args)
	if err != nil {
		return nil, err
	}
	if len(args) >= 2 {
		reports, err := rpcproto.DecodeReports(args[1])
		if err != nil {
			return nil, err
		}
		for _, r := range reports {
			if r.Done {
				_ = s.completeChild(id, r.TaskID, &core.TaskResult{Outputs: r.Outputs, Timing: r.Timing})
			} else {
				_ = s.failChild(id, r.TaskID, r.Err)
			}
		}
	}
	if !s.touchChild(id) {
		return nil, unknownChildFault(id)
	}
	s.mu.Lock()
	deletes := s.pendingDeletes[id]
	delete(s.pendingDeletes, id)
	gcJobs := s.pendingGC[id]
	delete(s.pendingGC, id)
	leaving := s.closing
	if c := s.children[id]; c != nil && c.draining {
		leaving = true
	}
	if leaving {
		// The child is done here — shutting down with us, or drained
		// out from under us. Forget it and send it away cleanly.
		s.forgetChildLocked(id)
	}
	s.mu.Unlock()
	if leaving {
		return encodeAssignment(rpcproto.Assignment{Status: rpcproto.StatusShutdown, Deletes: deletes, GCJobs: gcJobs})
	}
	task, attempt, err := s.sched.RequestAttempt(id, s.opts.LongPoll)
	if err == sched.ErrClosed {
		s.mu.Lock()
		s.forgetChildLocked(id)
		s.mu.Unlock()
		return encodeAssignment(rpcproto.Assignment{Status: rpcproto.StatusShutdown, Deletes: deletes, GCJobs: gcJobs})
	}
	if err != nil {
		return nil, err
	}
	s.touchChild(id) // the long poll may have taken a while
	if task == nil {
		return encodeAssignment(rpcproto.Assignment{Status: rpcproto.StatusIdle, Deletes: deletes, GCJobs: gcJobs})
	}
	return encodeAssignment(rpcproto.Assignment{
		Status:  rpcproto.StatusTask,
		TaskID:  int64(task.ID),
		Attempt: int64(attempt),
		Spec:    task.Spec,
		Deletes: deletes,
		GCJobs:  gcJobs,
	})
}

func encodeAssignment(a rpcproto.Assignment) (any, error) {
	return a.Encode()
}

func (s *SubMaster) handleTaskDone(args []any) (any, error) {
	if len(args) < 4 {
		return nil, fmt.Errorf("submaster: task_done wants (child, job, task, outputs[, timing])")
	}
	id, err := childIDArg(args)
	if err != nil {
		return nil, err
	}
	taskID, ok := args[2].(int64)
	if !ok {
		return nil, fmt.Errorf("submaster: bad task id %v", args[2])
	}
	outputs, err := rpcproto.DecodeDescriptors(args[3])
	if err != nil {
		return nil, err
	}
	result := &core.TaskResult{Outputs: outputs}
	if len(args) >= 5 {
		result.Timing = rpcproto.DecodeTiming(args[4])
	}
	known := s.touchChild(id)
	if err := s.completeChild(id, taskID, result); err != nil {
		return nil, err
	}
	if !known {
		return nil, unknownChildFault(id)
	}
	return true, nil
}

// completeChild applies a child's task completion. It accepts the
// result even from a forgotten child; the local scheduler sorts
// accepted completions from stale ones, exactly as the master does,
// and only accepted ones count toward the child's tasks.
func (s *SubMaster) completeChild(id string, taskID int64, result *core.TaskResult) error {
	spec, err := s.sched.CompleteTask(sched.TaskID(taskID), id, result)
	if err != nil || spec == nil {
		return err
	}
	s.mu.Lock()
	if c := s.children[id]; c != nil {
		c.tasks.Add(1)
	}
	s.mu.Unlock()
	return nil
}

func (s *SubMaster) handleTaskFailed(args []any) (any, error) {
	if len(args) < 4 {
		return nil, fmt.Errorf("submaster: task_failed wants (child, job, task, message)")
	}
	id, err := childIDArg(args)
	if err != nil {
		return nil, err
	}
	taskID, ok := args[2].(int64)
	if !ok {
		return nil, fmt.Errorf("submaster: bad task id %v", args[2])
	}
	msg, _ := args[3].(string)
	known := s.touchChild(id)
	if err := s.failChild(id, taskID, msg); err != nil {
		return nil, err
	}
	if !known {
		return nil, unknownChildFault(id)
	}
	return true, nil
}

// failChild applies a child's task failure. If the task survives it is
// queued for another local attempt: the retry was absorbed inside the
// shard, no master round trip. Exhausted tasks escalated via their
// callback instead and are no longer tracked.
func (s *SubMaster) failChild(id string, taskID int64, msg string) error {
	if err := s.sched.Fail(sched.TaskID(taskID), id, msg); err != nil {
		return err
	}
	s.localMu.Lock()
	_, retrying := s.local[sched.TaskID(taskID)]
	s.localMu.Unlock()
	if retrying {
		s.opts.Obs.M().Add(obs.MetricSubmasterLocalRetries, 1)
	}
	return nil
}

// handleDrain takes one child out of rotation, mirroring the master's
// drain-by-id-or-address semantics one level down.
func (s *SubMaster) handleDrain(args []any) (any, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("submaster: drain wants a node id or address")
	}
	target, _ := args[0].(string)
	return s.DrainChild(target), nil
}

// DrainChild marks a child draining: its leases requeue into the local
// scheduler immediately and its next get_task answers shutdown.
func (s *SubMaster) DrainChild(target string) bool {
	s.mu.Lock()
	var c *childInfo
	if ci, ok := s.children[target]; ok {
		c = ci
	} else {
		for _, ci := range s.children {
			if ci.addr != "" && ci.addr == target {
				c = ci
				break
			}
		}
	}
	if c == nil || c.draining {
		s.mu.Unlock()
		return false
	}
	c.draining = true
	s.capacity -= int(c.slots)
	s.slotCond.Broadcast()
	s.mu.Unlock()
	s.sched.Drain(c.id)
	return true
}

func (s *SubMaster) handleListNodes(args []any) (any, error) {
	return rpcproto.EncodeNodeInfos(s.Nodes()), nil
}

// Nodes returns a snapshot of the children, sorted by id.
func (s *SubMaster) Nodes() []rpcproto.NodeInfo {
	s.mu.Lock()
	out := make([]rpcproto.NodeInfo, 0, len(s.children))
	for _, c := range s.children {
		out = append(out, rpcproto.NodeInfo{
			ID:        c.id,
			Kind:      rpcproto.NodeKindSlave,
			Addr:      c.addr,
			Slots:     c.slots,
			TasksDone: c.tasks.Load(),
			Draining:  c.draining,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// forgetChildLocked removes a child from the registry and returns its
// slots to nobody: capacity shrinks unless the child was already
// draining (its slots left capacity when the drain started).
func (s *SubMaster) forgetChildLocked(id string) {
	c, ok := s.children[id]
	if !ok {
		return
	}
	delete(s.children, id)
	delete(s.pendingDeletes, id)
	delete(s.pendingGC, id)
	if !c.draining {
		s.capacity -= int(c.slots)
		s.slotCond.Broadcast()
	}
}

// childReaper declares silent children dead: their leases requeue into
// the local scheduler and their slots leave the aggregate capacity. It
// also drives shard-local speculation when configured.
func (s *SubMaster) childReaper(stop chan struct{}) {
	interval := s.opts.HeartbeatTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-s.opts.HeartbeatTimeout)
		var dead []string
		s.mu.Lock()
		for id, c := range s.children {
			if c.lastSeen.Before(cutoff) {
				dead = append(dead, id)
			}
		}
		for _, id := range dead {
			s.logger.Printf("submaster %s: child %s silent; declaring dead", s.ID(), id)
			s.forgetChildLocked(id)
		}
		s.mu.Unlock()
		for _, id := range dead {
			s.sched.SlaveDead(id)
		}
		if s.opts.SpeculationFactor > 0 {
			s.sched.Speculate()
		}
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
