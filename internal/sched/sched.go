// Package sched implements the master's task scheduler. Slaves pull
// tasks; the scheduler prefers giving a slave the same task index it
// completed in a previous operation ("affinity", §IV-A of the Mrs
// paper: corresponding tasks go to the same processor from one
// iteration to the next, cutting inter-iteration communication), and
// it reassigns tasks when slaves fail or report errors.
//
// For Resident-marked tasks (Operation.Resident) there is a stronger
// tier above index affinity: the scheduler remembers which slave's
// resident dataset cache holds each (input dataset, split) pair and
// routes later consumers of that split to it, so iterative workloads
// shuffle their invariant inputs once and then run against warm
// worker-local state. Both tiers are preferences, never reservations —
// a slave that asks for work always gets the best-ranked pending task
// rather than blocking on an owner that may never ask.
//
// The scheduler is multi-job: tasks are queued per job (TaskSpec.Job),
// each job keeps its own affinities, failure counts/blacklist, and
// lease override, and dispatch across jobs is weighted fair share —
// the eligible job with the lowest inflight/weight ratio is served
// first, so concurrent tenants share the fleet without a heavy job
// starving a light one. Single-job callers need not care: everything
// they submit lands in the default job 0 and behaves exactly as the
// single-job scheduler did.
//
// Speculative execution (SetSpeculation/Speculate) re-runs stragglers:
// each completion feeds a per-operation duration sample, and a task
// whose sole attempt has run longer than SlownessFactor times the
// operation's quantile duration is queued again for a second, parallel
// attempt on a different slave. A task may therefore have several
// attempts in flight at once; the first completion wins, losers are
// recorded as "lost speculative race" spans and their late reports are
// absorbed by the same stale-delivery tolerance that already handles
// requeue races. Because operations are deterministic functions of
// their inputs and completion is first-wins-exactly-once, speculation
// never changes job output — only its tail latency.
//
// The submission model is per-task and asynchronous: Submit queues one
// task and fires its completion callback exactly once when the task
// succeeds, exhausts its attempts, or the scheduler closes. Tasks from
// any number of concurrent operations interleave in the pending set,
// which is what lets the pipelined Job driver keep several operations
// in flight at once. SubmitGroup remains as a convenience barrier built
// on top of Submit. Callbacks are always invoked without the scheduler
// lock held.
//
// The scheduler is an instrumentation point of the observability layer
// (internal/obs, docs/OBSERVABILITY.md): SetObserver attaches a runtime
// whose tracer receives an assignment event for every attempt handed
// out (carrying the attempt number and worker, so retries and
// speculative races are visible as parallel spans in a -mrs-trace
// timeline) and a completion event for every outcome, and whose
// metrics count assignments, retries, completions, failures,
// speculative launches/wins, drain requeues, late reports, and
// lease/death requeues alongside pending/running gauges.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultMaxAttempts is how many times a task may be attempted before
// it is reported failed.
const DefaultMaxAttempts = 5

// ErrClosed is returned by blocked calls when the scheduler shuts down.
var ErrClosed = errors.New("sched: scheduler closed")

// TaskID uniquely identifies a task attempt set.
type TaskID int64

// Callback receives a task's final outcome (result or error), exactly
// once, from a goroutine that does not hold the scheduler lock.
type Callback func(*core.TaskResult, error)

// Task is one schedulable unit.
type Task struct {
	ID       TaskID
	Spec     *core.TaskSpec
	Attempts int
	done     Callback
	// assignees lists every slave this task was ever given to, so a
	// completion or failure arriving from a *previous* assignee after
	// the task was reassigned is recognized as stale, not a protocol
	// violation.
	assignees []string
	// queued counts copies of this task currently sitting in a pending
	// queue (0 or 1 in practice: the original submission, a requeued
	// retry, or a speculative duplicate). It keeps a retry from being
	// queued twice when a failure races a pending speculative copy.
	queued int
	// finished flips when the task's callback has been claimed (first
	// completion, final abort, or Close), after which stale pending
	// copies are pruned on sight and never re-dispatched.
	finished bool
}

func (t *Task) wasAssignedTo(slaveID string) bool {
	for _, s := range t.assignees {
		if s == slaveID {
			return true
		}
	}
	return false
}

// Group tracks the tasks of one operation submitted via SubmitGroup.
type Group struct {
	mu        sync.Mutex
	remaining int
	results   []*core.TaskResult // indexed by TaskIndex
	err       error
	done      chan struct{}
}

// Wait blocks until every task in the group completed or the group
// failed; results are indexed by task index.
func (g *Group) Wait() ([]*core.TaskResult, error) {
	<-g.done
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return nil, g.err
	}
	return g.results, nil
}

func (g *Group) record(idx int, res *core.TaskResult, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return // already failed; drop late outcomes
	}
	if err != nil {
		g.err = err
		close(g.done)
		return
	}
	g.results[idx] = res
	g.remaining--
	if g.remaining == 0 {
		close(g.done)
	}
}

// SpeculationConfig tunes straggler re-execution. The zero value
// disables speculation.
type SpeculationConfig struct {
	// SlownessFactor launches a duplicate attempt once a task has run
	// longer than SlownessFactor times the operation's quantile
	// duration (<= 0 disables speculation entirely).
	SlownessFactor float64
	// Quantile of the completed-duration sample the factor multiplies
	// (0 selects the default 0.5, the median).
	Quantile float64
	// MinSamples is how many completed durations an operation needs
	// before its tasks may be speculated (0 selects the default 3):
	// with too few samples the quantile is noise.
	MinSamples int
	// MinRuntime floors the speculation threshold so very short
	// operations don't duplicate every task over scheduling jitter
	// (0 selects the default 100ms).
	MinRuntime time.Duration
}

const (
	defaultSpecQuantile   = 0.5
	defaultSpecMinSamples = 3
	defaultSpecMinRuntime = 100 * time.Millisecond
	// durationSampleCap bounds the per-operation duration history the
	// quantile is computed over; older samples age out.
	durationSampleCap = 256
)

// Scheduler coordinates pending and running tasks across any number of
// concurrent jobs. Every task belongs to a job (its TaskSpec.Job; 0 is
// the default job of single-job runtimes), and each job keeps its own
// pending queue, task-index affinities, per-slave failure counts,
// optional lease override, and fair-share weight. Dispatch is weighted
// fair share: a request is served from the eligible job with the
// lowest inflight/weight ratio (ties to the least recently dispatched
// job), so a 500-task job cannot starve a 1-task job submitted behind
// it.
type Scheduler struct {
	mu          sync.Mutex
	cond        *sync.Cond
	jobs        map[core.JobID]*jobState
	order       []core.JobID // job registration order (tie-break determinism)
	running     map[TaskID]*runningEntry
	nextID      TaskID
	dispatchSeq int64
	maxAttempts int
	// blacklistAfter is the per-job failure threshold after which a
	// slave stops receiving that job's tasks (<= 0 disables).
	blacklistAfter int
	// liveSlaves reports the current fleet size; the blacklist never
	// fires when only one slave is left (nil = always apply).
	liveSlaves func() int
	spec       SpeculationConfig
	clk        clock.Clock
	obs        *obs.Runtime
	closed     bool
}

// jobState is one job's private scheduling state.
type jobState struct {
	id       core.JobID
	weight   int // fair-share weight (>= 1)
	pending  []*Task
	inflight int            // attempts of this job currently assigned
	affinity map[int]string // task index -> last slave to complete it
	// resident maps (input dataset, split) of Resident-marked tasks to
	// the slave whose resident cache holds that split's payload — the
	// slave that last completed such a task. Cache-affinity placement
	// prefers it strictly over plain index affinity; a dead slave's
	// entries are dropped so placement falls back to re-fetch anywhere.
	resident map[residentRef]string
	failures map[string]int // slave -> task failures reported (blacklist input)
	lease    time.Duration  // per-job lease override (0 = scheduler default)
	// durations holds recent completed-attempt wall times per operation
	// (keyed by output dataset id) — the sample the speculation
	// quantile is computed over.
	durations map[int][]time.Duration
	// lastDispatch is the global dispatch sequence number of this job's
	// most recent assignment; fair-share ties go to the smaller value.
	lastDispatch int64
}

// residentRef identifies one resident-cached input split within a job.
type residentRef struct {
	ds    int
	split int
}

// attemptRef is one live assignment of a task to a slave. A task
// normally has exactly one; speculation adds a second racing one.
type attemptRef struct {
	slave       string
	since       time.Time // assignment time, for stale-lease requeue
	number      int       // attempt number (Task.Attempts at assignment)
	speculative bool      // launched as a straggler duplicate
}

type runningEntry struct {
	task     *Task
	attempts []*attemptRef
}

func (e *runningEntry) attemptOf(slaveID string) int {
	for i, a := range e.attempts {
		if a.slave == slaveID {
			return i
		}
	}
	return -1
}

// New returns a scheduler. maxAttempts <= 0 selects the default.
func New(maxAttempts int) *Scheduler {
	return NewWithClock(maxAttempts, clock.Real{})
}

// NewWithClock is New with an injectable clock (deterministic timeout
// and lease tests).
func NewWithClock(maxAttempts int, clk clock.Clock) *Scheduler {
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	if clk == nil {
		clk = clock.Real{}
	}
	s := &Scheduler{
		jobs:        map[core.JobID]*jobState{},
		running:     map[TaskID]*runningEntry{},
		maxAttempts: maxAttempts,
		clk:         clk,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// jobLocked returns the job's scheduling state, creating it on first
// use. Must be called with s.mu held.
func (s *Scheduler) jobLocked(id core.JobID) *jobState {
	j, ok := s.jobs[id]
	if !ok {
		j = &jobState{
			id:        id,
			weight:    1,
			affinity:  map[int]string{},
			resident:  map[residentRef]string{},
			failures:  map[string]int{},
			durations: map[int][]time.Duration{},
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	return j
}

// SetBlacklist configures the per-job repeat-offender blacklist: a
// slave that reported >= after failures for one job stops receiving
// that job's tasks (it still serves other jobs). liveSlaves reports
// the fleet size so the last live slave is never blacklisted; nil
// applies the threshold unconditionally. after <= 0 disables.
func (s *Scheduler) SetBlacklist(after int, liveSlaves func() int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blacklistAfter = after
	s.liveSlaves = liveSlaves
}

// SetSpeculation configures straggler re-execution (zero
// SlownessFactor disables it). Speculate performs the actual scans;
// the master calls it from its reaper tick.
func (s *Scheduler) SetSpeculation(cfg SpeculationConfig) {
	if cfg.Quantile <= 0 || cfg.Quantile > 1 {
		cfg.Quantile = defaultSpecQuantile
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = defaultSpecMinSamples
	}
	if cfg.MinRuntime <= 0 {
		cfg.MinRuntime = defaultSpecMinRuntime
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spec = cfg
}

// SetJobWeight sets a job's fair-share weight (values < 1 are clamped
// to 1). A job with weight w receives w shares of the fleet relative
// to other jobs' weights.
func (s *Scheduler) SetJobWeight(id core.JobID, weight int) {
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobLocked(id).weight = weight
}

// SetJobLease overrides the stale-assignment lease for one job's tasks
// (0 restores the RequeueStale caller's default).
func (s *Scheduler) SetJobLease(id core.JobID, lease time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobLocked(id).lease = lease
}

// SetObserver wires the scheduler into an observability runtime
// (trace assignment/completion events, scheduling counters, and
// pending/running gauges). Call before serving requests.
func (s *Scheduler) SetObserver(rt *obs.Runtime) {
	s.mu.Lock()
	s.obs = rt
	s.mu.Unlock()
	rt.M().SetGauge("mrs_sched_pending", func() int64 { return int64(s.Pending()) })
	rt.M().SetGauge("mrs_sched_running", func() int64 { return int64(s.Running()) })
}

// Submit queues one task. done fires exactly once with the task's
// final outcome: its result, the give-up error after attempts are
// exhausted, or ErrClosed if the scheduler shuts down first. Submit
// never invokes done synchronously.
func (s *Scheduler) Submit(spec *core.TaskSpec, done Callback) (TaskID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.nextID++
	j := s.jobLocked(spec.Job)
	j.pending = append(j.pending, &Task{ID: s.nextID, Spec: spec, done: done, queued: 1})
	s.cond.Broadcast()
	return s.nextID, nil
}

// SubmitGroup queues one task per spec and returns the group handle.
func (s *Scheduler) SubmitGroup(specs []*core.TaskSpec) (*Group, error) {
	g := &Group{
		remaining: len(specs),
		results:   make([]*core.TaskResult, len(specs)),
		done:      make(chan struct{}),
	}
	if len(specs) == 0 {
		close(g.done)
		return g, nil
	}
	for _, spec := range specs {
		idx := spec.TaskIndex
		if _, err := s.Submit(spec, func(res *core.TaskResult, err error) {
			g.record(idx, res, err)
		}); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Request returns a task for the slave, blocking up to timeout if none
// is available. A nil task with nil error means the timeout elapsed.
func (s *Scheduler) Request(slaveID string, timeout time.Duration) (*Task, error) {
	t, _, err := s.RequestAttempt(slaveID, timeout)
	return t, err
}

// RequestAttempt is Request also returning the attempt number of the
// assignment it hands out. Callers that encode the assignment for the
// wire must use this number rather than reading Task.Attempts later:
// with speculation a task can be re-assigned concurrently, and the
// field may move under the reader.
func (s *Scheduler) RequestAttempt(slaveID string, timeout time.Duration) (*Task, int, error) {
	deadline := s.clk.Now().Add(timeout)
	timer := s.clk.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, 0, ErrClosed
		}
		if t := s.takeLocked(slaveID); t != nil {
			entry := s.running[t.ID]
			speculative := entry != nil // duplicate of a still-running attempt
			if entry == nil {
				entry = &runningEntry{task: t}
				s.running[t.ID] = entry
			}
			t.Attempts++
			t.assignees = append(t.assignees, slaveID)
			entry.attempts = append(entry.attempts, &attemptRef{
				slave:       slaveID,
				since:       s.clk.Now(),
				number:      t.Attempts,
				speculative: speculative,
			})
			core.StartSpans(s.obs.T(), t.Spec, t.Attempts, slaveID)
			s.obs.M().Add("mrs_sched_assigned_total", 1)
			if t.Attempts > 1 && !speculative {
				s.obs.M().Add("mrs_sched_retries_total", 1)
			}
			return t, t.Attempts, nil
		}
		if !s.clk.Now().Before(deadline) {
			return nil, 0, nil
		}
		s.cond.Wait()
	}
}

// takeLocked picks the best pending task for a slave. Job choice is
// weighted fair share: among jobs with pending work the slave may
// serve (per-job blacklist respected), take from the one with the
// lowest inflight/weight ratio, ties to the job dispatched least
// recently — so a newly submitted small job preempts the dispatch
// rotation of a large one immediately. Within the chosen job the
// preference order is: a Resident task whose cached input this slave
// holds (cache affinity — serving it anywhere else would re-shuffle a
// split already warm in this slave's memory), then a task whose index
// this slave completed before (index affinity), then a task with no
// affinity at all, then FIFO steal of the oldest. Every tier is a
// preference, not a reservation: a slave with nothing of its own still
// takes the oldest pending task, so blacklists, leases, and dead
// caching slaves can never deadlock the queue — the fallback is a cold
// re-fetch.
//
// Two task-level exclusions apply: pending copies of a task whose
// callback already fired (a speculative duplicate outliving its
// winner) are pruned on sight, and a speculative copy of a
// still-running task is never handed to a slave the task already ran
// on — a duplicate of a straggler must land on different hardware. A
// job whose every pending task is excluded for this slave falls
// through to the next job in fair-share order.
func (s *Scheduler) takeLocked(slaveID string) *Task {
	var cands []*jobState
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil || s.jobBlacklistedLocked(j, slaveID) {
			continue
		}
		// Prune copies of tasks that finished while queued.
		live := j.pending[:0]
		for _, t := range j.pending {
			if t.finished {
				t.queued--
				continue
			}
			live = append(live, t)
		}
		j.pending = live
		if len(j.pending) > 0 {
			cands = append(cands, j)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return fairerLocked(cands[a], cands[b]) })
	for _, pick := range cands {
		best, bestRank := -1, 4
		for i, t := range pick.pending {
			if s.running[t.ID] != nil && t.wasAssignedTo(slaveID) {
				// Speculative duplicate: it exists to race the assignment
				// this slave (or a past one) is already running; give it
				// to someone else. (A plain retry has no running entry
				// and may return to the same slave.)
				continue
			}
			rank := 3
			if owner, has := pick.affinity[t.Spec.TaskIndex]; !has {
				rank = 2
			} else if owner == slaveID {
				rank = 1
			}
			if t.Spec.Op.Resident &&
				pick.resident[residentRef{t.Spec.InputDataset, t.Spec.TaskIndex}] == slaveID {
				rank = 0
			}
			if rank < bestRank {
				best, bestRank = i, rank
				if bestRank == 0 {
					break
				}
			}
		}
		if best < 0 {
			continue
		}
		if bestRank == 0 {
			s.obs.M().Add(obs.MetricSchedResidentPlacements, 1)
		}
		t := pick.pending[best]
		pick.pending = append(pick.pending[:best], pick.pending[best+1:]...)
		t.queued--
		pick.inflight++
		s.dispatchSeq++
		pick.lastDispatch = s.dispatchSeq
		return t
	}
	return nil
}

// fairerLocked reports whether job a has a stronger fair-share claim
// than job b: a lower inflight/weight ratio (compared cross-multiplied
// to stay in integers), ties to the job that was dispatched longer ago.
func fairerLocked(a, b *jobState) bool {
	la := int64(a.inflight) * int64(b.weight)
	lb := int64(b.inflight) * int64(a.weight)
	if la != lb {
		return la < lb
	}
	return a.lastDispatch < b.lastDispatch
}

// jobBlacklistedLocked reports whether the slave is blacklisted for
// this job's tasks: it reported at least blacklistAfter failures for
// the job, and more than one slave is live (a blacklist must never
// idle the whole fleet).
func (s *Scheduler) jobBlacklistedLocked(j *jobState, slaveID string) bool {
	if s.blacklistAfter <= 0 || j.failures[slaveID] < s.blacklistAfter {
		return false
	}
	return s.liveSlaves == nil || s.liveSlaves() > 1
}

// BlacklistedEverywhere reports whether the slave is blacklisted for
// every job the scheduler currently tracks (and there is at least
// one). The master uses it to park a slave's get_task polls instead of
// spinning through requests the scheduler would never serve.
func (s *Scheduler) BlacklistedEverywhere(slaveID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) == 0 {
		return false
	}
	for _, j := range s.jobs {
		if !s.jobBlacklistedLocked(j, slaveID) {
			return false
		}
	}
	return true
}

// Speculate scans running tasks for stragglers and queues a duplicate
// attempt for each (at most one duplicate per task): a task qualifies
// when it has exactly one live attempt, no copy already pending, and
// that attempt has run longer than SlownessFactor × the operation's
// quantile completed duration (floored at MinRuntime), with at least
// MinSamples completions to quantile over. Returns how many duplicates
// were queued; a no-op unless SetSpeculation enabled speculation. The
// master calls this from its speculation ticker.
func (s *Scheduler) Speculate() int {
	s.mu.Lock()
	cfg := s.spec
	if s.closed || cfg.SlownessFactor <= 0 {
		s.mu.Unlock()
		return 0
	}
	now := s.clk.Now()
	n := 0
	for _, entry := range s.running {
		t := entry.task
		if t.finished || t.queued > 0 || len(entry.attempts) != 1 {
			continue
		}
		j := s.jobs[t.Spec.Job]
		if j == nil {
			continue
		}
		samples := j.durations[t.Spec.Op.Dataset]
		if len(samples) < cfg.MinSamples {
			continue
		}
		threshold := time.Duration(float64(quantileDur(samples, cfg.Quantile)) * cfg.SlownessFactor)
		if threshold < cfg.MinRuntime {
			threshold = cfg.MinRuntime
		}
		if now.Sub(entry.attempts[0].since) < threshold {
			continue
		}
		// Queue the duplicate at the tail: fresh work first, straggler
		// insurance when slots are otherwise idle.
		t.queued++
		j.pending = append(j.pending, t)
		n++
		s.obs.M().Add(obs.MetricSchedSpeculative, 1)
	}
	if n > 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	return n
}

// quantileDur returns the q-quantile (nearest-rank) of the samples.
func quantileDur(samples []time.Duration, q float64) time.Duration {
	tmp := append([]time.Duration(nil), samples...)
	sort.Slice(tmp, func(a, b int) bool { return tmp[a] < tmp[b] })
	idx := int(q*float64(len(tmp)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// recordDurationLocked appends a completed-attempt wall time to the
// job's per-operation speculation sample, aging out old entries.
func recordDurationLocked(j *jobState, ds int, d time.Duration) {
	samples := append(j.durations[ds], d)
	if len(samples) > durationSampleCap {
		samples = samples[len(samples)-durationSampleCap/2:]
	}
	j.durations[ds] = samples
}

// Complete records a successful task. Duplicate or stale completions —
// the same delivery arriving twice, a previous assignee finishing
// after the task was requeued to another slave, or the loser of a
// speculative race — are counted as late reports and ignored, so the
// control plane tolerates at-least-once delivery.
func (s *Scheduler) Complete(id TaskID, slaveID string, result *core.TaskResult) error {
	_, err := s.CompleteTask(id, slaveID, result)
	return err
}

// CompleteTask is Complete returning the spec of the task the
// completion was accepted for, or nil when it was ignored as a
// duplicate or stale delivery. The master journals only accepted
// completions, so at-least-once reports never double-count in the
// durable state. The first completion wins: if other attempts of the
// task are still in flight (a speculative race), they are released and
// their eventual reports ignored.
func (s *Scheduler) CompleteTask(id TaskID, slaveID string, result *core.TaskResult) (*core.TaskSpec, error) {
	s.mu.Lock()
	entry, ok := s.running[id]
	if !ok {
		// Duplicate completion (e.g. a redelivered report, a
		// speculative loser, or the task was reassigned after a
		// presumed-dead slave came back). Count and ignore.
		s.obs.M().Add(obs.MetricSchedLateReports, 1)
		s.mu.Unlock()
		return nil, nil
	}
	idx := entry.attemptOf(slaveID)
	if idx < 0 {
		if entry.task.wasAssignedTo(slaveID) {
			// Stale completion from a previous assignee racing the
			// current one; the live assignment proceeds untouched.
			s.obs.M().Add(obs.MetricSchedLateReports, 1)
			s.mu.Unlock()
			return nil, nil
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: task %d completed by %q but never assigned to it", id, slaveID)
	}
	win := entry.attempts[idx]
	delete(s.running, id)
	entry.task.finished = true
	if j := s.jobs[entry.task.Spec.Job]; j != nil {
		j.inflight -= len(entry.attempts)
		j.affinity[entry.task.Spec.TaskIndex] = slaveID
		for _, spec := range append([]*core.TaskSpec{entry.task.Spec}, entry.task.Spec.Then...) {
			if spec.Op.Resident {
				// The completing slave just populated (or refreshed)
				// its resident cache with this input split; steer
				// later consumers of the same split to it.
				j.resident[residentRef{spec.InputDataset, spec.TaskIndex}] = slaveID
			}
		}
		recordDurationLocked(j, entry.task.Spec.Op.Dataset, s.clk.Now().Sub(win.since))
	} else {
		// Straggler completion for a job whose state was already
		// dropped (JobDone): still accepted, but worth counting.
		s.obs.M().Add(obs.MetricSchedLateReports, 1)
	}
	if result != nil {
		// Stamp identity so callers need not echo it over the wire.
		result.TaskIndex = entry.task.Spec.TaskIndex
		result.Dataset = entry.task.Spec.Op.Dataset
	}
	core.FinishSpans(s.obs.T(), entry.task.Spec, win.number, win.slave, result, "")
	for i, ref := range entry.attempts {
		if i == idx {
			continue
		}
		// Losers of the speculative race: close their spans so the
		// trace shows where the duplicate work went; their eventual
		// reports will land in the late-report counter.
		core.FinishSpans(s.obs.T(), entry.task.Spec, ref.number, ref.slave, nil, "lost speculative race")
	}
	s.obs.M().Add("mrs_sched_completed_total", 1)
	if win.speculative {
		s.obs.M().Add(obs.MetricSchedSpeculativeWins, 1)
	}
	done := entry.task.done
	spec := entry.task.Spec
	s.mu.Unlock()
	done(result, nil)
	return spec, nil
}

// Fail reports a task error from a slave; the task is retried on any
// slave until attempts are exhausted, at which point its callback fires
// with the final error. Stale failures from a previous assignee do not
// disturb the current assignment (the reassignment race: a slave
// presumed dead reports failure for a task already requeued and running
// elsewhere), and a failure of one attempt of a speculative race only
// removes that attempt — the surviving attempt keeps running and no
// retry is queued behind it.
func (s *Scheduler) Fail(id TaskID, slaveID string, taskErr string) error {
	s.mu.Lock()
	entry, ok := s.running[id]
	if !ok {
		s.obs.M().Add(obs.MetricSchedLateReports, 1)
		s.mu.Unlock()
		return nil
	}
	idx := entry.attemptOf(slaveID)
	if idx < 0 {
		if entry.task.wasAssignedTo(slaveID) {
			s.obs.M().Add(obs.MetricSchedLateReports, 1)
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
		return fmt.Errorf("sched: task %d failed by %q but never assigned to it", id, slaveID)
	}
	ref := entry.attempts[idx]
	entry.attempts = append(entry.attempts[:idx], entry.attempts[idx+1:]...)
	if j := s.jobs[entry.task.Spec.Job]; j != nil {
		j.inflight--
		j.failures[slaveID]++
	}
	core.FinishSpans(s.obs.T(), entry.task.Spec, ref.number, ref.slave, nil, taskErr)
	s.obs.M().Add("mrs_sched_task_failures_total", 1)
	if len(entry.attempts) > 0 {
		// A speculative twin is still running; it is the retry.
		s.mu.Unlock()
		return nil
	}
	delete(s.running, id)
	abort := s.requeueOrAbortLocked(entry.task, fmt.Errorf("sched: task %d failed on %s: %s", id, slaveID, taskErr))
	s.mu.Unlock()
	if abort != nil {
		abort()
	}
	return nil
}

// FailureCount returns how many task failures the slave has reported,
// summed across jobs — the input to the master's repeat-offender
// blacklist (and, per job, to the scheduler's own per-job blacklist).
func (s *Scheduler) FailureCount(slaveID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		n += j.failures[slaveID]
	}
	return n
}

// RequeueStale requeues every attempt that has been running longer
// than its lease — the given default, or the task's job's override —
// reclaiming assignments whose delivery was lost (the get_task
// response never reached the slave). An expired attempt of a
// speculative race is simply dropped; the surviving attempt carries
// on. Returns how many attempts were reclaimed.
func (s *Scheduler) RequeueStale(lease time.Duration) int {
	s.mu.Lock()
	now := s.clk.Now()
	n := 0
	var aborts []func()
	for id, entry := range s.running {
		effective := lease
		if j := s.jobs[entry.task.Spec.Job]; j != nil && j.lease > 0 {
			effective = j.lease
		}
		live := entry.attempts[:0]
		for _, ref := range entry.attempts {
			if now.Sub(ref.since) < effective {
				live = append(live, ref)
				continue
			}
			if j := s.jobs[entry.task.Spec.Job]; j != nil {
				j.inflight--
			}
			n++
			core.FinishSpans(s.obs.T(), entry.task.Spec, ref.number, ref.slave, nil, "lease expired; requeued")
			s.obs.M().Add("mrs_sched_requeued_total", 1)
		}
		expired := len(entry.attempts) - len(live)
		entry.attempts = live
		if expired == 0 || len(live) > 0 {
			continue
		}
		delete(s.running, id)
		if abort := s.requeueOrAbortLocked(entry.task, fmt.Errorf("sched: task %d lease expired (assignment lost?)", id)); abort != nil {
			aborts = append(aborts, abort)
		}
	}
	s.mu.Unlock()
	for _, abort := range aborts {
		abort()
	}
	return n
}

// SlaveDead requeues every task running on the slave and drops its
// affinities so future preferences don't point at a corpse.
func (s *Scheduler) SlaveDead(slaveID string) {
	s.mu.Lock()
	aborts, _ := s.evictSlaveLocked(slaveID, "slave died; requeued", "mrs_sched_requeued_total")
	s.forgetSlaveLocked(slaveID)
	s.mu.Unlock()
	for _, abort := range aborts {
		abort()
	}
}

// Drain cleanly takes a live node out of rotation: every lease it
// holds is returned to the front of its job's queue for immediate
// re-dispatch elsewhere, and its affinities are dropped so no future
// placement prefers it. Unlike SlaveDead this is the voluntary-exit
// path — the elasticity half of the control plane — but it reuses the
// same requeue machinery, so a drain is exactly a death the node got
// to announce. Returns how many leases were returned.
func (s *Scheduler) Drain(slaveID string) int {
	s.mu.Lock()
	aborts, evicted := s.evictSlaveLocked(slaveID, "node draining; requeued", obs.MetricSchedDrainRequeued)
	s.forgetSlaveLocked(slaveID)
	s.mu.Unlock()
	for _, abort := range aborts {
		abort()
	}
	return evicted
}

// evictSlaveLocked removes every attempt the slave holds, requeueing
// tasks left with no live attempt. Returns the abort callbacks to run
// after unlock and the count of evicted attempts (an evicted attempt
// whose task retries is not an abort, so the counts differ).
func (s *Scheduler) evictSlaveLocked(slaveID, reason, metric string) ([]func(), int) {
	var aborts []func()
	evicted := 0
	for id, entry := range s.running {
		idx := entry.attemptOf(slaveID)
		if idx < 0 {
			continue
		}
		ref := entry.attempts[idx]
		entry.attempts = append(entry.attempts[:idx], entry.attempts[idx+1:]...)
		if j := s.jobs[entry.task.Spec.Job]; j != nil {
			j.inflight--
		}
		evicted++
		core.FinishSpans(s.obs.T(), entry.task.Spec, ref.number, ref.slave, nil, reason)
		s.obs.M().Add(metric, 1)
		if len(entry.attempts) > 0 {
			continue // speculative twin still running elsewhere
		}
		delete(s.running, id)
		if abort := s.requeueOrAbortLocked(entry.task, fmt.Errorf("sched: node %s evicted running task %d (%s)", slaveID, id, reason)); abort != nil {
			aborts = append(aborts, abort)
		}
	}
	return aborts, evicted
}

// forgetSlaveLocked drops every preference pointing at the slave.
func (s *Scheduler) forgetSlaveLocked(slaveID string) {
	for _, j := range s.jobs {
		for idx, owner := range j.affinity {
			if owner == slaveID {
				delete(j.affinity, idx)
			}
		}
		for ref, owner := range j.resident {
			if owner == slaveID {
				// The cache died with the slave; placement falls back
				// to a cold re-fetch wherever the retry lands.
				delete(j.resident, ref)
			}
		}
		delete(j.failures, slaveID)
	}
}

// requeueOrAbortLocked retries a task, or — attempts exhausted —
// returns the give-up call for the caller to fire once the lock is
// released.
func (s *Scheduler) requeueOrAbortLocked(t *Task, cause error) func() {
	if t.finished {
		return nil // callback already claimed elsewhere
	}
	if t.queued > 0 {
		// A pending copy (a speculative duplicate queued before the
		// live attempt was lost) already exists; it is the retry.
		s.cond.Broadcast()
		return nil
	}
	if t.Attempts >= s.maxAttempts {
		t.finished = true
		err := fmt.Errorf("sched: giving up after %d attempts: %w", t.Attempts, cause)
		done := t.done
		return func() { done(nil, err) }
	}
	// Retry: push to the front of its job's queue so recovery happens
	// before that job's new work.
	j := s.jobLocked(t.Spec.Job)
	t.queued++
	j.pending = append([]*Task{t}, j.pending...)
	s.cond.Broadcast()
	return nil
}

// Pending returns the number of queued tasks across all jobs
// (diagnostics; speculative duplicates count while queued).
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		n += len(j.pending)
	}
	return n
}

// Running returns the number of in-flight tasks across all jobs
// (diagnostics; a task with two racing attempts counts once).
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.running)
}

// RunningOn returns how many attempts the slave currently holds
// (diagnostics, drain decisions, and tests).
func (s *Scheduler) RunningOn(slaveID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, entry := range s.running {
		if entry.attemptOf(slaveID) >= 0 {
			n++
		}
	}
	return n
}

// Jobs returns the ids of every job the scheduler tracks, in
// registration order.
func (s *Scheduler) Jobs() []core.JobID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]core.JobID, 0, len(s.order))
	for _, id := range s.order {
		if _, ok := s.jobs[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// JobCounts returns one job's queued and in-flight task counts.
func (s *Scheduler) JobCounts(id core.JobID) (pending, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return 0, 0
	}
	return len(j.pending), j.inflight
}

// JobDone drops a completed job's scheduling state (queues, affinity,
// failure counts, duration samples, weight). The job's driver has
// already drained its tasks by the time this is called; any straggler
// completions for a dropped job are still accepted — they just skip
// per-job bookkeeping and tick the mrs_sched_late_reports_total
// counter instead of vanishing silently.
func (s *Scheduler) JobDone(id core.JobID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Affinity returns the slave last known to have completed task index
// idx of the default job ("" if none); exposed for the affinity
// ablation bench.
func (s *Scheduler) Affinity(idx int) string {
	return s.AffinityJob(0, idx)
}

// AffinityJob is Affinity for a specific job's task index.
func (s *Scheduler) AffinityJob(job core.JobID, idx int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[job]
	if !ok {
		return ""
	}
	return j.affinity[idx]
}

// ClearAffinity erases affinity state — index and resident alike — for
// every job (ablation support).
func (s *Scheduler) ClearAffinity() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.affinity = map[int]string{}
		j.resident = map[residentRef]string{}
	}
}

// ResidentOwner returns the slave whose resident cache is believed to
// hold (input dataset ds, split) of the job, or "" if none is recorded.
func (s *Scheduler) ResidentOwner(job core.JobID, ds, split int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[job]
	if !ok {
		return ""
	}
	return j.resident[residentRef{ds, split}]
}

// Close aborts all queued and running tasks (their callbacks fire with
// ErrClosed) and wakes all blocked requests. A task queued *and*
// running (a speculative duplicate) fires once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var dones []Callback
	for _, j := range s.jobs {
		for _, t := range j.pending {
			if t.finished {
				continue
			}
			t.finished = true
			dones = append(dones, t.done)
		}
		j.pending = nil
		j.inflight = 0
	}
	for _, e := range s.running {
		if e.task.finished {
			continue
		}
		e.task.finished = true
		dones = append(dones, e.task.done)
	}
	s.running = map[TaskID]*runningEntry{}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, done := range dones {
		done(nil, ErrClosed)
	}
}
