package core

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/bucket"
	"repro/internal/clock"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Executor runs tasks. Implementations: Serial, MockParallel, Threads
// (this package, all sharing one async worker-pool runner) and the
// distributed master (internal/master).
//
// The contract is asynchronous: Submit hands one task to the executor
// and returns immediately; done is invoked exactly once, from some
// other goroutine, never synchronously from inside Submit. That lets
// the Job submit follow-on tasks from inside completion callbacks
// while holding its own lock without deadlocking.
type Executor interface {
	// Submit schedules one task for execution. done receives the task's
	// result or error (after the executor's own retry policy, if any,
	// is exhausted).
	Submit(spec *TaskSpec, done func(*TaskResult, error))
	// Store is the executor's local bucket store; the driver uses it to
	// materialize source data and to fetch results for Collect.
	Store() *bucket.Store
	// Free releases a dataset's storage, best effort.
	Free(m *Materialized)
	// Close releases executor resources.
	Close() error
}

// JobID identifies a job within a shared runtime. ID 0 is the default
// job of a directly-constructed driver (serial, mock, threads, or a
// bare master executor) and keeps all legacy naming; managed jobs
// submitted through a JobManager get positive IDs, which namespace
// their buckets, scheduler state, metrics, and trace timelines.
type JobID int64

// JobOptions tunes the Job driver.
type JobOptions struct {
	// Pipeline enables the split-level pipelined DAG runner: every
	// queued operation is scheduled immediately, a task starts as soon
	// as its input split is ready, and narrow (key-aligned) reduces
	// release their splits one task at a time so iteration i+1 can
	// overlap iteration i's stragglers. When false the driver falls
	// back to the barriered behaviour — strict queue order, one
	// operation materialized fully before the next starts — kept as an
	// ablation (BenchmarkPipelineAblation).
	Pipeline bool
	// Obs wires the driver into an observability runtime: task submit
	// events go to its tracer (issuing the trace IDs that travel with
	// tasks) and driver counters to its metrics. Nil disables both.
	Obs *obs.Runtime
	// Clock stamps driver-side timings (nil = Obs's clock, or the wall
	// clock).
	Clock clock.Clock
	// ID is the job's identity in a multi-tenant runtime. The zero value
	// is the default single-job namespace; a JobManager assigns positive
	// IDs so concurrent jobs keep their buckets, scheduling state, and
	// observability apart.
	ID JobID
}

// Job is the handle a Program's Run method uses to queue operations.
// Queueing methods never block on execution: the Job is a DAG
// scheduler that submits every runnable task to the executor the
// moment its input split is ready, and builds each dataset's
// Materialized incrementally as per-task completion events land.
// Wait/Collect/Stats resolve as soon as their own dataset completes,
// not when the whole queue prefix does — which is what lets iterative
// programs overlap convergence checks with subsequent iterations
// (§IV/§V-B of the Mrs paper).
type Job struct {
	exec     Executor
	pipeline bool
	obs      *obs.Runtime
	clk      clock.Clock
	id       JobID

	mu     sync.Mutex
	cond   *sync.Cond
	states []*dsState
	err    error
	closed bool
}

// dsState is the scheduler's view of one queued dataset.
type dsState struct {
	op     *Operation
	splits int // output split count (== op.Splits)
	nTasks int // tasks to run (== input split count; 0 for sources)
	// narrow marks a key-aligned reduce whose output split s depends
	// only on its own task s (see Operation.KeyAligned).
	narrow bool

	out       *Materialized
	submitted []bool
	taskDone  []bool
	ndone     int

	started  bool // a task was submitted or the source materialized
	complete bool
	failed   bool
	err      error
	done     chan struct{} // closed when complete (success or failure)

	// Deferred Free bookkeeping: Free records intent; storage is
	// released once the dataset and every consumer queued so far have
	// completed.
	freeWanted     bool
	freed          bool
	nConsumersDone int
	// consumers lists the operations queued so far that read this
	// dataset, in queue order.
	consumers []*dsState

	// Per-task submit times and completed-task cost aggregates feeding
	// Job.Stats.
	submitAt []time.Time
	agg      opAgg

	// urlMemo caches per-split input URL lists once this dataset has
	// fully materialized — the BSP superstep fast path. An iterative
	// program consumes the same invariant dataset every iteration; the
	// first consumer plans the fetch (walks the materialization), later
	// iterations reuse the pinned plan verbatim.
	urlMemo [][]string
}

// opAgg accumulates the cost breakdown of one operation's finished
// tasks (successful attempts only).
type opAgg struct {
	tasks      int64
	wallNS     int64 // elapsed submit → done, includes queueing/retries
	execNS     int64 // executing-attempt wall time (Timing.WallNS)
	shuffleNS  int64
	inBytes    int64
	inRecords  int64
	outBytes   int64
	outRecords int64
	// Resident-cache lookup outcomes across the op's tasks.
	residentHits   int64
	residentMisses int64
}

// NewJob starts a pipelined job driver over the executor.
func NewJob(exec Executor) *Job {
	return NewJobWith(exec, JobOptions{Pipeline: true})
}

// NewJobWith starts a job driver with explicit options.
func NewJobWith(exec Executor, opts JobOptions) *Job {
	clk := opts.Clock
	if clk == nil {
		clk = opts.Obs.Clk()
	}
	j := &Job{exec: exec, pipeline: opts.Pipeline, obs: opts.Obs, clk: clk, id: opts.ID}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// ID returns the job's identity (0 for the default single-job driver).
func (j *Job) ID() JobID { return j.id }

// Pipelined reports whether split-level pipelining is enabled.
func (j *Job) Pipelined() bool { return j.pipeline }

// enqueue registers an operation and immediately schedules whatever is
// runnable. The pending set is the states slice itself — unbounded, so
// iterative programs can queue arbitrarily many operations ahead
// without deadlocking the driver.
func (j *Job) enqueue(op *Operation, splits int) (*Dataset, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, fmt.Errorf("core: job is closed")
	}
	op.Dataset = len(j.states)
	if err := op.Validate(); err != nil {
		return nil, err
	}
	st := &dsState{op: op, splits: op.Splits, done: make(chan struct{})}
	if op.Input >= 0 {
		if op.Input >= len(j.states) {
			return nil, fmt.Errorf("core: op %d: unknown input dataset %d", op.Dataset, op.Input)
		}
		in := j.states[op.Input]
		in.consumers = append(in.consumers, st)
		st.nTasks = in.splits
		st.narrow = narrowReduce(op, in)
		op.Narrow = st.narrow
		st.submitted = make([]bool, st.nTasks)
		st.taskDone = make([]bool, st.nTasks)
		st.submitAt = make([]time.Time, st.nTasks)
		st.out = NewMaterialized(op.Splits, FormatKV)
	}
	j.states = append(j.states, st)
	j.scheduleLocked()
	return &Dataset{job: j, id: op.Dataset, splits: splits}, nil
}

// narrowReduce decides whether op is a narrow (split-aligned) reduce
// over its input: the program promised key-preserving output
// (KeyAligned), producer and consumer share a key-pure partitioner and
// a split count, and the input is in KV format. Then every key of
// input split s re-partitions back to output split s, so split s is
// complete the moment task s finishes — the other tasks' buckets for s
// are provably empty.
func narrowReduce(op *Operation, in *dsState) bool {
	if op.Kind != OpReduce || !op.KeyAligned {
		return false
	}
	switch in.op.Kind {
	case OpMap, OpReduce, OpLocal:
	default:
		return false
	}
	if op.Splits != in.splits {
		return false
	}
	if !partition.KeyPure(op.Partition) || !partition.KeyPure(in.op.Partition) {
		return false
	}
	return normPartName(op.Partition) == normPartName(in.op.Partition)
}

func normPartName(name string) string {
	if name == "" {
		return "hash"
	}
	return name
}

// scheduleLocked submits every task whose input split is ready. It is
// re-run after each enqueue and each task completion; it must be called
// with j.mu held.
func (j *Job) scheduleLocked() {
	for id := 0; id < len(j.states); id++ {
		d := j.states[id]
		if d.complete {
			continue
		}
		if j.err != nil && !d.started {
			j.failLocked(d, fmt.Errorf("core: dataset %d skipped: upstream failure", id))
			continue
		}
		if !j.pipeline && id > 0 && !j.states[id-1].complete {
			// Barriered ablation: strict queue order, one operation at
			// a time to full materialization.
			break
		}
		if d.op.Input < 0 {
			if !d.started {
				j.runSourceLocked(d)
			}
			continue
		}
		in := j.states[d.op.Input]
		if in.failed {
			j.failLocked(d, fmt.Errorf("core: dataset %d skipped: upstream failure", id))
			continue
		}
		for t := 0; t < d.nTasks; t++ {
			if d.submitted[t] || !j.inputReadyLocked(in, t) {
				continue
			}
			spec := j.newSpecLocked(d, t)
			spec.InputURLs = j.inputURLsLocked(in, t)
			spec.InputFormat = in.out.Format
			members := j.fuseLocked(d, spec)
			dd, tt := d, t
			j.exec.Submit(spec, func(res *TaskResult, err error) {
				j.taskFinished(dd, tt, members, res, err)
			})
		}
	}
}

// newSpecLocked marks task t of d submitted and returns its spec,
// without an input plan.
func (j *Job) newSpecLocked(d *dsState, t int) *TaskSpec {
	d.submitted[t] = true
	d.started = true
	d.submitAt[t] = j.clk.Now()
	spec := &TaskSpec{Op: d.op, Job: j.id, TaskIndex: t, InputDataset: d.op.Input}
	spec.TraceID = j.obs.T().TaskSubmittedJob(int64(j.id), d.op.Dataset, t, d.op.Kind.String(), d.op.FuncName)
	j.obs.M().Add("mrs_tasks_submitted_total", 1)
	return spec
}

// fuseLocked attaches to the spec of a narrow reduce task every
// already-queued map operation that reads the reduce's output, as a
// fused member (TaskSpec.Then): split t of a narrow reduce is complete
// the moment task t finishes, so the map task that reads it can run
// right behind it in the same dispatch. Only maps fuse, one level
// deep, and only while pipelining; a consumer queued after the head
// was dispatched runs as its own task. Returns the members' datasets
// in Then order.
func (j *Job) fuseLocked(d *dsState, spec *TaskSpec) []*dsState {
	if !j.pipeline || !d.narrow {
		return nil
	}
	t := spec.TaskIndex
	var members []*dsState
	for _, c := range d.consumers {
		if c.op.Kind != OpMap || c.complete || c.submitted[t] {
			continue
		}
		spec.Then = append(spec.Then, j.newSpecLocked(c, t))
		members = append(members, c)
		j.obs.M().Add(obs.MetricTasksFused, 1)
	}
	return members
}

// inputURLsLocked returns the bucket URLs making up input split t. Once
// the input dataset has fully materialized its fetch plan is frozen, so
// the per-split URL list is computed once and pinned on the dataset —
// iteration i+1's tasks (and any other later consumer) reuse iteration
// i's plan instead of re-walking the materialization per task. Until
// then (narrow pipelined consumption of an in-flight producer) the plan
// is built fresh, since remaining buckets are still landing.
func (j *Job) inputURLsLocked(in *dsState, t int) []string {
	if !in.complete || in.failed {
		return in.out.URLs(t)
	}
	if in.urlMemo == nil {
		in.urlMemo = make([][]string, in.splits)
	}
	if t >= len(in.urlMemo) {
		return in.out.URLs(t)
	}
	if in.urlMemo[t] == nil {
		in.urlMemo[t] = in.out.URLs(t)
	} else {
		j.obs.M().Add(obs.MetricPlanReuse, 1)
	}
	return in.urlMemo[t]
}

// inputReadyLocked reports whether split t of the input dataset is
// ready to be consumed: the whole dataset completed, or — pipelined,
// narrow producers only — its own task t did.
func (j *Job) inputReadyLocked(in *dsState, t int) bool {
	if in.complete && !in.failed {
		return true
	}
	if !j.pipeline {
		return false
	}
	return in.narrow && t < len(in.taskDone) && in.taskDone[t]
}

// runSourceLocked materializes a source operation driver-side.
func (j *Job) runSourceLocked(d *dsState) {
	d.started = true
	var m *Materialized
	var err error
	switch {
	case d.op.Kind == OpLocal:
		m, err = MaterializeLocal(j.exec.Store(), d.op, j.id)
	case d.op.rangeFormat:
		m, err = materializeRangedFiles(d.op)
	default:
		if m, err = MaterializeFiles(d.op); err == nil {
			j.obs.M().Add(obs.MetricInputFiles, int64(len(d.op.Paths)))
			j.obs.M().Add(obs.MetricInputSplits, int64(m.NumSplits()))
		}
	}
	if err != nil {
		j.failLocked(d, err)
		return
	}
	d.out = m
	j.completeLocked(d)
}

// taskFinished is the executor's completion callback for one task and
// its fused members (members[i] ran TaskSpec.Then[i]). A failed attempt
// fails the head and every member together.
func (j *Job) taskFinished(d *dsState, t int, members []*dsState, res *TaskResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recordLocked(d, t, res, err)
	for i, m := range members {
		var mres *TaskResult
		merr := err
		switch {
		case err != nil:
		case res == nil || len(res.Then) != len(members):
			merr = fmt.Errorf("core: op %d task %d returned no result for fused op %d", d.op.Dataset, t, m.op.Dataset)
		default:
			mres = res.Then[i]
		}
		j.recordLocked(m, t, mres, merr)
	}
	j.scheduleLocked()
}

// recordLocked applies one task's outcome to its dataset.
func (j *Job) recordLocked(d *dsState, t int, res *TaskResult, err error) {
	switch {
	case d.complete:
		// Late result after the dataset already failed; drop it.
	case err != nil:
		j.failLocked(d, err)
	case res == nil || len(res.Outputs) != d.splits:
		n := 0
		if res != nil {
			n = len(res.Outputs)
		}
		j.failLocked(d, fmt.Errorf("core: op %d task %d returned %d outputs, want %d",
			d.op.Dataset, t, n, d.splits))
	case !d.taskDone[t]:
		for s, desc := range res.Outputs {
			if err := d.out.SetTaskBucket(t, s, desc); err != nil {
				j.failLocked(d, err)
				return
			}
		}
		d.taskDone[t] = true
		d.ndone++
		elapsed := j.clk.Now().Sub(d.submitAt[t]).Nanoseconds()
		if elapsed < res.Timing.WallNS {
			elapsed = res.Timing.WallNS
		}
		d.agg.tasks++
		d.agg.wallNS += elapsed
		d.agg.execNS += res.Timing.WallNS
		d.agg.shuffleNS += res.Timing.ShuffleNS
		d.agg.inBytes += res.Timing.InBytes
		d.agg.inRecords += res.Timing.InRecords
		d.agg.outBytes += res.Timing.OutBytes
		d.agg.outRecords += res.Timing.OutRecords
		d.agg.residentHits += res.Timing.ResidentHits
		d.agg.residentMisses += res.Timing.ResidentMisses
		if d.ndone == d.nTasks {
			j.completeLocked(d)
		}
	}
}

// completeLocked marks a dataset finished (success or failure), wakes
// waiters, and advances deferred-free bookkeeping.
func (j *Job) completeLocked(d *dsState) {
	if d.complete {
		return
	}
	d.complete = true
	close(d.done)
	j.cond.Broadcast()
	if d.op.Input >= 0 {
		in := j.states[d.op.Input]
		in.nConsumersDone++
		j.maybeFreeLocked(in)
	}
	j.maybeFreeLocked(d)
}

func (j *Job) failLocked(d *dsState, err error) {
	if d.complete {
		return
	}
	d.failed = true
	d.err = err
	if j.err == nil {
		j.err = err
	}
	j.completeLocked(d)
}

// maybeFreeLocked releases a dataset's storage once Free was requested,
// the dataset completed, and every consumer queued so far completed.
func (j *Job) maybeFreeLocked(st *dsState) {
	if !st.freeWanted || st.freed || !st.complete || st.failed || st.out == nil {
		return
	}
	if st.nConsumersDone < len(st.consumers) {
		return
	}
	st.freed = true
	j.exec.Free(st.out)
}

// Close blocks until every queued operation has completed (in-flight
// work is never abandoned) and reports the first execution error.
func (j *Job) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	for !j.allCompleteLocked() {
		j.cond.Wait()
	}
	j.mu.Unlock()
	return j.Err()
}

func (j *Job) allCompleteLocked() bool {
	for _, d := range j.states {
		if !d.complete {
			return false
		}
	}
	return true
}

// Err returns the first execution error, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// OpOpts tunes a queued operation. The zero value picks reasonable
// defaults, matching the paper's "reasonable but overridable defaults".
type OpOpts struct {
	// Splits is the number of output splits (default: same as input;
	// for sources, 1).
	Splits int
	// Partition names the output partitioner (default "hash").
	Partition string
	// Combine names a registered reduce function used as a combiner.
	Combine string
	// Params is opaque per-operation state delivered to map/reduce
	// factories on every executing process (broadcast variables).
	Params []byte
	// KeyAligned promises (reduces only) that the function emits only
	// keys from its own input group. When the structural conditions
	// also hold (shared key-pure partitioner, equal split count) the
	// scheduler runs the reduce "narrow": each output split is released
	// downstream as soon as its own task finishes, instead of after the
	// whole shuffle barrier. The promise is enforced — a task that
	// emits a foreign key fails rather than corrupting downstream
	// reads.
	KeyAligned bool
	// Resident marks the operation's input as an invariant dataset to
	// pin in worker-local memory (see Operation.Resident): the first
	// consumption of each split populates a per-worker cache, and every
	// later Resident consumer of the same split — the same map re-queued
	// by the next iteration of an iterative program, or an overlapped
	// convergence check — is served from warm local state instead of
	// re-shuffling. Purely a placement/data-movement hint; results are
	// byte-identical with or without it.
	Resident bool
	// Codec pins this operation's output-bucket wire codec by name,
	// overriding the executor-wide setting (see Operation.Codec).
	Codec string
}

func (o OpOpts) splitsOr(def int) int {
	if o.Splits > 0 {
		return o.Splits
	}
	return def
}

// LocalData queues literal pairs as a source dataset.
func (j *Job) LocalData(pairs []kvio.Pair, opts OpOpts) (*Dataset, error) {
	splits := opts.splitsOr(1)
	return j.enqueue(&Operation{
		Kind:       OpLocal,
		Input:      -1,
		Splits:     splits,
		Partition:  opts.Partition,
		LocalPairs: clonePairs(pairs),
	}, splits)
}

// clonePairs copies pairs into one []Pair whose keys and values share
// one byte buffer, so the copy costs two allocations, not two per pair.
// Empty slices stay nil, as Pair.Clone leaves them.
func clonePairs(pairs []kvio.Pair) []kvio.Pair {
	n := 0
	for _, p := range pairs {
		n += len(p.Key) + len(p.Value)
	}
	buf := make([]byte, 0, n)
	clone := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		buf = append(buf, b...)
		return buf[len(buf)-len(b) : len(buf) : len(buf)]
	}
	cp := make([]kvio.Pair, len(pairs))
	for i, p := range pairs {
		cp[i] = kvio.Pair{Key: clone(p.Key), Value: clone(p.Value)}
	}
	return cp
}

// FileSplitBytes is the size TextFileData packs whole files up to per
// split. Larger splits amortise more per-task cost, but a map task's
// output, and a combining one's distinct keys, grow with the split.
const FileSplitBytes = 1 << 20

// TextFileData queues text files as a source dataset; records are (line
// number, line), numbered from 1 within each file. Every path is
// stat'ed here, and whole files are packed into splits in path order:
// a new split starts when the next file would take a non-empty split
// past FileSplitBytes. A file is never divided, so one of
// FileSplitBytes or more sits in a split of its own. A split's records
// are its files' record streams concatenated in path order, and the
// plan depends only on the paths and their sizes.
func (j *Job) TextFileData(paths []string) (*Dataset, error) {
	sizes := make([]int64, len(paths))
	for i, path := range paths {
		info, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("core: stat %s: %w", path, err)
		}
		sizes[i] = info.Size()
	}
	fileSplit, splits := packFiles(sizes, FileSplitBytes)
	return j.enqueue(&Operation{
		Kind:      OpFile,
		Input:     -1,
		Splits:    splits,
		Paths:     append([]string(nil), paths...),
		fileSplit: fileSplit,
	}, splits)
}

// packFiles returns the split of each file and the split count, packing
// files in order until the next one would take a non-empty split past
// target. A split that has reached target is closed, so a file of
// target bytes or more always sits alone.
func packFiles(sizes []int64, target int64) (fileSplit []int, splits int) {
	fileSplit = make([]int, len(sizes))
	split, fill := -1, int64(0)
	for i, size := range sizes {
		if i == 0 || fill >= target || fill+size > target {
			split++
			fill = 0
		}
		fileSplit[i] = split
		fill += size
	}
	return fileSplit, split + 1
}

// Map queues a map operation over src.
func (j *Job) Map(src *Dataset, funcName string, opts OpOpts) (*Dataset, error) {
	splits := opts.splitsOr(src.splits)
	return j.enqueue(&Operation{
		Kind:        OpMap,
		Input:       src.id,
		FuncName:    funcName,
		CombineName: opts.Combine,
		Splits:      splits,
		Partition:   opts.Partition,
		Params:      append([]byte(nil), opts.Params...),
		Resident:    opts.Resident,
		Codec:       opts.Codec,
	}, splits)
}

// Reduce queues a reduce operation over src. src must be partitioned by
// key (i.e. be the output of a map or reduce with a key-based
// partitioner) for reduce semantics to hold globally.
func (j *Job) Reduce(src *Dataset, funcName string, opts OpOpts) (*Dataset, error) {
	splits := opts.splitsOr(src.splits)
	return j.enqueue(&Operation{
		Kind:        OpReduce,
		Input:       src.id,
		FuncName:    funcName,
		CombineName: opts.Combine,
		Splits:      splits,
		Partition:   opts.Partition,
		Params:      append([]byte(nil), opts.Params...),
		KeyAligned:  opts.KeyAligned,
		Resident:    opts.Resident,
		Codec:       opts.Codec,
	}, splits)
}

// MapReduce queues a map followed by a reduce; mapOpts.Splits sets the
// number of reduce tasks.
func (j *Job) MapReduce(src *Dataset, mapName, reduceName string, mapOpts, reduceOpts OpOpts) (*Dataset, error) {
	mid, err := j.Map(src, mapName, mapOpts)
	if err != nil {
		return nil, err
	}
	return j.Reduce(mid, reduceName, reduceOpts)
}

// wait blocks until dataset id completes; returns the materialization.
func (j *Job) wait(id int) (*Materialized, error) {
	j.mu.Lock()
	if id < 0 || id >= len(j.states) {
		j.mu.Unlock()
		return nil, fmt.Errorf("core: unknown dataset %d", id)
	}
	st := j.states[id]
	ch := st.done
	j.mu.Unlock()
	<-ch
	j.mu.Lock()
	defer j.mu.Unlock()
	if st.failed {
		if st.err != nil {
			return nil, st.err
		}
		return nil, j.err
	}
	return st.out, nil
}

// Dataset is a handle to a queued (possibly not yet computed) dataset.
type Dataset struct {
	job    *Job
	id     int
	splits int
}

// ID returns the dataset's id (its position in the operation queue).
func (d *Dataset) ID() int { return d.id }

// NumSplits returns the dataset's split count.
func (d *Dataset) NumSplits() int { return d.splits }

// Wait blocks until the dataset has been computed.
func (d *Dataset) Wait() error {
	_, err := d.job.wait(d.id)
	return err
}

// collectWorkers bounds the per-split fetch concurrency in Collect.
const collectWorkers = 8

// Collect waits for the dataset and fetches every record, splits in
// order, each split's buckets in producer order. For reduce outputs
// this yields records sorted by key within each split. Split fetches
// run on a bounded worker pool; the returned order is unaffected.
func (d *Dataset) Collect() ([]kvio.Pair, error) {
	m, err := d.job.wait(d.id)
	if err != nil {
		return nil, err
	}
	if d.job.freeRequested(d.id) {
		return nil, fmt.Errorf("core: dataset %d was freed", d.id)
	}
	store := d.job.exec.Store()
	n := m.NumSplits()
	perSplit := make([][]kvio.Pair, n)
	errs := make([]error, n)
	workers := collectWorkers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	splitCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range splitCh {
				perSplit[s], errs[s] = store.ReadAllMulti(m.URLs(s))
			}
		}()
	}
	for s := 0; s < n; s++ {
		splitCh <- s
	}
	close(splitCh)
	wg.Wait()
	var out []kvio.Pair
	for s := 0; s < n; s++ {
		if errs[s] != nil {
			return nil, errs[s]
		}
		out = append(out, perSplit[s]...)
	}
	return out, nil
}

func (j *Job) freeRequested(id int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.states[id].freeWanted
}

// CollectSorted is Collect with a global bytewise key sort applied,
// convenient for comparing outputs across executors.
func (d *Dataset) CollectSorted() ([]kvio.Pair, error) {
	pairs, err := d.Collect()
	if err != nil {
		return nil, err
	}
	sort.SliceStable(pairs, func(i, k int) bool {
		return bytes.Compare(pairs[i].Key, pairs[k].Key) < 0
	})
	return pairs, nil
}

// DatasetStats summarizes a computed dataset.
type DatasetStats struct {
	Splits  int
	Buckets int
	Records int64
	Bytes   int64
}

// Stats waits for the dataset and reports its physical shape; handy
// for progress reporting and for verifying combiner effectiveness.
func (d *Dataset) Stats() (DatasetStats, error) {
	m, err := d.job.wait(d.id)
	if err != nil {
		return DatasetStats{}, err
	}
	s := DatasetStats{
		Splits:  m.NumSplits(),
		Records: m.Records(),
		Bytes:   m.Bytes(),
	}
	for _, split := range m.Splits {
		s.Buckets += len(split)
	}
	return s, nil
}

// Free releases the dataset's storage without blocking: the intent is
// recorded and storage is reclaimed as soon as the dataset and every
// consumer queued so far have completed. Iterative programs call this
// on datasets from finished iterations; a Free on a still-running
// iteration no longer stalls the driver goroutine.
func (d *Dataset) Free() error {
	j := d.job
	j.mu.Lock()
	st := j.states[d.id]
	st.freeWanted = true
	j.maybeFreeLocked(st)
	j.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Source materialization (shared by all executors)

// MaterializeLocal partitions literal pairs into splits and stores them
// as buckets in the given store, under job's bucket namespace.
func MaterializeLocal(store *bucket.Store, op *Operation, job JobID) (*Materialized, error) {
	parter, err := partition.ByName(op.Partition)
	if err != nil {
		return nil, err
	}
	perSplit := make([][]kvio.Pair, op.Splits)
	for serial, p := range op.LocalPairs {
		s := parter(p.Key, int64(serial), op.Splits)
		if s < 0 || s >= op.Splits {
			return nil, fmt.Errorf("core: partitioner returned split %d of %d", s, op.Splits)
		}
		perSplit[s] = append(perSplit[s], p)
	}
	m := NewMaterialized(op.Splits, FormatKV)
	for s, pairs := range perSplit {
		d, err := store.Put(BucketNameJob(job, op.Dataset, 0, s), pairs)
		if err != nil {
			return nil, err
		}
		if err := m.AddBucket(s, d); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// MaterializeFiles wraps the file paths of an op queued by TextFileData
// as a lines-format dataset: one file:// bucket per file, in path
// order, in the split its packing plan assigned. Paths must be
// accessible to every task executor (shared filesystem), matching the
// paper's cluster assumptions.
func MaterializeFiles(op *Operation) (*Materialized, error) {
	if len(op.fileSplit) != len(op.Paths) {
		return nil, fmt.Errorf("core: file op %d has no packing plan", op.Dataset)
	}
	m := NewMaterialized(op.Splits, FormatLines)
	for i, path := range op.Paths {
		d := bucket.Descriptor{URL: "file://" + path}
		if err := m.AddBucket(op.fileSplit[i], d); err != nil {
			return nil, err
		}
	}
	return m, nil
}
