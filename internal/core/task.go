package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/bucket"
	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/shuffle"
)

// DefaultSpillBytes is the default reduce-side external-sort threshold.
const DefaultSpillBytes = 256 << 20

// TaskEnv carries the per-process resources a task needs. Both local
// executors and slave processes construct one.
type TaskEnv struct {
	// Store creates output buckets and resolves input URLs.
	Store *bucket.Store
	// Reg resolves function names.
	Reg *Registry
	// TempDir holds external-sort spill files ("" = os.TempDir()).
	TempDir string
	// SpillBytes overrides the external-sort threshold (0 = default).
	SpillBytes int64
	// Clock stamps task timings (nil = wall clock). Tests inject a fake
	// clock so trace output is deterministic.
	Clock clock.Clock
	// Obs receives task-engine counters (tasks executed, shuffle bytes
	// by data path). Nil disables metrics at zero cost.
	Obs *obs.Runtime
	// Prefetch is the input-fetch window: while bucket i is being
	// consumed, buckets i+1..i+Prefetch-1 are fetched concurrently.
	// 0 selects DefaultPrefetch; 1 disables overlap (sequential
	// streaming, the pre-prefetch behavior).
	Prefetch int
	// Resident is the worker-local resident dataset cache serving
	// Resident-marked input splits from memory (nil disables). Slaves
	// share one cache across all job environments; local executors own
	// one per process.
	Resident *ResidentCache
}

// DefaultPrefetch is the input-fetch window when TaskEnv.Prefetch is 0.
// Wide enough to hide one slow peer behind several fast ones, narrow
// enough that a reduce task buffers only a few map buckets.
const DefaultPrefetch = 4

func (env *TaskEnv) prefetchWidth() int {
	if env.Prefetch > 0 {
		return env.Prefetch
	}
	return DefaultPrefetch
}

func (env *TaskEnv) spillBytes() int64 {
	if env.SpillBytes > 0 {
		return env.SpillBytes
	}
	return DefaultSpillBytes
}

func (env *TaskEnv) clk() clock.Clock {
	if env.Clock != nil {
		return env.Clock
	}
	return clock.Real{}
}

// TaskSpec fully describes one task; it is what travels from the master
// to a slave.
type TaskSpec struct {
	// Op is the operation this task belongs to.
	Op *Operation
	// Job is the namespace the task runs in: its output buckets are
	// created under this job's prefix, and the distributed runtime uses
	// it for per-job scheduling, working dirs, and GC. 0 is the default
	// single-job namespace.
	Job JobID
	// TraceID identifies this task in the observability layer; it is
	// issued by the Job driver's tracer at submit time and travels with
	// the task (over RPC in the distributed runtime). 0 = untraced.
	TraceID int64
	// TaskIndex is the task's index within the operation (== the input
	// split it consumes).
	TaskIndex int
	// InputDataset is the id of the dataset the consumed split belongs
	// to (Op.Input as the driver saw it). It travels to slaves — which
	// otherwise never learn dataset identities — because it is one third
	// of the resident-cache key (job, input dataset, split).
	InputDataset int
	// InputURLs are the buckets making up the consumed split, in
	// producer-task order.
	InputURLs []string
	// InputFormat is the split's record format (FormatKV or FormatLines).
	InputFormat string
	// Then lists the fused members of a narrow reduce task: map tasks
	// that consume the reduce's own output split, run in this order
	// right after it in the same attempt. A member shares the head's
	// Job and TaskIndex; ExecTask fills in its input plan (InputURLs
	// and InputFormat) from the head's outputs when it runs.
	Then []*TaskSpec
}

// TaskResult reports a finished task's output buckets, one per output
// split.
type TaskResult struct {
	Dataset   int
	TaskIndex int
	Outputs   []bucket.Descriptor
	// Timing is the attempt's measured cost breakdown, filled by
	// ExecTask on the process that ran the task.
	Timing obs.Timing
	// Then holds the fused members' results, in TaskSpec.Then order.
	Then []*TaskResult
}

// ExecTask runs a task and then its fused members, each member reading
// the head's own output split from the local store. A member error
// fails the whole attempt. On success every result carries its own
// Timing breakdown: total wall time, time blocked reading input
// buckets (shuffle), and input/output byte and record counts.
func ExecTask(env *TaskEnv, spec *TaskSpec) (*TaskResult, error) {
	res, err := execOne(env, spec)
	if err != nil || len(spec.Then) == 0 {
		return res, err
	}
	t := spec.TaskIndex
	if !spec.Op.Narrow || t >= len(res.Outputs) {
		return nil, fmt.Errorf("core: op %d task %d: fused members need a narrow head", spec.Op.Dataset, t)
	}
	// A narrow reduce's other buckets for its own split are provably
	// empty, so this is the plan Job.inputURLsLocked builds for the
	// split once the head has published.
	var urls []string
	if d := res.Outputs[t]; !provablyEmpty(FormatKV, d) {
		urls = []string{d.URL}
	}
	res.Then = make([]*TaskResult, len(spec.Then))
	for i, m := range spec.Then {
		member := *m
		member.InputURLs, member.InputFormat = urls, FormatKV
		mres, err := execOne(env, &member)
		if err != nil {
			return nil, err
		}
		res.Then[i] = mres
	}
	return res, nil
}

// StartSpans opens the attempt's trace span for a task and for each of
// its fused members.
func StartSpans(tr *obs.Tracer, spec *TaskSpec, attempt int, worker string) {
	tr.TaskStarted(spec.TraceID, attempt, worker)
	for _, m := range spec.Then {
		tr.TaskStarted(m.TraceID, attempt, worker)
	}
}

// FinishSpans closes the spans StartSpans opened: with each result's
// own timing on success (res non-nil), or with errMsg otherwise.
func FinishSpans(tr *obs.Tracer, spec *TaskSpec, attempt int, worker string, res *TaskResult, errMsg string) {
	var tm obs.Timing
	if res != nil {
		tm = res.Timing
	}
	tr.TaskFinished(spec.TraceID, attempt, worker, tm, errMsg)
	for i, m := range spec.Then {
		tm = obs.Timing{}
		if res != nil && i < len(res.Then) && res.Then[i] != nil {
			tm = res.Then[i].Timing
		}
		tr.TaskFinished(m.TraceID, attempt, worker, tm, errMsg)
	}
}

// execOne runs a single task, dispatching on the operation kind.
func execOne(env *TaskEnv, spec *TaskSpec) (*TaskResult, error) {
	clk := env.clk()
	start := clk.Now()
	st := &inputStats{}
	var res *TaskResult
	var err error
	switch spec.Op.Kind {
	case OpMap:
		res, err = execMapTask(env, spec, st)
	case OpReduce:
		res, err = execReduceTask(env, spec, st)
	default:
		return nil, fmt.Errorf("core: cannot execute %s operation as a task", spec.Op.Kind)
	}
	env.Obs.M().Add("mrs_tasks_executed_total", 1)
	if err != nil {
		env.Obs.M().Add("mrs_task_errors_total", 1)
		return nil, err
	}
	res.Timing = obs.Timing{
		WallNS:         clk.Now().Sub(start).Nanoseconds(),
		ShuffleNS:      st.readNS,
		InBytes:        st.bytes,
		InRecords:      st.records,
		ResidentHits:   st.residentHits,
		ResidentMisses: st.residentMisses,
	}
	for _, d := range res.Outputs {
		res.Timing.OutBytes += d.Bytes
		res.Timing.OutRecords += d.Records
	}
	return res, nil
}

// inputStats accumulates what a task consumed: bytes and records read,
// the wall time spent blocked inside Read calls on input streams (the
// task's shuffle cost), and resident-cache lookup outcomes.
type inputStats struct {
	bytes   int64
	records int64
	readNS  int64
	// residentHits/residentMisses record the task's resident-cache
	// lookup (at most one per task; both zero off the resident path).
	residentHits   int64
	residentMisses int64
}

// timedReader wraps an input stream, charging each Read's wall time to
// st. Granularity is one Read call (typically a bufio fill, ~64 KiB),
// which keeps clock overhead negligible relative to the I/O being
// measured. count adds stream bytes to st.bytes as well; it is set for
// line-oriented formats, where the stream is the payload. KV formats
// count decoded key+value payload at the record layer instead, so the
// raw-byte stats stay framing- and codec-independent.
type timedReader struct {
	r     io.Reader
	clk   clock.Clock
	st    *inputStats
	count bool
}

func (t *timedReader) Read(p []byte) (int, error) {
	begin := t.clk.Now()
	n, err := t.r.Read(p)
	t.st.readNS += t.clk.Now().Sub(begin).Nanoseconds()
	if t.count {
		t.st.bytes += int64(n)
	}
	return n, err
}

// shuffleMetric classifies an input URL by data path: direct
// slave-to-slave HTTP, shared-directory files, or buckets the store
// reads in-process (memory stores, and its own http buckets).
func shuffleMetric(store *bucket.Store, u string) string {
	switch {
	case store.Local(u):
		return "mrs_shuffle_bytes_local_total"
	case strings.HasPrefix(u, "http://"), strings.HasPrefix(u, "https://"):
		return "mrs_shuffle_bytes_direct_total"
	case strings.HasPrefix(u, "file://"):
		return "mrs_shuffle_bytes_shared_total"
	default:
		return "mrs_shuffle_bytes_local_total"
	}
}

// partitionedEmitter routes emitted records into per-split bucket writers.
type partitionedEmitter struct {
	parter  partition.Func
	splits  int
	serial  int64
	writers []*bucket.Writer
	// ownSplit, when >= 0, enforces the narrow-reduce alignment
	// promise: every emitted record must route to this split (the
	// task's own index). Downstream tasks may already be consuming the
	// task's split, so a violation must fail the task rather than
	// silently scatter records the scheduler assumed were aligned.
	ownSplit int
}

func (e *partitionedEmitter) Emit(key, value []byte) error {
	s := e.parter(key, e.serial, e.splits)
	e.serial++
	if s < 0 || s >= e.splits {
		return fmt.Errorf("core: partitioner returned split %d of %d", s, e.splits)
	}
	if e.ownSplit >= 0 && s != e.ownSplit {
		return fmt.Errorf("core: key-aligned reduce emitted key %q routing to split %d, not its own split %d",
			key, s, e.ownSplit)
	}
	return e.writers[s].Emit(key, value)
}

// sortingEmitter routes emitted records into per-split sorters: the
// map-side combine. Add copies into the sorter's arena, so the caller
// may reuse its slices once Emit returns.
func sortingEmitter(parter partition.Func, sorters []*shuffle.Sorter) kvio.FuncEmitter {
	var serial int64
	return func(key, value []byte) error {
		s := parter(key, serial, len(sorters))
		serial++
		if s < 0 || s >= len(sorters) {
			return fmt.Errorf("core: partitioner returned split %d of %d", s, len(sorters))
		}
		return sorters[s].Add(kvio.Pair{Key: key, Value: value})
	}
}

// makeWriters creates the output bucket writers for a task, in the
// task's job namespace.
func makeWriters(env *TaskEnv, spec *TaskSpec) ([]*bucket.Writer, error) {
	op := spec.Op
	writers := make([]*bucket.Writer, op.Splits)
	opts := bucket.CreateOpts{Codec: op.Codec}
	for s := range writers {
		w, err := env.Store.CreateOpts(BucketNameJob(spec.Job, op.Dataset, spec.TaskIndex, s), opts)
		if err != nil {
			return nil, err
		}
		writers[s] = w
	}
	return writers, nil
}

// closeWriters finalizes all writers, collecting descriptors.
func closeWriters(writers []*bucket.Writer) ([]bucket.Descriptor, error) {
	descs := make([]bucket.Descriptor, len(writers))
	for i, w := range writers {
		d, err := w.Close()
		if err != nil {
			return nil, err
		}
		descs[i] = d
	}
	return descs, nil
}

func execMapTask(env *TaskEnv, spec *TaskSpec, st *inputStats) (*TaskResult, error) {
	op := spec.Op
	mapFn, err := env.Reg.Map(op.FuncName, op.Params)
	if err != nil {
		return nil, err
	}
	parter, err := partition.ByName(op.Partition)
	if err != nil {
		return nil, err
	}
	writers, err := makeWriters(env, spec)
	if err != nil {
		return nil, err
	}

	if op.CombineName == "" {
		// Direct path: emitted records go straight to their bucket.
		emit := &partitionedEmitter{parter: parter, splits: op.Splits, writers: writers, ownSplit: -1}
		err = forEachInputRecord(env, spec, st, func(key, value []byte) error {
			return mapFn(key, value, emit)
		})
		if err != nil {
			return nil, fmt.Errorf("core: map task %d of ds%d: %w", spec.TaskIndex, op.Dataset, err)
		}
	} else {
		// Combining path: per-split sorters apply the combiner before
		// records are written (map-side combine).
		combineFn, cerr := env.Reg.Reduce(op.CombineName, op.Params)
		if cerr != nil {
			return nil, cerr
		}
		combine := CombineAdapter(combineFn)
		sorters := make([]*shuffle.Sorter, op.Splits)
		for s := range sorters {
			sorters[s] = shuffle.NewSorter(shuffle.Options{
				SpillBytes: env.spillBytes(),
				TempDir:    env.TempDir,
				Combine:    combine,
			})
			defer sorters[s].Close()
		}
		emit := sortingEmitter(parter, sorters)
		err = forEachInputRecord(env, spec, st, func(key, value []byte) error {
			return mapFn(key, value, emit)
		})
		if err != nil {
			return nil, fmt.Errorf("core: map task %d of ds%d: %w", spec.TaskIndex, op.Dataset, err)
		}
		for s, sorter := range sorters {
			countSortForm(env, sorter)
			w := writers[s]
			err := sorter.Groups(func(key []byte, values [][]byte) error {
				for _, v := range values {
					if werr := w.Emit(key, v); werr != nil {
						return werr
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}

	outputs, err := closeWriters(writers)
	if err != nil {
		return nil, err
	}
	return &TaskResult{Dataset: op.Dataset, TaskIndex: spec.TaskIndex, Outputs: outputs}, nil
}

// countSortForm charges a fed sorter's records to the counter of its
// in-memory form, and its folds so far to the fold counter.
func countSortForm(env *TaskEnv, s *shuffle.Sorter) {
	name := obs.MetricSortGrouped
	if s.Indexed() {
		name = obs.MetricSortIndexed
	}
	env.Obs.M().Add(name, s.Added())
	env.Obs.M().Add(obs.MetricSortFolds, s.Folds())
}

func execReduceTask(env *TaskEnv, spec *TaskSpec, st *inputStats) (*TaskResult, error) {
	op := spec.Op
	reduceFn, err := env.Reg.Reduce(op.FuncName, op.Params)
	if err != nil {
		return nil, err
	}
	parter, err := partition.ByName(op.Partition)
	if err != nil {
		return nil, err
	}
	var combine shuffle.CombineFunc
	if op.CombineName != "" {
		combineFn, cerr := env.Reg.Reduce(op.CombineName, op.Params)
		if cerr != nil {
			return nil, cerr
		}
		combine = CombineAdapter(combineFn)
	}
	sorter := shuffle.NewSorter(shuffle.Options{
		SpillBytes: env.spillBytes(),
		TempDir:    env.TempDir,
		Combine:    combine,
	})
	defer sorter.Close()
	// Legacy-framed inputs: Add copies into the sorter's arena, so the
	// iterator's shared buffers can be handed over directly.
	// Block-framed inputs: the whole decoded block is adopted by the
	// sorter and records alias into it — one decode, zero copies.
	err = forEachInput(env, spec, st, recordSink{
		fn: func(key, value []byte) error {
			return sorter.Add(kvio.Pair{Key: key, Value: value})
		},
		block: sorter.AddBlock,
	})
	if err != nil {
		return nil, fmt.Errorf("core: reduce task %d of ds%d (input): %w", spec.TaskIndex, op.Dataset, err)
	}
	countSortForm(env, sorter)

	writers, err := makeWriters(env, spec)
	if err != nil {
		return nil, err
	}
	ownSplit := -1
	if op.Narrow {
		ownSplit = spec.TaskIndex
	}
	emit := &partitionedEmitter{parter: parter, splits: op.Splits, writers: writers, ownSplit: ownSplit}
	err = sorter.Groups(func(key []byte, values [][]byte) error {
		return reduceFn(key, values, emit)
	})
	if err != nil {
		return nil, fmt.Errorf("core: reduce task %d of ds%d: %w", spec.TaskIndex, op.Dataset, err)
	}
	outputs, err := closeWriters(writers)
	if err != nil {
		return nil, err
	}
	return &TaskResult{Dataset: op.Dataset, TaskIndex: spec.TaskIndex, Outputs: outputs}, nil
}

// CombineAdapter turns a reduce function into a shuffle combiner. Per
// the combiner contract, emitted keys must equal the group key; only
// the values are retained. The returned values share one buffer that
// the next call reuses, which shuffle.CombineFunc allows, so a combiner
// called once per fold allocates only as its output grows; the
// combiner serves one task's sorters, one call at a time.
func CombineAdapter(fn ReduceFunc) shuffle.CombineFunc {
	var e combineEmitter
	return func(key []byte, values [][]byte) ([][]byte, error) {
		e.key, e.buf, e.ends, e.err = key, e.buf[:0], e.ends[:0], nil
		if err := fn(key, values, &e); err != nil {
			return nil, err
		}
		if e.err != nil {
			return nil, e.err
		}
		e.out = e.out[:0]
		start := 0
		for _, end := range e.ends {
			e.out = append(e.out, e.buf[start:end:end])
			start = end
		}
		return e.out, nil
	}
}

// combineEmitter collects a combiner's values back to back in buf.
type combineEmitter struct {
	key  []byte
	buf  []byte
	ends []int // each value's end offset in buf
	out  [][]byte
	err  error // the first changed key, in case fn drops Emit's error
}

func (e *combineEmitter) Emit(key, value []byte) error {
	if !bytes.Equal(key, e.key) {
		if e.err == nil {
			e.err = fmt.Errorf("core: combiner changed key %q to %q", e.key, key)
		}
		return e.err
	}
	e.buf = append(e.buf, value...)
	e.ends = append(e.ends, len(e.buf))
	return nil
}

// forEachInputRecord streams every record of the task's input split,
// accounting records, bytes, and read-blocked time into st. The
// key/value slices passed to fn are only valid during the call; fn must
// not retain them.
//
// When the fetch window is wider than 1 and the split spans several
// buckets, upcoming buckets are fetched concurrently while the current
// one is consumed. Delivery stays strictly in URL order — parallelism
// changes only *when* bytes move, never the record sequence fn sees —
// so serial, threaded, and distributed runs remain byte-identical, and
// the narrow-reduce alignment checks are untouched.
func forEachInputRecord(env *TaskEnv, spec *TaskSpec, st *inputStats, fn func(key, value []byte) error) error {
	return forEachInput(env, spec, st, recordSink{fn: fn})
}

// recordSink is how a task consumes one input stream. fn receives every
// record, with the usual shared-buffer lifetime. block, when non-nil
// and the stream arrives block-framed, receives whole decoded record
// blocks instead — ownership of the buffer transfers to the sink
// (kvio.BlockReader.NextBlock's contract) and it returns the summed
// key+value payload bytes it consumed. That is the zero-copy handoff
// into the shuffle sorter; streams in any other framing fall back to
// fn, so a sink always sees every record exactly once either way.
type recordSink struct {
	fn    func(key, value []byte) error
	block func(block []byte, recs int) (int64, error)
}

// forEachInput streams every input split of the task into sink,
// accounting records, payload bytes, and read-blocked time into st.
func forEachInput(env *TaskEnv, spec *TaskSpec, st *inputStats, sink recordSink) error {
	// KV streams count decoded key+value payload here at the record
	// layer — identical across legacy framing, block framing, and every
	// codec — while line formats count stream bytes in the timedReader.
	countPayload := spec.InputFormat == "" || spec.InputFormat == FormatKV
	inner := sink
	sink.fn = func(key, value []byte) error {
		st.records++
		if countPayload {
			st.bytes += int64(len(key) + len(value))
		}
		return inner.fn(key, value)
	}
	if inner.block != nil {
		sink.block = func(block []byte, recs int) (int64, error) {
			n, err := inner.block(block, recs)
			st.records += int64(recs)
			if countPayload {
				st.bytes += n
			}
			return n, err
		}
	}
	clk := env.clk()
	if spec.Op.Resident && env.Resident != nil && spec.InputFormat != FormatLinesRange {
		return forEachInputResident(env, spec, st, sink, countPayload)
	}
	if w := env.prefetchWidth(); w > 1 && len(spec.InputURLs) > 1 && spec.InputFormat != FormatLinesRange {
		_, err := forEachInputPrefetched(env, spec, st, sink, w, countPayload, false)
		return err
	}
	for _, u := range spec.InputURLs {
		if spec.InputFormat == FormatLinesRange {
			// Ranged text inputs open their own file handle to seek;
			// their bytes are charged to compute, not shuffle.
			if err := forEachLineRange(u, sink.fn); err != nil {
				return err
			}
			continue
		}
		// The Open itself blocks on the remote request round trip, so it
		// is shuffle wait just like the Reads that follow (and just like
		// the prefetched path, which charges whole-fetch waits).
		begin := clk.Now()
		rc, err := env.Store.Open(u)
		st.readNS += clk.Now().Sub(begin).Nanoseconds()
		if err != nil {
			return fmt.Errorf("opening input %s: %w", u, err)
		}
		before := st.bytes
		tr := &timedReader{r: rc, clk: clk, st: st, count: !countPayload}
		ferr := consumeStream(tr, spec.InputFormat, sink)
		cerr := rc.Close()
		env.Obs.M().Add(shuffleMetric(env.Store, u), st.bytes-before)
		if ferr != nil {
			return ferr
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}

// fetched is one prefetched bucket payload (decoded record-stream
// bytes) or the error that fetching it produced.
type fetched struct {
	data []byte
	err  error
}

// forEachInputPrefetched is the parallel-fetch path: a window of
// width whole-bucket fetches is kept in flight, each delivering into
// its own single-slot channel so results arrive in URL order. The time
// spent waiting for bucket i (its fetch not yet complete) is charged to
// st.readNS — the same "blocked on input" semantics the streaming path
// measures — while the raw byte and per-path metrics accounting is
// unchanged. Each fetch runs through Store.Fetch, so per-fetch retries
// and fault-injection hooks apply exactly as they do when streaming;
// a fetch that dies mid-body is retried whole rather than surfacing a
// truncated stream. With retain set it also returns every fetched
// payload in URL order (the resident cache's miss path); otherwise a
// payload is released as soon as it is consumed.
func forEachInputPrefetched(env *TaskEnv, spec *TaskSpec, st *inputStats, sink recordSink, width int, countPayload, retain bool) ([][]byte, error) {
	clk := env.clk()
	urls := spec.InputURLs
	results := make([]chan fetched, len(urls))
	launch := func(i int) {
		// Buffered: if the consumer aborts early, in-flight fetches park
		// their result and exit instead of leaking.
		ch := make(chan fetched, 1)
		results[i] = ch
		u := urls[i]
		go func() {
			data, err := env.Store.Fetch(u)
			ch <- fetched{data: data, err: err}
		}()
	}
	for i := 0; i < width && i < len(urls); i++ {
		launch(i)
	}
	var retained [][]byte
	if retain {
		retained = make([][]byte, 0, len(urls))
	}
	for i, u := range urls {
		begin := clk.Now()
		res := <-results[i]
		st.readNS += clk.Now().Sub(begin).Nanoseconds()
		results[i] = nil
		if next := i + width; next < len(urls) {
			launch(next)
		}
		if res.err != nil {
			return nil, fmt.Errorf("opening input %s: %w", u, res.err)
		}
		if retain {
			retained = append(retained, res.data)
		}
		before := st.bytes
		// The timedReader keeps accounting identical to the streaming
		// path; reads from memory add ~nothing to readNS.
		tr := &timedReader{r: bytes.NewReader(res.data), clk: clk, st: st, count: !countPayload}
		ferr := consumeStream(tr, spec.InputFormat, sink)
		env.Obs.M().Add(shuffleMetric(env.Store, u), st.bytes-before)
		if ferr != nil {
			return nil, ferr
		}
	}
	return retained, nil
}

// forEachInputResident serves a Resident-marked input split through the
// worker-local cache. A hit replays the previously fetched bucket
// payloads from memory — no store traffic, near-zero shuffle wait, and
// the identical byte stream the fetch produced, so record order and
// results cannot differ from a cold read. A miss runs the windowed
// whole-bucket fetch of the prefetched path, retaining the payloads,
// and inserts them after the task consumed every bucket successfully (a
// failed task caches nothing). The cache key is (job, input dataset,
// split); the fetch plan (URL list) is stored alongside and must match
// exactly on lookup, so a changed plan — re-executed producers after a
// slave loss, say — invalidates rather than serves stale bytes.
func forEachInputResident(env *TaskEnv, spec *TaskSpec, st *inputStats, sink recordSink, countPayload bool) error {
	clk := env.clk()
	urls := spec.InputURLs
	key := ResidentKey{Job: spec.Job, Dataset: spec.InputDataset, Split: spec.TaskIndex}
	if payloads, ok := env.Resident.Get(key, urls); ok {
		st.residentHits++
		env.Obs.M().Add(obs.MetricResidentHits, 1)
		for _, data := range payloads {
			tr := &timedReader{r: bytes.NewReader(data), clk: clk, st: st, count: !countPayload}
			if err := consumeStream(tr, spec.InputFormat, sink); err != nil {
				return err
			}
		}
		return nil
	}
	st.residentMisses++
	env.Obs.M().Add(obs.MetricResidentMisses, 1)
	retained, err := forEachInputPrefetched(env, spec, st, sink, env.prefetchWidth(), countPayload, true)
	if err != nil {
		return err
	}
	env.Resident.Put(key, urls, retained)
	return nil
}

// consumeStream dispatches one bucket stream to the format's iterator.
func consumeStream(r io.Reader, format string, sink recordSink) error {
	switch format {
	case "", FormatKV:
		return consumeKVStream(r, sink)
	case FormatLines:
		return forEachLine(r, sink.fn)
	default:
		return fmt.Errorf("core: unknown input format %q", format)
	}
}

// consumeKVStream reads a KV bucket stream in either framing — the
// sniffing reader accepts legacy per-record streams and block streams
// alike, so mixed-version inputs within one task are fine. When the
// stream is block-framed and the sink takes blocks, whole decoded
// blocks are handed over without touching individual records.
func consumeKVStream(r io.Reader, sink recordSink) error {
	kr := kvio.NewAnyReader(r)
	defer kr.Release()
	if br, ok := kr.(*kvio.BlockReader); ok && sink.block != nil {
		for {
			blk, recs, err := br.NextBlock()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if _, err := sink.block(blk, recs); err != nil {
				return err
			}
		}
	}
	for {
		// Records go through the reader's shared buffer: the sink does
		// not retain its arguments, and this halves per-record
		// allocations.
		p, err := kr.ReadShared()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := sink.fn(p.Key, p.Value); err != nil {
			return err
		}
	}
}

// forEachLine yields (varint line number, line) records; line numbers
// start at 1 and lines exclude the trailing newline (and any '\r').
func forEachLine(r io.Reader, fn func(key, value []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	lineNo := int64(0)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if err := fn(codec.EncodeVarint(lineNo), line); err != nil {
			return err
		}
	}
	return sc.Err()
}
