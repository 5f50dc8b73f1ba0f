package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/bucket"
	"repro/internal/clock"
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
	// TempDir holds external-sort spill files ("" = os.TempDir()). A
	// missing one is made by Store.MkScratch at the first spill.
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
	// 0 selects DefaultPrefetch; 1 disables overlap (one whole-bucket
	// fetch at a time).
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

// newSorter returns a sorter that spills past the env's threshold into
// TempDir, which the store makes at the first spill.
func (env *TaskEnv) newSorter(combine shuffle.CombineFunc) *shuffle.Sorter {
	return shuffle.NewSorter(shuffle.Options{
		SpillBytes:  env.spillBytes(),
		TempDir:     env.TempDir,
		MakeTempDir: env.Store.MkScratch,
		Combine:     combine,
	})
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
	for s := range writers {
		w, err := env.Store.Create(BucketNameJob(spec.Job, op.Dataset, spec.TaskIndex, s))
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
			sorters[s] = env.newSorter(combine)
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
	sorter := env.newSorter(combine)
	defer sorter.Close()
	// KV inputs are read in place: the sorter adopts each block's record
	// run and points into it.
	err = forEachInput(env, spec, st, recordSink{
		fn: func(key, value []byte) error {
			return sorter.Add(kvio.Pair{Key: key, Value: value})
		},
		run: func(run []byte, recs int) error {
			added := sorter.Added()
			n, err := sorter.AddBlock(run, recs)
			st.records += sorter.Added() - added
			st.bytes += n
			return err
		},
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

// forEachInputRecord feeds every record of the task's input split to
// fn, accounting records, bytes, and fetch-blocked time into st. The
// key/value slices passed to fn are read-only, since they may alias a
// published bucket or a resident payload, and valid only during the
// call.
func forEachInputRecord(env *TaskEnv, spec *TaskSpec, st *inputStats, fn func(key, value []byte) error) error {
	return forEachInput(env, spec, st, recordSink{fn: fn})
}

// recordSink is how a task consumes its input. fn receives every
// record, read-only and valid during the call. run, when non-nil,
// takes each KV record run instead, as kvio.WalkRuns hands it over
// (the shuffle sorter's AddBlock adopts it), and charges its records
// and payload bytes to the task's inputStats itself.
type recordSink struct {
	fn  func(key, value []byte) error
	run func(run []byte, recs int) error
}

// forEachInput feeds every bucket of the task's input split to sink in
// URL order, accounting records, payload bytes, and fetch-blocked time
// into st. Each bucket is fetched whole and read where it lies.
// Delivery order never depends on how many fetches are in flight, so
// serial, threaded, and distributed runs remain byte-identical, and
// the narrow-reduce alignment checks are untouched.
func forEachInput(env *TaskEnv, spec *TaskSpec, st *inputStats, sink recordSink) error {
	// KV inputs count decoded key+value payload at the record layer —
	// identical across framings and codecs — and line formats the
	// bucket bytes.
	countPayload := spec.InputFormat == "" || spec.InputFormat == FormatKV
	fn := sink.fn
	sink.fn = func(key, value []byte) error {
		st.records++
		if countPayload {
			st.bytes += int64(len(key) + len(value))
		}
		return fn(key, value)
	}
	if spec.InputFormat == FormatLinesRange {
		// Ranged text inputs open their own file handle to seek;
		// their bytes are charged to compute, not shuffle.
		for _, u := range spec.InputURLs {
			if err := forEachLineRange(u, sink.fn); err != nil {
				return err
			}
		}
		return nil
	}
	if spec.Op.Resident && env.Resident != nil {
		return forEachInputResident(env, spec, st, sink)
	}
	_, err := fetchInputs(env, spec, st, sink, false)
	return err
}

// fetched is one fetched bucket payload or the error that fetching it
// produced.
type fetched struct {
	data []byte
	err  error
}

// fetchInputs fetches the task's input buckets whole (Store.Fetch,
// with its whole-fetch retries) and consumes them in URL order. While
// bucket i is consumed, buckets i+1..i+w-1 of the fetch window w are in
// flight, each delivering into its own single-slot channel; w = 1
// fetches one bucket at a time. Time spent waiting for a fetch is
// charged to st.readNS. With retain set it also returns every fetched
// payload in URL order (the resident cache's miss path).
func fetchInputs(env *TaskEnv, spec *TaskSpec, st *inputStats, sink recordSink, retain bool) ([][]byte, error) {
	clk := env.clk()
	urls := spec.InputURLs
	width := env.prefetchWidth()
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
		if res.err != nil {
			return nil, fmt.Errorf("opening input %s: %w", u, res.err)
		}
		if retain {
			retained = append(retained, res.data)
		}
		before := st.bytes
		err := consume(res.data, spec.InputFormat, sink, st, false)
		env.Obs.M().Add(shuffleMetric(env.Store, u), st.bytes-before)
		if err != nil {
			return nil, err
		}
		if next := i + width; next < len(urls) {
			launch(next)
		}
	}
	return retained, nil
}

// forEachInputResident serves a Resident-marked input split through the
// worker-local cache. A hit replays the previously fetched bucket
// payloads from memory, read in place like a fresh fetch — no store
// traffic, near-zero shuffle wait, and the identical bytes, so record
// order and results cannot differ from a cold read. A miss fetches as
// fetchInputs does, retaining the payloads, and inserts them after the
// task consumed every bucket successfully (a failed task caches
// nothing). An entry is therefore verified once, on the fetch that
// fills it: its blocks passed their CRC there, and nothing writes a
// cached payload, so a hit walks it with every check but the CRC. The
// cache key is (job, input dataset, split); the fetch plan (URL list)
// is stored alongside and must match exactly on lookup, so a changed
// plan — re-executed producers after a slave loss, say — invalidates
// rather than serves stale bytes.
func forEachInputResident(env *TaskEnv, spec *TaskSpec, st *inputStats, sink recordSink) error {
	urls := spec.InputURLs
	key := ResidentKey{Job: spec.Job, Dataset: spec.InputDataset, Split: spec.TaskIndex}
	if payloads, ok := env.Resident.Get(key, urls); ok {
		st.residentHits++
		env.Obs.M().Add(obs.MetricResidentHits, 1)
		for _, data := range payloads {
			if err := consume(data, spec.InputFormat, sink, st, true); err != nil {
				return err
			}
		}
		return nil
	}
	st.residentMisses++
	env.Obs.M().Add(obs.MetricResidentMisses, 1)
	retained, err := fetchInputs(env, spec, st, sink, true)
	if err != nil {
		return err
	}
	env.Resident.Put(key, urls, retained)
	return nil
}

// consume feeds one whole bucket payload to sink where it lies: KV
// blocks through the kvio walker, lines through forEachLine, whose
// bucket bytes it charges to st. verified marks a resident entry's
// payload, whose blocks all passed their CRC on the fetch that cached
// it and have not been written since: it is walked with every check
// but the CRC.
func consume(data []byte, format string, sink recordSink, st *inputStats, verified bool) error {
	switch format {
	case "", FormatKV:
		switch {
		case verified && sink.run != nil:
			return kvio.RewalkRuns(data, sink.run)
		case verified:
			return kvio.Rewalk(data, sink.fn)
		case sink.run != nil:
			return kvio.WalkRuns(data, sink.run)
		}
		return kvio.Walk(data, sink.fn)
	case FormatLines:
		st.bytes += int64(len(data))
		return forEachLine(data, sink.fn)
	}
	return fmt.Errorf("core: unknown input format %q", format)
}

// forEachLine yields (varint line number, line) records of a whole
// text payload, split where it lies. Line numbers start at 1; a line
// excludes its '\n' and up to two '\r' before it, and a final line
// needs no '\n'. The key is encoded into one buffer reused for every
// line, so it is valid only during fn.
func forEachLine(data []byte, fn func(key, value []byte) error) error {
	key := make([]byte, 0, binary.MaxVarintLen64)
	for lineNo := int64(1); len(data) > 0; lineNo++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		for trim := 0; trim < 2 && len(line) > 0 && line[len(line)-1] == '\r'; trim++ {
			line = line[:len(line)-1]
		}
		if err := fn(binary.AppendVarint(key[:0], lineNo), line[:len(line):len(line)]); err != nil {
			return err
		}
	}
	return nil
}
