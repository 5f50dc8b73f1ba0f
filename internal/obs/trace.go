package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
)

// Timing is the per-task-attempt cost breakdown measured by the task
// engine (core.ExecTask) on whichever process ran the task; in the
// distributed runtime it travels back to the master in the task's
// report.
type Timing struct {
	// WallNS is the attempt's total execution wall time.
	WallNS int64
	// ShuffleNS is the portion of WallNS spent blocked in Read calls on
	// input buckets — the data-plane (shuffle) cost. Compute time is
	// WallNS - ShuffleNS.
	ShuffleNS int64
	// InBytes/InRecords count the consumed input split.
	InBytes   int64
	InRecords int64
	// OutBytes/OutRecords count the produced output buckets.
	OutBytes   int64
	OutRecords int64
	// ResidentHits/ResidentMisses count resident-cache lookups for the
	// attempt's input split (at most one lookup per task; both zero for
	// non-Resident operations). Aggregated per op they yield the warm
	// hit rate iterative programs are tuned by.
	ResidentHits   int64
	ResidentMisses int64
}

// Span is one task attempt's lifecycle: submit (driver queued it),
// start (a worker or slave began executing), end (result or error
// reported). Retried tasks produce one span per attempt.
type Span struct {
	TraceID int64
	// Job is the namespace the task ran in (0 = the default single
	// job). Concurrent jobs traced by one tracer export as separate
	// Chrome-trace processes so their timelines do not interleave.
	Job     int64
	Dataset int
	Task    int
	Kind    string // "map" / "reduce"
	Func    string
	Attempt int
	Worker  string
	Submit  time.Time
	Start   time.Time
	End     time.Time
	Timing  Timing
	Err     string // "" on success
}

type spanKey struct {
	id      int64
	attempt int
	worker  string
}

// Tracer records task spans. All methods are nil-safe no-ops, so
// instrumentation can run unconditionally; IDs issued by a nil tracer
// are 0 and 0-IDs are ignored on the start/finish side.
type Tracer struct {
	mu     sync.Mutex
	clk    clock.Clock
	base   time.Time
	nextID int64
	subs   map[int64]*Span // submitted, not yet started (template span)
	open   map[spanKey]*Span
	done   []*Span
}

// NewTracer returns a Tracer stamping events from clk (nil = wall
// clock). The first timestamp taken becomes the trace's time origin.
func NewTracer(clk clock.Clock) *Tracer {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Tracer{
		clk:  clk,
		base: clk.Now(),
		subs: map[int64]*Span{},
		open: map[spanKey]*Span{},
	}
}

// TaskSubmitted records that the driver queued a task and returns its
// trace ID (which travels with the TaskSpec, over RPC if need be).
// Returns 0 on a nil tracer. The span lands in the default job-0
// namespace; multi-tenant drivers use TaskSubmittedJob.
func (t *Tracer) TaskSubmitted(dataset, task int, kind, fn string) int64 {
	return t.TaskSubmittedJob(0, dataset, task, kind, fn)
}

// TaskSubmittedJob is TaskSubmitted within a job's trace namespace:
// the span remembers the job, and the Chrome-trace export gives each
// job its own process lane.
func (t *Tracer) TaskSubmittedJob(job int64, dataset, task int, kind, fn string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	t.subs[id] = &Span{
		TraceID: id,
		Job:     job,
		Dataset: dataset,
		Task:    task,
		Kind:    kind,
		Func:    fn,
		Submit:  t.clk.Now(),
	}
	return id
}

// TaskStarted records that attempt `attempt` of task `id` began
// executing on the named worker (a local pool worker or a slave).
// Spans are keyed by (id, attempt, worker), and each worker is its own
// trace lane.
func (t *Tracer) TaskStarted(id int64, attempt int, worker string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tmpl, ok := t.subs[id]
	if !ok {
		return
	}
	sp := *tmpl // copy submit-time fields; retries share them
	sp.Attempt = attempt
	sp.Worker = worker
	sp.Start = t.clk.Now()
	t.open[spanKey{id, attempt, worker}] = &sp
}

// TaskFinished closes the span for attempt `attempt` of task `id` on
// the named worker with its measured timing and error ("" on success).
// Unknown (never started) spans are ignored, which makes finish paths
// idempotent.
func (t *Tracer) TaskFinished(id int64, attempt int, worker string, tm Timing, errMsg string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.open[spanKey{id, attempt, worker}]
	if !ok {
		return
	}
	delete(t.open, spanKey{id, attempt, worker})
	sp.End = t.clk.Now()
	sp.Timing = tm
	sp.Err = errMsg
	t.done = append(t.done, sp)
}

// Spans returns a copy of every finished span, in the deterministic
// export order (job, dataset, task, attempt, worker).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.done))
	for i, sp := range t.done {
		out[i] = *sp
	}
	t.mu.Unlock()
	sortSpans(out)
	return out
}

// NumSpans returns the number of finished spans.
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// sortSpans orders spans by logical identity, not by trace ID: trace
// IDs are issued in submission order, which under a concurrent
// scheduler depends on goroutine interleaving, while (dataset, task,
// attempt) is a property of the job itself. With a fake clock (all
// timestamps equal) this makes trace output byte-identical across
// runs on a single-worker executor.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, k int) bool {
		a, b := spans[i], spans[k]
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.Dataset != b.Dataset {
			return a.Dataset < b.Dataset
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		return a.Worker < b.Worker
	})
}

// ---------------------------------------------------------------------------
// Chrome trace-event export

// chromeEvent is one entry of the Chrome trace-event JSON format
// (ph "X" = complete event, ph "M" = metadata). Field order is fixed by
// the struct, so marshaling is deterministic.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   int64       `json:"ts"`
	Dur  *int64      `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Dataset    int    `json:"dataset"`
	Task       int    `json:"task"`
	Attempt    int    `json:"attempt"`
	Func       string `json:"func,omitempty"`
	Worker     string `json:"worker,omitempty"`
	ScheduleUS int64  `json:"schedule_us"`
	WallUS     int64  `json:"wall_us"`
	ShuffleUS  int64  `json:"shuffle_us"`
	InBytes    int64  `json:"in_bytes"`
	InRecords  int64  `json:"in_records"`
	OutBytes   int64  `json:"out_bytes"`
	OutRecords int64  `json:"out_records"`
	// Resident-cache annotations; omitted for non-Resident tasks so
	// pre-residency traces stay byte-identical.
	ResidentHits   int64  `json:"resident_hits,omitempty"`
	ResidentMisses int64  `json:"resident_misses,omitempty"`
	Error          string `json:"error,omitempty"`
}

type chromeWhoIs struct {
	Name string `json:"name"`
}

// metaEvent mirrors chromeEvent for ph "M" rows, whose args carry a
// single name string instead of task details.
type metaEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   int64       `json:"ts"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args chromeWhoIs `json:"args"`
}

// WriteChromeTrace exports every finished span as Chrome trace-event
// JSON ({"traceEvents": [...]}), loadable in chrome://tracing and
// Perfetto. One ph "X" (complete) event is emitted per task attempt —
// so the X-event count equals the number of task executions — plus ph
// "M" metadata naming each job's process lane and each worker thread
// lane. Each job exports as its own process (pid = job id, the default
// job as pid 0), so concurrent jobs' timelines never interleave.
// Timestamps are microseconds relative to the tracer's creation.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	spans := t.Spans()
	t.mu.Lock()
	base := t.base
	t.mu.Unlock()

	// Stable worker → tid assignment from the sorted worker-name set
	// (shared across jobs so a slave keeps one lane number everywhere),
	// and the sorted set of job ids for the process metadata.
	workerSet := map[string]bool{}
	jobSet := map[int64]map[string]bool{}
	for _, sp := range spans {
		workerSet[sp.Worker] = true
		if jobSet[sp.Job] == nil {
			jobSet[sp.Job] = map[string]bool{}
		}
		jobSet[sp.Job][sp.Worker] = true
	}
	workers := make([]string, 0, len(workerSet))
	for wname := range workerSet {
		workers = append(workers, wname)
	}
	sort.Strings(workers)
	tid := map[string]int{}
	for i, wname := range workers {
		tid[wname] = i + 1
	}
	jobs := make([]int64, 0, len(jobSet))
	for job := range jobSet {
		jobs = append(jobs, job)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i] < jobs[k] })
	if len(jobs) == 0 {
		jobs = []int64{0}
	}

	var buf []byte
	buf = append(buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			buf = append(buf, ',', '\n')
		}
		first = false
		buf = append(buf, b...)
		return nil
	}

	for _, job := range jobs {
		name := "mrs job"
		if job != 0 {
			name = fmt.Sprintf("mrs job %d", job)
		}
		if err := emit(metaEvent{Name: "process_name", Ph: "M", Pid: int(job), Args: chromeWhoIs{Name: name}}); err != nil {
			return err
		}
		for _, wname := range workers {
			if !jobSet[job][wname] {
				continue
			}
			if err := emit(metaEvent{Name: "thread_name", Ph: "M", Pid: int(job), Tid: tid[wname], Args: chromeWhoIs{Name: wname}}); err != nil {
				return err
			}
		}
	}
	for _, sp := range spans {
		ts := sp.Start.Sub(base).Microseconds()
		dur := sp.End.Sub(sp.Start).Microseconds()
		if dur < 0 {
			dur = 0
		}
		sched := sp.Start.Sub(sp.Submit).Microseconds()
		if sched < 0 {
			sched = 0
		}
		ev := chromeEvent{
			Name: fmt.Sprintf("ds%d/t%d %s(%s)", sp.Dataset, sp.Task, sp.Kind, sp.Func),
			Cat:  sp.Kind,
			Ph:   "X",
			Ts:   ts,
			Dur:  &dur,
			Pid:  int(sp.Job),
			Tid:  tid[sp.Worker],
			Args: &chromeArgs{
				Dataset:        sp.Dataset,
				Task:           sp.Task,
				Attempt:        sp.Attempt,
				Func:           sp.Func,
				Worker:         sp.Worker,
				ScheduleUS:     sched,
				WallUS:         sp.Timing.WallNS / 1e3,
				ShuffleUS:      sp.Timing.ShuffleNS / 1e3,
				InBytes:        sp.Timing.InBytes,
				InRecords:      sp.Timing.InRecords,
				OutBytes:       sp.Timing.OutBytes,
				OutRecords:     sp.Timing.OutRecords,
				ResidentHits:   sp.Timing.ResidentHits,
				ResidentMisses: sp.Timing.ResidentMisses,
				Error:          sp.Err,
			},
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	buf = append(buf, "]}\n"...)
	_, err := w.Write(buf)
	return err
}

// ---------------------------------------------------------------------------
// Trace validation (used by cmd/mrs-tracecheck and the test suite)

// TraceStats summarizes a validated trace file.
type TraceStats struct {
	// Spans is the number of ph "X" (task execution) events.
	Spans int
	// Workers is the number of distinct execution lanes (tids) carrying
	// X events.
	Workers int
	// Datasets is the number of distinct dataset ids seen.
	Datasets int
	// MaxAttempt is the largest attempt number seen (>= 1 when Spans>0).
	MaxAttempt int
	// Errors is the number of spans recording a task error.
	Errors int
}

// ValidateChromeTrace parses data as Chrome trace-event JSON and checks
// the invariants the runtime promises: a traceEvents array; every event
// has name/ph/pid/tid; X events have ts >= 0, dur >= 0, and args with
// dataset/task/attempt >= their minimums. Returns summary stats.
func ValidateChromeTrace(data []byte) (TraceStats, error) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return TraceStats{}, fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return TraceStats{}, fmt.Errorf("trace: missing traceEvents array")
	}
	var st TraceStats
	workers := map[int]bool{}
	datasets := map[int]bool{}
	for i, raw := range doc.TraceEvents {
		var ev struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   *int64 `json:"ts"`
			Dur  *int64 `json:"dur"`
			Tid  *int   `json:"tid"`
			Pid  *int   `json:"pid"`
			Args *struct {
				Dataset *int   `json:"dataset"`
				Task    *int   `json:"task"`
				Attempt *int   `json:"attempt"`
				Error   string `json:"error"`
			} `json:"args"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return st, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if ev.Name == "" || ev.Ph == "" || ev.Pid == nil || ev.Tid == nil {
			return st, fmt.Errorf("trace: event %d: missing name/ph/pid/tid", i)
		}
		if ev.Ph != "X" {
			continue
		}
		switch {
		case ev.Ts == nil || *ev.Ts < 0:
			return st, fmt.Errorf("trace: event %d (%s): bad ts", i, ev.Name)
		case ev.Dur == nil || *ev.Dur < 0:
			return st, fmt.Errorf("trace: event %d (%s): bad dur", i, ev.Name)
		case ev.Args == nil || ev.Args.Dataset == nil || ev.Args.Task == nil || ev.Args.Attempt == nil:
			return st, fmt.Errorf("trace: event %d (%s): missing args.dataset/task/attempt", i, ev.Name)
		case *ev.Args.Dataset < 0 || *ev.Args.Task < 0 || *ev.Args.Attempt < 1:
			return st, fmt.Errorf("trace: event %d (%s): out-of-range dataset/task/attempt", i, ev.Name)
		}
		st.Spans++
		workers[*ev.Tid] = true
		datasets[*ev.Args.Dataset] = true
		if *ev.Args.Attempt > st.MaxAttempt {
			st.MaxAttempt = *ev.Args.Attempt
		}
		if ev.Args.Error != "" {
			st.Errors++
		}
	}
	st.Workers = len(workers)
	st.Datasets = len(datasets)
	return st, nil
}
