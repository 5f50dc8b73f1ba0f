package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// span is one interval recorded by the benchmark around a call into a
// layer. Spans stay in memory until the run ends.
type span struct {
	ID     int64
	Parent int64 // 0 for a root
	Name   string
	Lane   string // display row in the Chrome trace
	Rep    int    // repetition the span belongs to (-1 = none)
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder collects spans. A nil *recorder records nothing, so the
// untraced run executes the same code without the bookkeeping.
type recorder struct {
	workload string
	base     time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, base: time.Now()}
}

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(name, lane string, parent int64, rep int, start, end time.Time) int64 {
	id := r.reserve()
	r.addReserved(id, name, lane, parent, rep, start, end)
	return id
}

// reserve hands out an id for a span whose children are recorded before
// it ends; finish it with addReserved.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) addReserved(id int64, name, lane string, parent int64, rep int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Lane: lane, Rep: rep, Start: start, End: end})
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// addTaskSpans files the runtime tracer's task-attempt spans under the
// repetition span whose managed job ran them.
func (r *recorder) addTaskSpans(tasks []obs.Span, repOfJob map[int64]repRef) {
	for _, t := range tasks {
		ref, ok := repOfJob[t.Job]
		if !ok {
			continue
		}
		r.add(fmt.Sprintf("task:%s(%s) ds%d/t%d", t.Kind, t.Func, t.Dataset, t.Task), "worker:"+t.Worker, ref.span, ref.rep, t.Start, t.End)
	}
}

// repRef names the span and index of one repetition.
type repRef struct {
	span int64
	rep  int
}

// selfTime is a span's duration minus the part of it that its child
// spans cover (children may overlap each other).
func selfTime(spans []span, id int64) time.Duration {
	var parent *span
	var kids []span
	for i := range spans {
		if spans[i].ID == id {
			parent = &spans[i]
		} else if spans[i].Parent == id {
			kids = append(kids, spans[i])
		}
	}
	if parent == nil {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	covered := time.Duration(0)
	cursor := parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start.Before(cursor) {
			start = cursor
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if end.After(start) {
			covered += end.Sub(start)
			cursor = end
		}
	}
	return parent.dur() - covered
}

// writeChromeTrace exports the spans in the trace-event format that
// obs.ValidateChromeTrace checks: args.dataset carries the repetition,
// args.task the span id, and span_id/parent_id the causal link.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	spans := r.snapshot()
	lanes := map[string]int{}
	var laneNames []string
	for _, s := range spans {
		if _, ok := lanes[s.Lane]; !ok {
			lanes[s.Lane] = 0
			laneNames = append(laneNames, s.Lane)
		}
	}
	sort.Strings(laneNames)
	for i, n := range laneNames {
		lanes[n] = i + 1
	}
	type meta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	type args struct {
		Dataset  int    `json:"dataset"`
		Task     int64  `json:"task"`
		Attempt  int    `json:"attempt"`
		SpanID   int64  `json:"span_id"`
		ParentID int64  `json:"parent_id"`
		Workload string `json:"workload"`
		Rep      int    `json:"rep"`
	}
	type event struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
		Args args   `json:"args"`
	}
	events := []any{meta{Name: "process_name", Ph: "M", Args: map[string]string{"name": "bench " + r.workload}}}
	for _, n := range laneNames {
		events = append(events, meta{Name: "thread_name", Ph: "M", Tid: lanes[n], Args: map[string]string{"name": n}})
	}
	for _, s := range spans {
		ds := s.Rep
		if ds < 0 {
			ds = 0
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  s.Start.Sub(r.base).Microseconds(),
			Dur: s.dur().Microseconds(),
			Tid: lanes[s.Lane],
			Args: args{Dataset: ds, Task: s.ID, Attempt: 1, SpanID: s.ID, ParentID: s.Parent,
				Workload: r.workload, Rep: s.Rep},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
}

// ---------------------------------------------------------------------------
// User-function wrapper

// userBatch is how many calls of one user function share a span: a span
// per call would cost more than a k-means assign call does.
const userBatch = 4096

// userStats sums what the wrapped user functions did during a run.
type userStats struct {
	rec    *recorder
	parent atomic.Int64 // span id of the repetition in flight
	rep    atomic.Int64

	mu       sync.Mutex
	perFunc  map[string]*funcStats
	inFlight map[*batch]struct{}
}

type funcStats struct {
	Calls     int64
	BusyNS    int64
	EmitBytes int64
}

func newUserStats(rec *recorder) *userStats {
	return &userStats{rec: rec, perFunc: map[string]*funcStats{}, inFlight: map[*batch]struct{}{}}
}

// batch accumulates the calls one task makes to one user function. The
// runtime resolves functions once per task, so a batch is touched by a
// single goroutine until flushAll collects what is left of it.
type batch struct {
	name        string
	emitter     kvio.CountingEmitter // counts emitted bytes; reused, so no allocation per call
	calls       int64
	busy        time.Duration
	first, last time.Time
}

func (u *userStats) flush(b *batch) {
	if b.calls == 0 {
		return
	}
	u.rec.add("user:"+b.name, "user:"+b.name, u.parent.Load(), int(u.rep.Load()), b.first, b.last)
	u.mu.Lock()
	fs := u.perFunc[b.name]
	if fs == nil {
		fs = &funcStats{}
		u.perFunc[b.name] = fs
	}
	fs.Calls += b.calls
	fs.BusyNS += int64(b.busy)
	fs.EmitBytes += b.emitter.Bytes
	u.mu.Unlock()
	b.calls, b.busy, b.emitter.Bytes = 0, 0, 0
}

// flushAll closes every open batch; call it between repetitions, when
// no task is running.
func (u *userStats) flushAll() {
	u.mu.Lock()
	open := make([]*batch, 0, len(u.inFlight))
	for b := range u.inFlight {
		open = append(open, b)
	}
	u.inFlight = map[*batch]struct{}{}
	u.mu.Unlock()
	for _, b := range open {
		u.flush(b)
	}
}

// reset drops what has been recorded so far (the warm-up repetition).
func (u *userStats) reset() {
	u.mu.Lock()
	u.perFunc = map[string]*funcStats{}
	u.mu.Unlock()
}

func (u *userStats) newBatch(name string) *batch {
	b := &batch{name: name}
	u.mu.Lock()
	u.inFlight[b] = struct{}{}
	u.mu.Unlock()
	return b
}

func (u *userStats) totals() (calls int64, busy time.Duration, perFunc map[string]funcStats) {
	u.mu.Lock()
	defer u.mu.Unlock()
	perFunc = map[string]funcStats{}
	for name, fs := range u.perFunc {
		perFunc[name] = *fs
		calls += fs.Calls
		busy += time.Duration(fs.BusyNS)
	}
	return calls, busy, perFunc
}

func (u *userStats) observe(b *batch, start time.Time) {
	end := time.Now()
	if b.calls == 0 {
		b.first = start
	}
	b.last = end
	b.calls++
	b.busy += end.Sub(start)
	if b.calls >= userBatch {
		u.flush(b)
	}
}

// wrapRegistry returns a registry whose functions are inner's, each
// timed per call and recorded as one span per userBatch calls.
func (u *userStats) wrapRegistry(inner *core.Registry, maps, reduces []string) *core.Registry {
	outer := core.NewRegistry()
	for _, name := range maps {
		name := name
		outer.RegisterMapFactory(name, func(params []byte) (core.MapFunc, error) {
			fn, err := inner.Map(name, params)
			if err != nil {
				return nil, err
			}
			b := u.newBatch(name)
			return func(key, value []byte, emit kvio.Emitter) error {
				b.emitter.Next = emit
				start := time.Now()
				err := fn(key, value, &b.emitter)
				u.observe(b, start)
				return err
			}, nil
		})
	}
	for _, name := range reduces {
		name := name
		outer.RegisterReduceFactory(name, func(params []byte) (core.ReduceFunc, error) {
			fn, err := inner.Reduce(name, params)
			if err != nil {
				return nil, err
			}
			b := u.newBatch(name)
			return func(key []byte, values [][]byte, emit kvio.Emitter) error {
				b.emitter.Next = emit
				start := time.Now()
				err := fn(key, values, &b.emitter)
				u.observe(b, start)
				return err
			}, nil
		})
	}
	return outer
}
