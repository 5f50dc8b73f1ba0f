package core

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bucket"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// gatedExecutor holds every submitted task until release, so a test
// decides exactly what the driver has queued when each task is
// dispatched.
type gatedExecutor struct {
	*LocalExecutor
	mu    sync.Mutex
	held  []localTask
	specs []*TaskSpec // every dispatched spec, in submit order
}

func (g *gatedExecutor) Submit(spec *TaskSpec, done func(*TaskResult, error)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.held = append(g.held, localTask{spec: spec, done: done})
	g.specs = append(g.specs, spec)
}

// release runs every held task and waits for their callbacks, which
// may dispatch (and so hold) follow-on tasks. It reports whether any
// task was held.
func (g *gatedExecutor) release() bool {
	g.mu.Lock()
	held := g.held
	g.held = nil
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, t := range held {
		wg.Add(1)
		done := t.done
		g.LocalExecutor.Submit(t.spec, func(res *TaskResult, err error) {
			done(res, err)
			wg.Done()
		})
	}
	wg.Wait()
	return len(held) > 0
}

// dispatched returns the specs dispatched for a dataset.
func (g *gatedExecutor) dispatched(ds int) []*TaskSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []*TaskSpec
	for _, s := range g.specs {
		if s.Op.Dataset == ds {
			out = append(out, s)
		}
	}
	return out
}

// fusedChain queues src -> map/reduce -> narrow reduce -> one map over
// the narrow reduce, releasing tasks until the narrow reduce's tasks
// are dispatched.
func fusedChain(t *testing.T, g *gatedExecutor, job *Job) (narrow, member *Dataset) {
	t.Helper()
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 3, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := job.MapReduce(src, "split", "sum", OpOpts{Splits: 2, Combine: "sum"}, OpOpts{Splits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if narrow, err = job.Reduce(mid, "sum", OpOpts{Splits: 2, KeyAligned: true}); err != nil {
		t.Fatal(err)
	}
	if member, err = job.Map(narrow, "identity", OpOpts{Splits: 2, Resident: true}); err != nil {
		t.Fatal(err)
	}
	for len(g.dispatched(narrow.ID())) == 0 {
		if !g.release() {
			t.Fatal("narrow reduce never dispatched")
		}
	}
	return narrow, member
}

func collectSorted(t *testing.T, ds *Dataset) []kvio.Pair {
	t.Helper()
	pairs, err := ds.CollectSorted()
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func samePairs(a, b []kvio.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// Each narrow reduce task carries the map already queued over its
// output as a fused member reading split t; a map queued after the
// head was dispatched runs as its own task. Every member is still a
// task of its own operation in Job.Stats, and outputs match the
// unfused (barriered) run exactly.
func TestFusedMembersRideTheirHead(t *testing.T) {
	g := &gatedExecutor{LocalExecutor: NewSerial(testRegistry())}
	defer g.Close()
	rt := obs.New(nil)
	job := NewJobWith(g, JobOptions{Pipeline: true, Obs: rt})
	narrow, member := fusedChain(t, g, job)

	heads := g.dispatched(narrow.ID())
	if len(heads) != 2 {
		t.Fatalf("%d narrow tasks dispatched, want 2", len(heads))
	}
	for _, h := range heads {
		if len(h.Then) != 1 {
			t.Fatalf("narrow task %d carries %d members, want 1", h.TaskIndex, len(h.Then))
		}
		m := h.Then[0]
		if m.Op.Dataset != member.ID() || m.TaskIndex != h.TaskIndex || m.InputDataset != narrow.ID() || m.TraceID != 0 && m.TraceID == h.TraceID {
			t.Errorf("member %+v does not read split %d of ds%d", m, h.TaskIndex, narrow.ID())
		}
	}
	if n := len(g.dispatched(member.ID())); n != 0 {
		t.Errorf("fused op dispatched %d tasks of its own", n)
	}

	late, err := job.Map(narrow, "identity", OpOpts{Splits: 1})
	if err != nil {
		t.Fatal(err)
	}
	for g.release() {
	}
	if specs := g.dispatched(late.ID()); len(specs) != 2 || specs[0].Then != nil || len(specs[0].InputURLs) != 1 {
		t.Errorf("late consumer dispatched as %+v, want 2 own tasks reading one bucket each", specs)
	}
	if got := rt.M().Get(obs.MetricTasksFused); got != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricTasksFused, got)
	}
	want := collectSorted(t, narrow)
	if got := collectSorted(t, member); !samePairs(got, want) {
		t.Errorf("fused identity map output differs from its input")
	}
	if got := collectSorted(t, late); !samePairs(got, want) {
		t.Errorf("late identity map output differs from its input")
	}
	for _, op := range job.Stats().Ops {
		if (op.Dataset == narrow.ID() || op.Dataset == member.ID()) && op.Tasks != 2 {
			t.Errorf("ds%d counts %d tasks, want 2", op.Dataset, op.Tasks)
		}
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}

	bg := &gatedExecutor{LocalExecutor: NewSerial(testRegistry())}
	defer bg.Close()
	brt := obs.New(nil)
	bjob := NewJobWith(bg, JobOptions{Pipeline: false, Obs: brt})
	_, bmember := fusedChain(t, bg, bjob)
	for bg.release() {
	}
	if got := collectSorted(t, bmember); !samePairs(got, want) {
		t.Errorf("barriered run differs from the fused one")
	}
	if err := bjob.Close(); err != nil {
		t.Fatal(err)
	}
	if got := brt.M().Get(obs.MetricTasksFused); got != 0 {
		t.Errorf("barriered run fused %d tasks", got)
	}
}

// A member's error fails the whole attempt: the head and every member
// fail together.
func TestFusedMemberErrorFailsHeadAndMembers(t *testing.T) {
	g := &gatedExecutor{LocalExecutor: NewSerial(testRegistry())}
	defer g.Close()
	job := NewJob(g)
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := job.MapReduce(src, "split", "sum", OpOpts{Splits: 2}, OpOpts{Splits: 2})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := job.Reduce(mid, "sum", OpOpts{Splits: 2, KeyAligned: true})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := job.Map(narrow, "identity", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := job.Map(narrow, "boom", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for g.release() {
	}
	if heads := g.dispatched(narrow.ID()); len(heads) != 2 || len(heads[0].Then) != 2 {
		t.Fatalf("narrow tasks %+v, want 2 carrying both maps", heads)
	}
	for _, ds := range []*Dataset{narrow, ok, bad} {
		if err := ds.Wait(); err == nil || !strings.Contains(err.Error(), "map exploded") {
			t.Errorf("ds%d: err = %v, want the member's failure", ds.ID(), err)
		}
	}
	if err := job.Close(); err == nil {
		t.Error("job with a failed fused member closed cleanly")
	}
}

// Input plans skip KV buckets whose record and byte counts are both
// zero — a narrow reduce's buckets outside its own split — but keep
// every text file, whose descriptor carries no counts.
func TestURLsSkipProvablyEmptyBuckets(t *testing.T) {
	kv := NewMaterialized(1, FormatKV)
	for task, d := range []bucket.Descriptor{
		{URL: "mem:1/a", Records: 2, Bytes: 10},
		{URL: "mem:1/empty"},
		{URL: "mem:1/blank", Records: 1},
	} {
		if err := kv.SetTaskBucket(task, 0, d); err != nil {
			t.Fatal(err)
		}
	}
	if got := kv.URLs(0); !reflect.DeepEqual(got, []string{"mem:1/a", "mem:1/blank"}) {
		t.Errorf("KV plan = %v", got)
	}
	lines := NewMaterialized(1, FormatLines)
	if err := lines.AddBucket(0, bucket.Descriptor{URL: "file:///in/a.txt"}); err != nil {
		t.Fatal(err)
	}
	if got := lines.URLs(0); !reflect.DeepEqual(got, []string{"file:///in/a.txt"}) {
		t.Errorf("text plan = %v", got)
	}
}
