package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bucket"
	"repro/internal/kvio"
	"repro/internal/partition"
	"repro/internal/shuffle"
)

// emitReused emits n records from one key buffer and one value buffer,
// overwriting both after every Emit, and returns the records emitted.
// 12,000 ~80-byte records cross a combining sorter's fold threshold
// (256 KiB) more than once.
func emitReused(t *testing.T, e kvio.Emitter, n int) []kvio.Pair {
	t.Helper()
	key, value := make([]byte, 0, 16), make([]byte, 0, 64)
	var want []kvio.Pair
	for i := 0; i < n; i++ {
		key = fmt.Appendf(key[:0], "key-%d", i%7)
		value = fmt.Appendf(value[:0], "value-%06d-%s", i, strings.Repeat("v", 40))
		want = append(want, kvio.Pair{Key: slices.Clone(key), Value: slices.Clone(value)})
		if err := e.Emit(key, value); err != nil {
			t.Fatal(err)
		}
		copy(key[:cap(key)], bytes.Repeat([]byte{'X'}, cap(key)))
		copy(value[:cap(value)], bytes.Repeat([]byte{'Y'}, cap(value)))
	}
	return want
}

// byKey orders pairs by key, stably, so each key's values stay in
// emission order: what a sorter delivers, and what splits of one
// emission stream concatenate to.
func byKey(pairs []kvio.Pair) []string {
	pairs = slices.Clone(pairs)
	slices.SortStableFunc(pairs, func(a, b kvio.Pair) int { return bytes.Compare(a.Key, b.Key) })
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = fmt.Sprintf("%s=%s", p.Key, p.Value)
	}
	return out
}

func checkSame(t *testing.T, got, want []kvio.Pair) {
	t.Helper()
	g, w := byKey(got), byKey(want)
	if len(g) != len(w) {
		t.Fatalf("%d records, want %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("record %d is %q, want %q", i, g[i], w[i])
		}
	}
}

// TestEmittersCopy pins the Emitter ownership contract the kernels rely
// on: every emitter the runtime hands to user code keeps its own copy
// of what it is given, so a kernel may overwrite its emit buffers as
// soon as Emit returns.
func TestEmittersCopy(t *testing.T) {
	const n = 12000
	readBuckets := func(t *testing.T, store *bucket.Store, writers []*bucket.Writer) []kvio.Pair {
		t.Helper()
		descs, err := closeWriters(writers)
		if err != nil {
			t.Fatal(err)
		}
		var got []kvio.Pair
		for _, d := range descs {
			pairs, err := store.ReadAll(d.URL)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pairs...)
		}
		return got
	}
	newWriters := func(t *testing.T, store *bucket.Store, splits int) []*bucket.Writer {
		t.Helper()
		writers := make([]*bucket.Writer, splits)
		for s := range writers {
			w, err := store.Create(fmt.Sprintf("emit/s%d", s))
			if err != nil {
				t.Fatal(err)
			}
			writers[s] = w
		}
		return writers
	}

	t.Run("bucket.Writer", func(t *testing.T) {
		// The memory store, and a file-backed store (the output is over
		// the 64 KiB RAM-bucket limit, so it is written as a file).
		fileStore, err := bucket.NewFileStore(t.TempDir(), "http://127.0.0.1:1/data")
		if err != nil {
			t.Fatal(err)
		}
		for _, store := range []*bucket.Store{bucket.NewMemStore(), fileStore} {
			writers := newWriters(t, store, 1)
			want := emitReused(t, writers[0], n)
			checkSame(t, readBuckets(t, store, writers), want)
		}
	})

	t.Run("partitionedEmitter", func(t *testing.T) {
		store := bucket.NewMemStore()
		parter, err := partition.ByName("hash")
		if err != nil {
			t.Fatal(err)
		}
		writers := newWriters(t, store, 3)
		want := emitReused(t, &partitionedEmitter{parter: parter, splits: 3, writers: writers, ownSplit: -1}, n)
		checkSame(t, readBuckets(t, store, writers), want)
	})

	t.Run("combining FuncEmitter to Sorter", func(t *testing.T) {
		parter, err := partition.ByName("hash")
		if err != nil {
			t.Fatal(err)
		}
		// A combiner that keeps every value, so the groups show whether
		// any emitted byte changed, through folds and CombineAdapter's
		// reused output buffer.
		keep := CombineAdapter(func(key []byte, values [][]byte, emit kvio.Emitter) error {
			for _, v := range values {
				if err := emit.Emit(key, v); err != nil {
					return err
				}
			}
			return nil
		})
		sorters := make([]*shuffle.Sorter, 2)
		for s := range sorters {
			sorters[s] = shuffle.NewSorter(shuffle.Options{Combine: keep})
			defer sorters[s].Close()
		}
		want := emitReused(t, sortingEmitter(parter, sorters), n)
		var got []kvio.Pair
		var folds int64
		for _, s := range sorters {
			folds += s.Folds()
			err := s.Groups(func(key []byte, values [][]byte) error {
				for _, v := range values {
					got = append(got, kvio.Pair{Key: slices.Clone(key), Value: slices.Clone(v)})
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if folds == 0 {
			t.Error("no sorter folded; the test no longer crosses the fold threshold")
		}
		checkSame(t, got, want)
	})

	t.Run("SliceEmitter", func(t *testing.T) {
		var e kvio.SliceEmitter
		want := emitReused(t, &e, n)
		checkSame(t, e.Pairs, want)
	})

	t.Run("CountingEmitter", func(t *testing.T) {
		store := bucket.NewMemStore()
		writers := newWriters(t, store, 1)
		e := &kvio.CountingEmitter{Next: writers[0]}
		want := emitReused(t, e, n)
		if e.Records != n {
			t.Errorf("counted %d records, want %d", e.Records, n)
		}
		checkSame(t, readBuckets(t, store, writers), want)
	})
}

// LocalData holds no reference to the caller's pairs: overwriting every
// key and value after the call must not change what the dataset holds,
// on every local executor and in both scheduling modes. In the
// barriered mode the source is queued behind a map that is still
// running, so it is not scheduled until after the overwrite; the pairs
// must be encoded by the time LocalData returns all the same.
func TestLocalDataCopiesPairs(t *testing.T) {
	executors := map[string]func(*Registry) (*LocalExecutor, error){
		"serial":  func(r *Registry) (*LocalExecutor, error) { return NewSerial(r), nil },
		"threads": func(r *Registry) (*LocalExecutor, error) { return NewThreads(r, 3), nil },
		"mock":    func(r *Registry) (*LocalExecutor, error) { return NewMockParallel(r, t.TempDir()) },
	}
	for name, newExec := range executors {
		for _, pipeline := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/pipeline=%v", name, pipeline), func(t *testing.T) {
				testLocalDataCopiesPairs(t, newExec, pipeline)
			})
		}
	}
}

func testLocalDataCopiesPairs(t *testing.T, newExec func(*Registry) (*LocalExecutor, error), pipeline bool) {
	const splits = 3
	var pairs []kvio.Pair
	for i := 0; i < 100; i++ {
		p := kvio.Pair{Key: fmt.Appendf(nil, "k%03d", i), Value: fmt.Appendf(nil, "value %d", i)}
		if i%10 == 0 {
			p.Value = nil
		}
		pairs = append(pairs, p)
	}
	// Round-robin puts pair i in split i%splits, and Collect reads the
	// splits in order, each in input order.
	var want []kvio.Pair
	for s := 0; s < splits; s++ {
		for i := s; i < len(pairs); i += splits {
			want = append(want, pairs[i].Clone())
		}
	}
	reg := testRegistry()
	gate := make(chan struct{})
	reg.RegisterMap("gate", func(key, value []byte, emit kvio.Emitter) error {
		<-gate
		return emit.Emit(key, value)
	})
	exec, err := newExec(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	job := NewJobWith(exec, JobOptions{Pipeline: pipeline})
	defer job.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	first, err := job.LocalData([]kvio.Pair{{Key: []byte("a")}}, OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Map(first, "gate", OpOpts{}); err != nil {
		t.Fatal(err)
	}
	ds, err := job.LocalData(pairs, OpOpts{Splits: splits, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		for i := range p.Key {
			p.Key[i] = 'X'
		}
		for i := range p.Value {
			p.Value[i] = 'Y'
		}
	}
	release()
	got, err := ds.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Errorf("pair %d is %q=%q, want %q=%q", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}
