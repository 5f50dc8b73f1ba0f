package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/kvio"
)

// testRegistry builds a registry with wordcount-style functions plus a
// few pathological ones for error paths.
func testRegistry() *Registry {
	reg := NewRegistry()
	reg.RegisterMap("split", func(key, value []byte, emit kvio.Emitter) error {
		for _, w := range strings.Fields(string(value)) {
			if err := emit.Emit([]byte(w), codec.EncodeVarint(1)); err != nil {
				return err
			}
		}
		return nil
	})
	reg.RegisterReduce("sum", func(key []byte, values [][]byte, emit kvio.Emitter) error {
		var total int64
		for _, v := range values {
			n, err := codec.DecodeVarint(v)
			if err != nil {
				return err
			}
			total += n
		}
		return emit.Emit(key, codec.EncodeVarint(total))
	})
	reg.RegisterMap("identity", func(key, value []byte, emit kvio.Emitter) error {
		return emit.Emit(key, value)
	})
	reg.RegisterMap("boom", func(key, value []byte, emit kvio.Emitter) error {
		return fmt.Errorf("map exploded")
	})
	reg.RegisterReduce("boomr", func(key []byte, values [][]byte, emit kvio.Emitter) error {
		return fmt.Errorf("reduce exploded")
	})
	return reg
}

var corpusLines = []string{
	"the quick brown fox",
	"the lazy dog",
	"the fox jumps over the lazy dog",
	"quick quick quick",
}

// wantCounts is the reference WordCount answer for corpusLines.
var wantCounts = map[string]int64{
	"the": 4, "quick": 4, "brown": 1, "fox": 2,
	"lazy": 2, "dog": 2, "jumps": 1, "over": 1,
}

func linesAsPairs() []kvio.Pair {
	pairs := make([]kvio.Pair, len(corpusLines))
	for i, l := range corpusLines {
		pairs[i] = kvio.Pair{Key: codec.EncodeVarint(int64(i + 1)), Value: []byte(l)}
	}
	return pairs
}

func countsFromPairs(t *testing.T, pairs []kvio.Pair) map[string]int64 {
	t.Helper()
	got := map[string]int64{}
	for _, p := range pairs {
		n, err := codec.DecodeVarint(p.Value)
		if err != nil {
			t.Fatalf("bad count for %q: %v", p.Key, err)
		}
		got[string(p.Key)] += n
	}
	return got
}

func runWordCount(t *testing.T, exec Executor, mapSplits, reduceSplits int, combine string) []kvio.Pair {
	t.Helper()
	job := NewJob(exec)
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.MapReduce(src, "split", "sum",
		OpOpts{Splits: mapSplits, Combine: combine},
		OpOpts{Splits: reduceSplits})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	return pairs
}

func checkCounts(t *testing.T, pairs []kvio.Pair) {
	t.Helper()
	got := countsFromPairs(t, pairs)
	if len(got) != len(wantCounts) {
		t.Errorf("got %d distinct words, want %d: %v", len(got), len(wantCounts), got)
	}
	for w, n := range wantCounts {
		if got[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
}

func TestWordCountSerial(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	checkCounts(t, runWordCount(t, exec, 3, 3, ""))
}

func TestWordCountSerialWithCombiner(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	pairs := runWordCount(t, exec, 3, 3, "sum")
	checkCounts(t, pairs)
	// With the combiner the reduce output must still be one record per
	// word (8 words).
	if len(pairs) != len(wantCounts) {
		t.Errorf("got %d records, want %d", len(pairs), len(wantCounts))
	}
}

func TestWordCountMockParallel(t *testing.T) {
	dir := t.TempDir()
	exec, err := NewMockParallel(testRegistry(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	checkCounts(t, runWordCount(t, exec, 3, 3, ""))
	// Mock parallel must leave inspectable intermediate files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("mock parallel left no intermediate files")
	}
}

func TestWordCountThreads(t *testing.T) {
	exec := NewThreads(testRegistry(), 4)
	defer exec.Close()
	checkCounts(t, runWordCount(t, exec, 5, 3, "sum"))
}

func TestAllExecutorsAgreeExactly(t *testing.T) {
	// The paper's debugging invariant: every implementation produces
	// identical answers. Compare the full sorted record streams.
	collect := func(exec Executor) []kvio.Pair {
		job := NewJob(exec)
		src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 3, Partition: "roundrobin"})
		if err != nil {
			t.Fatal(err)
		}
		out, err := job.MapReduce(src, "split", "sum", OpOpts{Splits: 4, Combine: "sum"}, OpOpts{Splits: 2})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := out.CollectSorted()
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Close(); err != nil {
			t.Fatal(err)
		}
		exec.Close()
		return pairs
	}
	mock, err := NewMockParallel(testRegistry(), "")
	if err != nil {
		t.Fatal(err)
	}
	serial := collect(NewSerial(testRegistry()))
	mockP := collect(mock)
	threads := collect(NewThreads(testRegistry(), 8))
	for name, other := range map[string][]kvio.Pair{"mock": mockP, "threads": threads} {
		if len(other) != len(serial) {
			t.Fatalf("%s: %d records vs serial %d", name, len(other), len(serial))
		}
		for i := range serial {
			if !bytes.Equal(serial[i].Key, other[i].Key) || !bytes.Equal(serial[i].Value, other[i].Value) {
				t.Errorf("%s: record %d differs: %v vs %v", name, i, other[i], serial[i])
			}
		}
	}
}

func TestTextFileData(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, content := range []string{
		"the quick brown fox\nthe lazy dog\n",
		"the fox jumps over the lazy dog\nquick quick quick",
	} {
		p := filepath.Join(dir, fmt.Sprintf("doc%d.txt", i))
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	src, err := job.TextFileData(paths)
	if err != nil {
		t.Fatal(err)
	}
	// Two tiny files pack into one split.
	if src.NumSplits() != 1 {
		t.Errorf("NumSplits = %d, want 1", src.NumSplits())
	}
	out, err := job.MapReduce(src, "split", "sum", OpOpts{Splits: 2}, OpOpts{Splits: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, pairs)
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIterativeChaining(t *testing.T) {
	// Queue a chain of identity maps (an "iterative" program) before
	// waiting on anything; the final result must survive the pipeline.
	exec := NewThreads(testRegistry(), 4)
	defer exec.Close()
	job := NewJob(exec)
	ds, err := job.LocalData([]kvio.Pair{kvio.StrPair("k", "v")}, OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		ds, err = job.Map(ds, "identity", OpOpts{Splits: 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := ds.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || string(pairs[0].Key) != "k" || string(pairs[0].Value) != "v" {
		t.Errorf("after 25 iterations got %v", pairs)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeReleasesStorage(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	ds, err := job.LocalData([]kvio.Pair{kvio.StrPair("a", "b")}, OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := job.Map(ds, "identity", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Free(); err != nil {
		t.Fatal(err)
	}
	// The freed dataset is gone; collecting it must now fail.
	if _, err := ds.Collect(); err == nil {
		t.Error("Collect succeeded on freed dataset")
	}
	// But the downstream dataset is intact.
	pairs, err := mapped.Collect()
	if err != nil || len(pairs) != 1 {
		t.Errorf("downstream dataset affected by Free: %v, %v", pairs, err)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	ds, _ := job.LocalData([]kvio.Pair{kvio.StrPair("a", "b")}, OpOpts{})
	bad, err := job.Map(ds, "boom", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "map exploded") {
		t.Errorf("Wait err = %v, want map exploded", err)
	}
	// Downstream ops are skipped, and the job reports failure.
	after, err := job.Map(bad, "identity", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := after.Wait(); err == nil {
		t.Error("downstream dataset did not fail")
	}
	if err := job.Close(); err == nil {
		t.Error("job.Close did not report failure")
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	ds, _ := job.LocalData([]kvio.Pair{kvio.StrPair("a", "b")}, OpOpts{})
	bad, err := job.Reduce(ds, "boomr", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "reduce exploded") {
		t.Errorf("Wait err = %v", err)
	}
}

func TestUnregisteredFunction(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	ds, _ := job.LocalData([]kvio.Pair{kvio.StrPair("a", "b")}, OpOpts{})
	bad, err := job.Map(ds, "no-such-map", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Wait(); err == nil {
		t.Error("expected unregistered function error")
	}
}

func TestQueueValidation(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	if _, err := job.TextFileData(nil); err == nil {
		t.Error("TextFileData(nil) should fail validation")
	}
	ds, _ := job.LocalData(nil, OpOpts{})
	if _, err := job.Map(ds, "", OpOpts{}); err == nil {
		t.Error("Map with empty name should fail validation")
	}
}

func TestQueueAfterClose(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := job.LocalData(nil, OpOpts{}); err == nil {
		t.Error("queueing after Close should fail")
	}
}

func TestEmptyInput(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	ds, err := job.LocalData(nil, OpOpts{Splits: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.MapReduce(ds, "split", "sum", OpOpts{}, OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("empty input produced %v", pairs)
	}
}

func TestRegistryErrors(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Map("x", nil); err == nil {
		t.Error("expected error for missing map")
	}
	if _, err := reg.Reduce("x", nil); err == nil {
		t.Error("expected error for missing reduce")
	}
	reg.RegisterMap("m", func(k, v []byte, e kvio.Emitter) error { return nil })
	reg.RegisterReduce("r", func(k []byte, vs [][]byte, e kvio.Emitter) error { return nil })
	maps, reduces := reg.Names()
	if len(maps) != 1 || maps[0] != "m" || len(reduces) != 1 || reduces[0] != "r" {
		t.Errorf("Names = %v, %v", maps, reduces)
	}
}

func TestCombinerKeyChangeRejected(t *testing.T) {
	reg := testRegistry()
	reg.RegisterReduce("keychanger", func(key []byte, values [][]byte, emit kvio.Emitter) error {
		return emit.Emit([]byte("different"), values[0])
	})
	exec := NewSerial(reg)
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	ds, _ := job.LocalData([]kvio.Pair{kvio.StrPair("a", "b")}, OpOpts{})
	out, err := job.Map(ds, "identity", OpOpts{Combine: "keychanger"})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Wait(); err == nil || !strings.Contains(err.Error(), "combiner changed key") {
		t.Errorf("Wait err = %v, want combiner key error", err)
	}
}

func TestSpillingExecutorMatchesDefault(t *testing.T) {
	mk := func(spill int64) []kvio.Pair {
		exec, err := NewMockParallel(testRegistry(), "")
		if err != nil {
			t.Fatal(err)
		}
		defer exec.Close()
		exec.SetSpillBytes(spill)
		return runWordCount(t, exec, 2, 2, "")
	}
	a := mk(0)  // default, no spills at this size
	b := mk(32) // spill constantly
	ga, gb := countsFromPairs(t, a), countsFromPairs(t, b)
	if len(ga) != len(gb) {
		t.Fatalf("different word sets: %v vs %v", ga, gb)
	}
	for k, v := range ga {
		if gb[k] != v {
			t.Errorf("count[%q]: %d vs %d", k, v, gb[k])
		}
	}
}

func TestOperationValidate(t *testing.T) {
	cases := []struct {
		op Operation
		ok bool
	}{
		{Operation{Kind: OpLocal, Input: -1, Splits: 1}, true},
		{Operation{Kind: OpLocal, Input: -1, Splits: 0}, false},
		{Operation{Kind: OpFile, Input: -1, Splits: 1, Paths: []string{"x"}}, true},
		{Operation{Kind: OpFile, Input: -1, Splits: 1}, false},
		{Operation{Kind: OpMap, Input: 0, Splits: 1, FuncName: "m"}, true},
		{Operation{Kind: OpMap, Input: -1, Splits: 1, FuncName: "m"}, false},
		{Operation{Kind: OpMap, Input: 0, Splits: 1}, false},
		{Operation{Kind: OpReduce, Input: 0, Splits: 1, FuncName: "r"}, true},
		{Operation{Kind: OpKind(99), Splits: 1}, false},
	}
	for i, c := range cases {
		err := c.op.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{OpLocal: "local", OpFile: "file", OpMap: "map", OpReduce: "reduce"} {
		if k.String() != want {
			t.Errorf("OpKind %d String = %q", int(k), k.String())
		}
	}
	if !strings.Contains(OpKind(42).String(), "42") {
		t.Error("unknown OpKind String should include the number")
	}
}

func BenchmarkWordCountSerial(b *testing.B) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	for i := 0; i < b.N; i++ {
		job := NewJob(exec)
		src, _ := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
		out, _ := job.MapReduce(src, "split", "sum", OpOpts{Combine: "sum"}, OpOpts{})
		if _, err := out.Collect(); err != nil {
			b.Fatal(err)
		}
		job.Close()
	}
}

func BenchmarkIterationOverheadThreads(b *testing.B) {
	// Per-iteration overhead of the in-process pipeline: one identity
	// map + collect per iteration, minimal data. This is the Go
	// analogue of the paper's 0.3 s/iteration Mrs measurement.
	exec := NewThreads(testRegistry(), 4)
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	ds, _ := job.LocalData([]kvio.Pair{kvio.StrPair("k", "v")}, OpOpts{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		ds, err = job.Map(ds, "identity", OpOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMapFactoryReceivesParams(t *testing.T) {
	reg := testRegistry()
	reg.RegisterMapFactory("tagger", func(params []byte) (MapFunc, error) {
		tag := append([]byte(nil), params...)
		return func(key, value []byte, emit kvio.Emitter) error {
			return emit.Emit(key, tag)
		}, nil
	})
	exec := NewSerial(reg)
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	ds, _ := job.LocalData([]kvio.Pair{kvio.StrPair("k", "v")}, OpOpts{})
	out, err := job.Map(ds, "tagger", OpOpts{Params: []byte("iteration-7")})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || string(pairs[0].Value) != "iteration-7" {
		t.Errorf("got %v", pairs)
	}
}

func TestReduceFactoryReceivesParams(t *testing.T) {
	reg := testRegistry()
	reg.RegisterReduceFactory("threshold", func(params []byte) (ReduceFunc, error) {
		min, err := codec.DecodeVarint(params)
		if err != nil {
			return nil, err
		}
		return func(key []byte, values [][]byte, emit kvio.Emitter) error {
			if int64(len(values)) >= min {
				return emit.Emit(key, codec.EncodeVarint(int64(len(values))))
			}
			return nil
		}, nil
	})
	exec := NewSerial(reg)
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	ds, _ := job.LocalData([]kvio.Pair{
		kvio.StrPair("a", "1"), kvio.StrPair("a", "2"), kvio.StrPair("b", "3"),
	}, OpOpts{})
	out, err := job.Reduce(ds, "threshold", OpOpts{Params: codec.EncodeVarint(2)})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || string(pairs[0].Key) != "a" {
		t.Errorf("threshold reduce got %v", pairs)
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	reg := testRegistry()
	reg.RegisterMapFactory("bad", func(params []byte) (MapFunc, error) {
		return nil, fmt.Errorf("cannot build from %q", params)
	})
	exec := NewSerial(reg)
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	ds, _ := job.LocalData([]kvio.Pair{kvio.StrPair("k", "v")}, OpOpts{})
	out, err := job.Map(ds, "bad", OpOpts{Params: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Wait(); err == nil || !strings.Contains(err.Error(), "cannot build") {
		t.Errorf("Wait err = %v", err)
	}
}

func TestPlainRegistrationShadowsFactory(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterMap("f", func(k, v []byte, e kvio.Emitter) error { return e.Emit(k, []byte("plain")) })
	reg.RegisterMapFactory("f", func(params []byte) (MapFunc, error) {
		return func(k, v []byte, e kvio.Emitter) error { return e.Emit(k, []byte("factory")) }, nil
	})
	fn, err := reg.Map("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	var e kvio.SliceEmitter
	fn(nil, nil, &e)
	if string(e.Pairs[0].Value) != "plain" {
		t.Error("factory shadowed plain registration")
	}
}

func TestDatasetStats(t *testing.T) {
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := job.Map(src, "split", OpOpts{Splits: 3})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := mapped.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Splits != 3 {
		t.Errorf("Splits = %d", stats.Splits)
	}
	if stats.Buckets != 6 { // 2 tasks x 3 splits
		t.Errorf("Buckets = %d", stats.Buckets)
	}
	var want int64
	for _, n := range wantCounts {
		want += n
	}
	if stats.Records != want {
		t.Errorf("Records = %d, want %d (total tokens)", stats.Records, want)
	}
	if stats.Bytes == 0 {
		t.Error("Bytes = 0")
	}
}

func TestCombinerShrinksIntermediateData(t *testing.T) {
	// Measurable effect of the combiner: fewer intermediate records.
	measure := func(combine string) int64 {
		exec := NewSerial(testRegistry())
		defer exec.Close()
		job := NewJob(exec)
		defer job.Close()
		src, _ := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
		mapped, err := job.Map(src, "split", OpOpts{Splits: 2, Combine: combine})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := mapped.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return stats.Records
	}
	with, without := measure("sum"), measure("")
	if with >= without {
		t.Errorf("combiner did not shrink data: %d vs %d records", with, without)
	}
}

func TestDAGFanOut(t *testing.T) {
	// Two independent consumers of the same dataset: both must see it.
	exec := NewThreads(testRegistry(), 4)
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := job.MapReduce(src, "split", "sum", OpOpts{Splits: 2}, OpOpts{Splits: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := job.Map(src, "identity", OpOpts{Splits: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, mustCollect(t, a))
	ident := mustCollect(t, b)
	if len(ident) != len(corpusLines) {
		t.Errorf("identity branch lost records: %d", len(ident))
	}
}

func mustCollect(t *testing.T, d *Dataset) []kvio.Pair {
	t.Helper()
	pairs, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}
