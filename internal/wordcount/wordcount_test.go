package wordcount

import (
	"bytes"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kvio"
)

func TestMapEmitsOnePerToken(t *testing.T) {
	var e kvio.SliceEmitter
	if err := Map(nil, []byte("  to be   or not to be "), &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Pairs) != 6 {
		t.Fatalf("emitted %d pairs, want 6", len(e.Pairs))
	}
	if string(e.Pairs[0].Key) != "to" {
		t.Errorf("first token %q", e.Pairs[0].Key)
	}
	for _, p := range e.Pairs {
		n, err := codec.DecodeVarint(p.Value)
		if err != nil || n != 1 {
			t.Errorf("token %q count %d err %v", p.Key, n, err)
		}
	}
}

func TestMapEmptyLine(t *testing.T) {
	var e kvio.SliceEmitter
	if err := Map(nil, []byte("   \t  "), &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Pairs) != 0 {
		t.Errorf("blank line emitted %v", e.Pairs)
	}
}

func TestReduceSums(t *testing.T) {
	var e kvio.SliceEmitter
	values := [][]byte{codec.EncodeVarint(3), codec.EncodeVarint(4), codec.EncodeVarint(1)}
	if err := newReduce()([]byte("w"), values, &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Pairs) != 1 {
		t.Fatalf("emitted %d pairs", len(e.Pairs))
	}
	n, err := codec.DecodeVarint(e.Pairs[0].Value)
	if err != nil || n != 8 {
		t.Errorf("sum = %d, err %v", n, err)
	}
}

func TestReduceBadValue(t *testing.T) {
	var e kvio.SliceEmitter
	if err := newReduce()([]byte("w"), [][]byte{[]byte("junk-that-is-long")}, &e); err == nil {
		t.Error("expected error for malformed count")
	}
}

func TestEndToEndOnFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.txt": "apple banana apple\ncherry\n",
		"b.txt": "banana banana\r\napple\n",
		"c.txt": "",
	}
	var paths []string
	for name, content := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	reg := core.NewRegistry()
	Register(reg)
	exec := core.NewSerial(reg)
	defer exec.Close()
	job := core.NewJob(exec)
	defer job.Close()
	out, err := Run(job, paths, Options{ReduceSplits: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	counts, err := Counts(pairs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"apple": 3, "banana": 3, "cherry": 1}
	if len(counts) != len(want) {
		t.Errorf("got %v", counts)
	}
	for w, n := range want {
		if counts[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, counts[w], n)
		}
	}
}

func TestCombinerAblationSameAnswer(t *testing.T) {
	input := []kvio.Pair{
		kvio.StrPair("1", "x y x"),
		kvio.StrPair("2", "y y z x"),
	}
	run := func(disable bool) map[string]int64 {
		reg := core.NewRegistry()
		Register(reg)
		exec := core.NewSerial(reg)
		defer exec.Close()
		job := core.NewJob(exec)
		defer job.Close()
		src, err := job.LocalData(input, core.OpOpts{Splits: 2, Partition: "roundrobin"})
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunOn(job, src, Options{DisableCombiner: disable})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := out.Collect()
		if err != nil {
			t.Fatal(err)
		}
		counts, err := Counts(pairs)
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}
	with, without := run(false), run(true)
	if len(with) != len(without) {
		t.Fatalf("combiner changed the answer: %v vs %v", with, without)
	}
	for w, n := range with {
		if without[w] != n {
			t.Errorf("count[%q]: with=%d without=%d", w, n, without[w])
		}
	}
}

func TestTop(t *testing.T) {
	counts := map[string]int64{"a": 5, "b": 9, "c": 5, "d": 1}
	top := Top(counts, 3)
	if len(top) != 3 {
		t.Fatalf("got %d entries", len(top))
	}
	if top[0].Word != "b" || top[0].Count != 9 {
		t.Errorf("top[0] = %+v", top[0])
	}
	// Tie between a and c broken alphabetically.
	if top[1].Word != "a" || top[2].Word != "c" {
		t.Errorf("tie break wrong: %+v", top)
	}
	if got := Top(counts, 100); len(got) != 4 {
		t.Errorf("Top clamps to map size: %d", len(got))
	}
}

func TestCountsMergesDuplicateWords(t *testing.T) {
	// Output split boundaries can deliver the same word from different
	// splits only if partitioning were broken; Counts still merges.
	pairs := []kvio.Pair{
		{Key: []byte("w"), Value: codec.EncodeVarint(2)},
		{Key: []byte("w"), Value: codec.EncodeVarint(3)},
	}
	counts, err := Counts(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if counts["w"] != 5 {
		t.Errorf("merged count = %d", counts["w"])
	}
}

func TestSplitBytesMatchesPerFile(t *testing.T) {
	dir := t.TempDir()
	content := ""
	for i := 0; i < 100; i++ {
		content += "pear plum pear\n"
	}
	path := filepath.Join(dir, "big.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(splitBytes int64) map[string]int64 {
		reg := core.NewRegistry()
		Register(reg)
		exec := core.NewSerial(reg)
		defer exec.Close()
		job := core.NewJob(exec)
		defer job.Close()
		out, err := Run(job, []string{path}, Options{SplitBytes: splitBytes, MapSplits: 4})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := out.Collect()
		if err != nil {
			t.Fatal(err)
		}
		counts, err := Counts(pairs)
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}
	whole := run(0)
	chunked := run(128)
	if whole["pear"] != 200 || chunked["pear"] != 200 || whole["plum"] != chunked["plum"] {
		t.Errorf("whole %v vs chunked %v", whole, chunked)
	}
}

// FuzzMapMatchesFields: Map's words are bytes.Fields's on any input,
// invalid UTF-8 and non-ASCII white space included.
func FuzzMapMatchesFields(f *testing.F) {
	for _, seed := range []string{
		"", "  to be   or not to be ", "\t\n\v\f\r tab",
		"bad \xff\xfe utf8", "\xc3", "a\u0085b", "a\u00a0b", "a\u2028b", "a\u3000c",
		"\x85 lone continuation", "mixed \xffend ",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var e kvio.SliceEmitter
		if err := Map(nil, line, &e); err != nil {
			t.Fatal(err)
		}
		want := bytes.Fields(line)
		if len(e.Pairs) != len(want) {
			t.Fatalf("%q: %d words, bytes.Fields has %d", line, len(e.Pairs), len(want))
		}
		for i, p := range e.Pairs {
			if !bytes.Equal(p.Key, want[i]) {
				t.Fatalf("%q: word %d is %q, bytes.Fields has %q", line, i, p.Key, want[i])
			}
			if n, err := codec.DecodeVarint(p.Value); err != nil || n != 1 {
				t.Fatalf("%q: word %d counts %x", line, i, p.Value)
			}
		}
	})
}

// countValues cuts fuzz bytes into reduce values: each takes a length
// byte (mod 12, so varints of every size, empty and over-long values
// all occur) and then that many bytes, or what is left.
func countValues(data []byte) [][]byte {
	var vals [][]byte
	for len(data) > 0 {
		n := min(int(data[0])%12, len(data)-1)
		vals = append(vals, data[1:1+n])
		data = data[1+n:]
	}
	return vals
}

func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReduceCounts: the reduce, and the same reduce as a map-side
// combiner, either sum arbitrary values exactly or refuse them with an
// error naming the key: a value that is not one varint, or a running
// total that leaves int64. Either way they allocate within a bound
// proportional to the input.
func FuzzReduceCounts(f *testing.F) {
	counts := func(ns ...int64) []byte {
		var b []byte
		for _, n := range ns {
			v := codec.EncodeVarint(n)
			b = append(append(b, byte(len(v))), v...)
		}
		return b
	}
	f.Add([]byte("the"), counts(3, 4, 1))
	f.Add([]byte("w"), counts(-5, 5, math.MaxInt64, math.MinInt64))
	f.Add([]byte("big"), counts(math.MaxInt64, 1, -1))
	f.Add([]byte("low"), counts(math.MinInt64, -1))
	f.Add([]byte("\xff\x00key"), append(counts(1), 0, 11, 0x80, 0x80))
	f.Add([]byte(""), []byte{3, 0x80, 0x80, 0x80})
	f.Add([]byte("k"), []byte{})
	f.Fuzz(func(t *testing.T, key, data []byte) {
		vals := countValues(data)
		want, refuse := new(big.Int), false
		for _, v := range vals {
			n, err := codec.DecodeVarint(v)
			if err != nil {
				refuse = true
				break
			}
			if want.Add(want, big.NewInt(n)); !want.IsInt64() {
				refuse = true
				break
			}
		}
		bound := 8*uint64(len(key)+len(data)) + 64<<10
		named := strconv.Quote(string(key))

		var e kvio.SliceEmitter
		var err error
		if n := allocated(func() { err = newReduce()(key, vals, &e) }); n > bound {
			t.Fatalf("reduce over %d input bytes allocated %d B", len(key)+len(data), n)
		}
		var out [][]byte
		var cerr error
		combine := core.CombineAdapter(newReduce())
		if n := allocated(func() { out, cerr = combine(key, vals) }); n > bound {
			t.Fatalf("combine over %d input bytes allocated %d B", len(key)+len(data), n)
		}
		if refuse {
			for _, err := range []error{err, cerr} {
				if err == nil || !strings.Contains(err.Error(), named) {
					t.Fatalf("values %x: error %v, want one naming key %s", vals, err, named)
				}
			}
			return
		}
		if err != nil || cerr != nil {
			t.Fatalf("values %x summing to %v refused: %v, %v", vals, want, err, cerr)
		}
		sum := codec.EncodeVarint(want.Int64())
		if len(e.Pairs) != 1 || !bytes.Equal(e.Pairs[0].Key, key) || !bytes.Equal(e.Pairs[0].Value, sum) {
			t.Fatalf("reduce emitted %v, want one count %v", e.Pairs, want)
		}
		if len(out) != 1 || !bytes.Equal(out[0], sum) {
			t.Fatalf("combine returned %x, want one count %v", out, want)
		}
	})
}

// BenchmarkWordcountMap tokenises one ten-word line per op into an
// emitter that keeps nothing: no allocation per line or word.
func BenchmarkWordcountMap(b *testing.B) {
	line := []byte("the quick brown fox jumps over the lazy dog again")
	e := &kvio.CountingEmitter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Map(nil, line, e); err != nil {
			b.Fatal(err)
		}
	}
	if e.Records != 10*int64(b.N) {
		b.Fatalf("%d words from %d lines", e.Records, b.N)
	}
}

// BenchmarkWordcountCombine sums eight counts per op through the
// map-side combine adapter, as a combining sorter's fold calls it: no
// allocation once the task's count buffer is warm.
func BenchmarkWordcountCombine(b *testing.B) {
	reg := core.NewRegistry()
	Register(reg)
	fn, err := reg.Reduce(ReduceName, nil)
	if err != nil {
		b.Fatal(err)
	}
	combine := core.CombineAdapter(fn)
	vals := make([][]byte, 8)
	for i := range vals {
		vals[i] = codec.EncodeVarint(int64(1 + 40*i))
	}
	key := []byte("the")
	if _, err := combine(key, vals); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := combine(key, vals)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 1 {
			b.Fatalf("%d values", len(out))
		}
	}
}
