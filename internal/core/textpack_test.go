package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/kvio"
	"repro/internal/obs"
)

func TestPackFiles(t *testing.T) {
	const target = FileSplitBytes
	// 102 files of 10 KiB fit in 1 MiB; the 103rd would overflow.
	tiny, tinyWant := make([]int64, 300), make([]int, 300)
	for i := range tiny {
		tiny[i], tinyWant[i] = 10<<10, i/102
	}
	for _, tc := range []struct {
		name   string
		sizes  []int64
		want   []int
		splits int
	}{
		{name: "none", sizes: nil, want: []int{}, splits: 0},
		{name: "one tiny", sizes: []int64{1}, want: []int{0}, splits: 1},
		{name: "many tiny", sizes: tiny, want: tinyWant, splits: 3},
		{name: "exact fill", sizes: []int64{512 << 10, 512 << 10, 1}, want: []int{0, 0, 1}, splits: 2},
		{name: "big sits alone", sizes: []int64{10, 2 << 20, 10}, want: []int{0, 1, 2}, splits: 3},
		{name: "big first", sizes: []int64{2 << 20, 1}, want: []int{0, 1}, splits: 2},
		{name: "big at target", sizes: []int64{10, target, 0, 5}, want: []int{0, 1, 2, 2}, splits: 3},
		{name: "consecutive big", sizes: []int64{target, target + 1}, want: []int{0, 1}, splits: 2},
		{name: "empty files", sizes: []int64{0, 0, 0}, want: []int{0, 0, 0}, splits: 1},
		{name: "empty between", sizes: []int64{700 << 10, 0, 400 << 10}, want: []int{0, 0, 1}, splits: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, splits := packFiles(tc.sizes, target)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("packFiles = %v, want %v", got, tc.want)
			}
			if splits != tc.splits {
				t.Errorf("%d splits, want %d", splits, tc.splits)
			}
			if again, _ := packFiles(tc.sizes, target); !reflect.DeepEqual(got, again) {
				t.Errorf("plan not deterministic: %v then %v", got, again)
			}
		})
	}
}

// sizedFile creates a file of the given size without writing its bytes.
func sizedFile(t *testing.T, dir, name string, size int64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(size); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fileSplitURLs queues paths with TextFileData and returns each split's
// bucket URLs.
func fileSplitURLs(t *testing.T, paths []string) [][]string {
	t.Helper()
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	src, err := job.TextFileData(paths)
	if err != nil {
		t.Fatal(err)
	}
	m, err := job.wait(src.ID())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSplits() != src.NumSplits() {
		t.Fatalf("materialized %d splits, dataset says %d", m.NumSplits(), src.NumSplits())
	}
	out := make([][]string, m.NumSplits())
	for s := range out {
		out[s] = m.URLs(s)
	}
	return out
}

func TestTextFileDataPacksInPathOrder(t *testing.T) {
	dir := t.TempDir()
	small := func(name string) string { return sizedFile(t, dir, name, 300<<10) }
	a, b, c := small("a"), small("b"), small("c")
	big := sizedFile(t, dir, "big", FileSplitBytes)
	empty := sizedFile(t, dir, "empty", 0)
	d := small("d")
	url := func(p string) string { return "file://" + p }

	paths := []string{a, b, c, big, empty, d}
	want := [][]string{
		{url(a), url(b), url(c)},
		{url(big)},
		{url(empty), url(d)},
	}
	got := fileSplitURLs(t, paths)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splits = %v, want %v", got, want)
	}
	if again := fileSplitURLs(t, paths); !reflect.DeepEqual(got, again) {
		t.Errorf("requeueing the same paths changed the plan: %v then %v", got, again)
	}
	// The plan follows the given order, not the paths' names.
	reversed := []string{d, empty, big, c, b, a}
	wantRev := [][]string{
		{url(d), url(empty)},
		{url(big)},
		{url(c), url(b), url(a)},
	}
	if got := fileSplitURLs(t, reversed); !reflect.DeepEqual(got, wantRev) {
		t.Errorf("reversed splits = %v, want %v", got, wantRev)
	}
}

func TestTextFileDataMissingPathFailsAtQueue(t *testing.T) {
	dir := t.TempDir()
	ok := sizedFile(t, dir, "ok", 10)
	missing := filepath.Join(dir, "missing.txt")
	exec := NewSerial(testRegistry())
	defer exec.Close()
	job := NewJob(exec)
	defer job.Close()
	_, err := job.TextFileData([]string{ok, missing})
	if err == nil {
		t.Fatal("missing path accepted")
	}
	if !strings.Contains(err.Error(), missing) {
		t.Errorf("error %q does not name %s", err, missing)
	}
}

// A packed split's records are its files' (line number, line) streams
// concatenated in path order, line numbers restarting at 1 per file.
func TestPackedSplitMatchesPerFileReads(t *testing.T) {
	dir := t.TempDir()
	contents := []string{
		"the quick brown fox\nthe lazy dog\n",
		"",
		"no trailing newline\nsecond",
		"crlf line\r\n\r\nafter a blank\r\n",
		"\n\nthird\n",
	}
	var paths []string
	var want []kvio.Pair
	for i, content := range contents {
		p := filepath.Join(dir, fmt.Sprintf("f%d.txt", i))
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		lines := strings.Split(content, "\n")
		if lines[len(lines)-1] == "" {
			lines = lines[:len(lines)-1]
		}
		for n, line := range lines {
			want = append(want, kvio.Pair{
				Key:   codec.EncodeVarint(int64(n + 1)),
				Value: []byte(strings.TrimSuffix(line, "\r")),
			})
		}
	}

	var mu sync.Mutex
	var got []kvio.Pair
	reg := testRegistry()
	reg.RegisterMap("capture", func(key, value []byte, emit kvio.Emitter) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, kvio.Pair{Key: bytes.Clone(key), Value: bytes.Clone(value)})
		return nil
	})
	exec := NewSerial(reg)
	defer exec.Close()
	rt := obs.New(nil)
	job := NewJobWith(exec, JobOptions{Pipeline: true, Obs: rt})
	src, err := job.TextFileData(paths)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumSplits() != 1 {
		t.Fatalf("NumSplits = %d, want 1", src.NumSplits())
	}
	out, err := job.Map(src, "capture", OpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("packed split yielded %d records, files read one by one %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Errorf("record %d = (%x, %q), want (%x, %q)", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	if files, splits := rt.M().Get(obs.MetricInputFiles), rt.M().Get(obs.MetricInputSplits); files != int64(len(paths)) || splits != 1 {
		t.Errorf("input files/splits = %d/%d, want %d/1", files, splits, len(paths))
	}
}
