package bucket

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kvio"
)

var samplePairs = []kvio.Pair{
	kvio.StrPair("alpha", "1"),
	kvio.StrPair("beta", "2"),
	kvio.StrPair("gamma", "3"),
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	d, err := s.Put("ds1/t0/s0", samplePairs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Records != 3 {
		t.Errorf("Records = %d, want 3", d.Records)
	}
	if !strings.HasPrefix(d.URL, "mem:") {
		t.Errorf("URL = %q, want mem scheme", d.URL)
	}
	got, err := s.ReadAll(d.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0].Key) != "alpha" {
		t.Errorf("got %v", got)
	}
}

func TestMemStoreIsolation(t *testing.T) {
	a := NewMemStore()
	b := NewMemStore()
	d, err := a.Put("x", samplePairs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadAll(d.URL); err == nil {
		t.Error("store b resolved store a's mem URL")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Put("ds2/t1/s3", samplePairs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d.URL, "file://") {
		t.Errorf("URL = %q, want file scheme", d.URL)
	}
	got, err := s.ReadAll(d.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[2].Value) != "3" {
		t.Errorf("got %v", got)
	}
}

func TestFileStoreCrossStoreRead(t *testing.T) {
	// file:// URLs must be readable by a different store (shared fs).
	dir := t.TempDir()
	a, _ := NewFileStore(dir, "")
	d, err := a.Put("shared", samplePairs)
	if err != nil {
		t.Fatal(err)
	}
	b := NewMemStore()
	got, err := b.ReadAll(d.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("got %d pairs", len(got))
	}
}

func TestFileStoreBaseURL(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir, "http://node7:9999/data/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Put("ds1/t0/s0", samplePairs)
	if err != nil {
		t.Fatal(err)
	}
	want := "http://node7:9999/data/ds1_t0_s0"
	if d.URL != want {
		t.Errorf("URL = %q, want %q", d.URL, want)
	}
}

func TestHTTPFetch(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	if _, err := s.Put("ds1/t0/s0", samplePairs); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/data/")
		path, err := s.ServeName(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ServeBucket(w, r, path)
	}))
	defer srv.Close()

	client := NewMemStore()
	got, err := client.ReadAll(srv.URL + "/data/ds1_t0_s0")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[1].Key) != "beta" {
		t.Errorf("got %v", got)
	}
}

func TestHTTPFetch404(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	s := NewMemStore()
	if _, err := s.ReadAll(srv.URL + "/data/nope"); err == nil {
		t.Error("expected error for 404")
	}
}

func TestServeNameRejectsTraversal(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	for _, bad := range []string{"..%2Fetc", "a%2Fb", ".hidden", ""} {
		if _, err := s.ServeName(bad); err == nil {
			t.Errorf("ServeName(%q) accepted a dangerous name", bad)
		}
	}
}

func TestRemove(t *testing.T) {
	mem := NewMemStore()
	d, _ := mem.Put("x", samplePairs)
	if err := mem.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ReadAll(d.URL); err == nil {
		t.Error("mem bucket still readable after Remove")
	}
	if err := mem.Remove("x"); err != nil {
		t.Errorf("Remove should be idempotent: %v", err)
	}

	dir := t.TempDir()
	fs, _ := NewFileStore(dir, "")
	fs.Put("y", samplePairs)
	if err := fs.Remove("y"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "y")); !os.IsNotExist(err) {
		t.Error("file bucket still exists after Remove")
	}
	if err := fs.Remove("y"); err != nil {
		t.Errorf("Remove should be idempotent: %v", err)
	}
}

func TestWriterEmitInterface(t *testing.T) {
	s := NewMemStore()
	w, err := s.Create("e")
	if err != nil {
		t.Fatal(err)
	}
	var em kvio.Emitter = w
	if err := em.Emit([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	d, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d.Records != 1 {
		t.Errorf("Records = %d", d.Records)
	}
}

func TestWriteAfterClose(t *testing.T) {
	s := NewMemStore()
	w, _ := s.Create("x")
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(samplePairs[0]); err == nil {
		t.Error("write after close should fail")
	}
	if _, err := w.Close(); err == nil {
		t.Error("double close should fail")
	}
}

func TestEmptyBucket(t *testing.T) {
	s := NewMemStore()
	d, err := s.Put("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAll(d.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestCreateEmptyNameFails(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Create(""); err == nil {
		t.Error("expected error for empty name")
	}
}

// TestAppendAll: AppendAll extends dst in URL order and record order,
// and an error leaves dst as it was.
func TestAppendAll(t *testing.T) {
	s := NewMemStore()
	d1, _ := s.Put("a", samplePairs[:1])
	d2, _ := s.Put("b", samplePairs[1:])
	got, err := s.AppendAll(nil, d1.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = s.AppendAll(got, d2.URL); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0].Key) != "alpha" || string(got[2].Key) != "gamma" {
		t.Errorf("got %v", got)
	}
	kept, err := s.AppendAll(got, "mem:nope")
	if err == nil || len(kept) != len(got) {
		t.Errorf("AppendAll of a missing bucket = %d pairs, %v; want the %d given and an error", len(kept), err, len(got))
	}
}

func TestUnsupportedScheme(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Open("gopher://x"); err == nil {
		t.Error("expected unsupported scheme error")
	}
	if _, err := s.Open("mem:nodelimiter"); err == nil {
		t.Error("expected malformed mem URL error")
	}
}

func TestFlattenCollisionAvoidance(t *testing.T) {
	// Distinct hierarchical names must not collide after flattening in
	// common dataset/task/split naming.
	names := []string{"ds1/t0/s0", "ds1/t0/s1", "ds1/t1/s0", "ds10/t0/s0"}
	seen := map[string]string{}
	for _, n := range names {
		f := flatten(n)
		if prev, ok := seen[f]; ok {
			t.Errorf("flatten collision: %q and %q -> %q", prev, n, f)
		}
		seen[f] = n
	}
}

func BenchmarkMemBucketWrite(b *testing.B) {
	s := NewMemStore()
	for i := 0; i < b.N; i++ {
		w, _ := s.Create(fmt.Sprintf("bench-%d", i))
		for _, p := range samplePairs {
			w.Write(p)
		}
		w.Close()
		s.Remove(fmt.Sprintf("bench-%d", i))
	}
}

// TestSmallBucketAllocatesLittle: writing a 3-record bucket on a memory
// store and on an HTTP-serving store (which keeps it in RAM) allocates
// well under one block's pending buffer: the block writer's buffer is
// pooled, as the legacy writer's bufio was. A fresh 64 KiB buffer per
// bucket would cost every task output split that much.
func TestSmallBucketAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	served, err := NewFileStore(t.TempDir(), "http://127.0.0.1:1/data")
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	for _, s := range []*Store{NewMemStore(), served} {
		put := func() {
			w, err := s.Create("ds1/t0/s0")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range samplePairs {
				if err := w.Write(p); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		put() // warm the pools
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			put()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 8<<10 {
			t.Errorf("in-memory=%v: %d bytes allocated per 3-record bucket, want < 8 KiB", s.InMemory(), per)
		}
	}
}
