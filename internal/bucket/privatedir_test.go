package bucket

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kvio"
)

// privateStore returns a store with a private directory under a fresh
// TMPDIR, which it returns too.
func privateStore(t *testing.T, baseURL string) (*Store, string) {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	s, err := NewFileStore("", baseURL)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(s.Dir()) != tmp {
		t.Fatalf("private dir %s is not under TMPDIR %s", s.Dir(), tmp)
	}
	return s, tmp
}

func exists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Lstat(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

// A private directory appears with the first bucket past MemBucketMax
// and Close removes it.
func TestPrivateDirMadeAtFirstFile(t *testing.T) {
	s, _ := privateStore(t, "http://127.0.0.1:1/data")
	if _, err := s.Put("j1/ds1/t0/s0", []kvio.Pair{kvio.StrPair("k", "v")}); err != nil {
		t.Fatal(err)
	}
	if exists(t, s.Dir()) {
		t.Fatal("a RAM bucket made the store's directory")
	}
	big := kvio.Pair{Key: []byte("k"), Value: bytes.Repeat([]byte("x"), MemBucketMax+1)}
	if _, err := s.Put("j1/ds1/t1/s0", []kvio.Pair{big}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatalf("a bucket past MemBucketMax did not make the store's directory: %v", err)
	}
	if len(entries) != 1 || filepath.Ext(entries[0].Name()) != BlockExt {
		t.Fatalf("store directory holds %v, want one bucket file", entries)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if exists(t, s.Dir()) {
		t.Fatal("Close left the private directory on disk")
	}
}

// A store that held only RAM buckets touches no directory: a file
// planted at its directory's name survives its job GC and Close, which
// a ReadDir or RemoveAll of that path would have failed on or deleted.
func TestRAMOnlyStoreTouchesNoDirectory(t *testing.T) {
	s, _ := privateStore(t, "http://127.0.0.1:1/data")
	for _, name := range []string{"j1/ds1/t0/s0", "j1/ds1/t1/s0"} {
		if _, err := s.Put(name, []kvio.Pair{kvio.StrPair("k", "v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(s.Dir(), []byte("planted"), 0o600); err != nil {
		t.Fatal(err)
	}
	if n, err := s.JobBuckets(1); err != nil || n != 2 {
		t.Fatalf("JobBuckets = %d, %v; want 2 RAM buckets and no directory read", n, err)
	}
	if n, err := s.RemoveJob(1); err != nil || n != 2 {
		t.Fatalf("RemoveJob = %d, %v; want 2 RAM buckets and no directory read", n, err)
	}
	if err := s.RemoveScratch(s.Scratch("job1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(s.Dir()); err != nil || string(got) != "planted" {
		t.Fatalf("the path Close had no reason to touch reads %q, %v", got, err)
	}
}

// Two stores never share a private directory, and a store whose
// directory's name is already taken fails its first file loudly rather
// than writing into someone else's directory.
func TestPrivateDirsAreExclusive(t *testing.T) {
	a, tmp := privateStore(t, "")
	b, err := NewFileStore("", "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Dir() == b.Dir() || filepath.Dir(b.Dir()) != tmp {
		t.Fatalf("private dirs %s and %s, want two distinct dirs under %s", a.Dir(), b.Dir(), tmp)
	}
	for _, s := range []*Store{a, b} {
		if _, err := s.Put("x", []kvio.Pair{kvio.StrPair("k", "v")}); err != nil {
			t.Fatal(err)
		}
		if entries, err := os.ReadDir(s.Dir()); err != nil || len(entries) != 1 {
			t.Fatalf("%s holds %v (%v), want its own one file", s.Dir(), entries, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	c, err := NewFileStore("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(c.Dir(), 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("x", []kvio.Pair{kvio.StrPair("k", "v")}); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("a file in a taken directory name returned %v, want an exists error", err)
	}
	if err := c.MkScratch(c.Scratch("job1")); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("a scratch dir in a taken directory name returned %v, want an exists error", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(c.Dir()); err != nil || len(entries) != 0 {
		t.Fatalf("the taken directory holds %v (%v) after Close, want it left empty", entries, err)
	}
}

// A scratch directory is made with the private directory it lives in,
// and RemoveScratch removes it with its contents; Close removes the
// rest, and a closed store makes no directory again.
func TestScratchDirLifecycle(t *testing.T) {
	s, _ := privateStore(t, "http://127.0.0.1:1/data")
	dir := s.Scratch("job3")
	if filepath.Dir(dir) != s.Dir() {
		t.Fatalf("scratch %s is not beneath the store's directory %s", dir, s.Dir())
	}
	if err := s.MkScratch(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run"), []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := s.MkScratch(dir); err != nil {
		t.Fatalf("making an existing scratch dir again: %v", err)
	}
	if err := s.RemoveScratch(dir); err != nil {
		t.Fatal(err)
	}
	if exists(t, dir) || !exists(t, s.Dir()) {
		t.Fatal("RemoveScratch did not remove exactly the scratch directory")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if exists(t, s.Dir()) {
		t.Fatal("Close left the private directory on disk")
	}
	if err := s.MkScratch(dir); err == nil || exists(t, s.Dir()) {
		t.Fatalf("a closed store made its directory again (err %v)", err)
	}
}
