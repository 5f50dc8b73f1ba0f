package bucket

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kvio"
	"repro/internal/obs"
)

// The store tests below run as a case named "identity": identity row
// blocks are the one at-rest form a store writes.

// smallPairs is a bucket well under MemBucketMax.
func smallPairs() []kvio.Pair {
	var out []kvio.Pair
	for i := 0; i < 200; i++ {
		out = append(out, kvio.StrPair(fmt.Sprintf("key%03d", i%37), strings.Repeat("v", i%11)))
	}
	return out
}

// bigPairs is a bucket past MemBucketMax: 64 values of 2 KiB of
// pseudorandom letters.
func bigPairs() []kvio.Pair {
	var out []kvio.Pair
	x := uint32(1)
	for i := 0; i < 64; i++ {
		v := make([]byte, 2048)
		for j := range v {
			x = x*1664525 + 1013904223
			v[j] = 'a' + byte(x>>24)%26
		}
		out = append(out, kvio.Pair{Key: []byte(fmt.Sprintf("big%02d", i)), Value: v})
	}
	return out
}

// servedStore starts a data server the way a slave runs one (ServeName
// then ServeBucket) and returns its store: HTTP-serving when ram is
// set, file-only otherwise.
func servedStore(t *testing.T, ram bool) (*Store, *httptest.Server) {
	t.Helper()
	var s *Store
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path, err := s.ServeName(strings.TrimPrefix(r.URL.Path, "/data/"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ServeBucket(w, r, path)
	}))
	t.Cleanup(srv.Close)
	base := ""
	if ram {
		base = srv.URL + "/data"
	}
	s, err := NewFileStore(t.TempDir(), base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, srv
}

// filesIn lists the regular files in dir.
func filesIn(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out
}

// A small bucket holds exactly the same at-rest bytes under the same
// at-rest name whichever store writes it: an HTTP-serving store's RAM,
// the same kind of store once its RAM budget is full (the bucket spills
// to a file), and a file-only store; a memory store holds the same
// bytes too. All of them are identity row blocks.
func TestRAMBucketMatchesFileBytes(t *testing.T) {
	t.Run("identity", func(t *testing.T) {
		ram, _ := servedStore(t, true)
		spilled, _ := servedStore(t, true)
		file, _ := servedStore(t, false)
		mem := NewMemStore()
		// A RAM bucket the size of the whole budget leaves no room, so every
		// bucket the store writes after it goes to a file.
		if !spilled.insertMem("filler", atRest{}, make([]byte, MemStoreBudget)) {
			t.Fatal("could not fill the RAM budget")
		}
		for _, s := range []*Store{ram, spilled, file, mem} {
			if _, err := s.Put("ds1/t0/s0", smallPairs()); err != nil {
				t.Fatal(err)
			}
		}
		if got := filesIn(t, ram.Dir()); len(got) != 0 {
			t.Fatalf("small bucket reached the disk: %v", got)
		}
		ar, err := ram.lookup("ds1_t0_s0")
		if err != nil || ar.data == nil {
			t.Fatalf("no RAM bucket: %v", err)
		}
		names := filesIn(t, file.Dir())
		if len(names) != 1 || names[0] != "ds1_t0_s0"+BlockExt {
			t.Fatalf("file store holds %v, want [ds1_t0_s0%s]", names, BlockExt)
		}
		if filepath.Base(ar.path) != names[0] {
			t.Errorf("RAM bucket form %q, file form %q", filepath.Base(ar.path), names[0])
		}
		want, err := os.ReadFile(filepath.Join(file.Dir(), names[0]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(want, kvio.BlockMagic[:]) {
			t.Errorf("bucket file starts %x, want the block magic", want[:min(len(want), 8)])
		}
		if !bytes.Equal(ar.data, want) {
			t.Errorf("RAM bytes (%d) differ from file bytes (%d)", len(ar.data), len(want))
		}
		spilledNames := filesIn(t, spilled.Dir())
		if len(spilledNames) != 1 || spilledNames[0] != names[0] {
			t.Fatalf("spilled store holds %v, want [%s]", spilledNames, names[0])
		}
		if sr, err := spilled.lookup("ds1_t0_s0"); err != nil || sr.data != nil {
			t.Fatalf("spilled bucket still resolves to RAM (err %v)", err)
		}
		got, err := os.ReadFile(filepath.Join(spilled.Dir(), spilledNames[0]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("spilled bytes (%d) differ from file bytes (%d)", len(got), len(want))
		}
		mr, err := mem.lookup("ds1_t0_s0")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mr.data, want) {
			t.Errorf("memory-store bytes (%d) differ from file bytes (%d)", len(mr.data), len(want))
		}
	})
}

// ServeBucket sends a bucket verbatim, with Content-Length and no
// content coding, from RAM and from a file alike, whatever negotiation
// headers an older client sends.
func TestServeBucketRAMMatchesFile(t *testing.T) {
	oldHeaders := map[string]string{
		"X-Mrs-Accept-Codec": "lz,deflate,identity",
		"Accept-Encoding":    "deflate",
	}
	rows := []struct {
		name    string
		headers map[string]string
	}{
		{"identity", nil},
		{"identity-old-headers", oldHeaders},
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	get := func(t *testing.T, url string, headers map[string]string) (http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", url, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header, body
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ram, ramSrv := servedStore(t, true)
			file, fileSrv := servedStore(t, false)
			var bodies [2][]byte
			for i, side := range []struct {
				s   *Store
				url string
			}{{ram, ramSrv.URL}, {file, fileSrv.URL}} {
				if _, err := side.s.Put("ds1/t0/s0", smallPairs()); err != nil {
					t.Fatal(err)
				}
				rc, err := side.s.OpenLocal("ds1/t0/s0")
				if err != nil {
					t.Fatal(err)
				}
				atRest, err := io.ReadAll(rc)
				rc.Close()
				if err != nil {
					t.Fatal(err)
				}
				h, body := get(t, side.url+"/data/ds1_t0_s0", row.headers)
				if !bytes.Equal(body, atRest) {
					t.Errorf("ram=%v: body (%d bytes) differs from the at-rest bytes (%d)", i == 0, len(body), len(atRest))
				}
				if got, want := h.Get("Content-Length"), fmt.Sprint(len(atRest)); got != want {
					t.Errorf("ram=%v: Content-Length %q, want %q", i == 0, got, want)
				}
				for _, name := range []string{"Content-Encoding", "X-Mrs-Codec"} {
					if v := h.Get(name); v != "" {
						t.Errorf("ram=%v: %s: %q, want none", i == 0, name, v)
					}
				}
				bodies[i] = body
			}
			if len(filesIn(t, ram.Dir())) != 0 {
				t.Fatal("RAM-side bucket went to a file")
			}
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Errorf("RAM body (%d bytes) differs from file body (%d bytes)", len(bodies[0]), len(bodies[1]))
			}
			kr := kvio.NewAnyReader(bytes.NewReader(bodies[0]))
			got, err := kr.ReadAll()
			kr.Release()
			if err != nil {
				t.Fatal(err)
			}
			if !pairsEqual(got, smallPairs()) {
				t.Errorf("served body decodes to %d records, want %d", len(got), len(smallPairs()))
			}
		})
	}
}

// A bucket that passes MemBucketMax mid-write continues in a file and is
// published there.
func TestSpillPastThreshold(t *testing.T) {
	t.Run("identity", func(t *testing.T) {
		s, _ := servedStore(t, true)
		m := obs.NewMetrics()
		s.SetMetrics(m)
		d, err := s.Put("ds1/t0/s0", bigPairs())
		if err != nil {
			t.Fatal(err)
		}
		if n := len(filesIn(t, s.Dir())); n != 1 {
			t.Fatalf("%d files after a spilled bucket, want 1", n)
		}
		if ar, err := s.lookup("ds1_t0_s0"); err != nil || ar.data != nil {
			t.Error("spilled bucket still resolves to RAM")
		}
		snap := m.Snapshot()
		if snap[obs.MetricBucketSpilled] != 1 || snap[obs.MetricBucketPublishedFile] != 1 || snap[obs.MetricBucketPublishedMem] != 0 {
			t.Errorf("spilled=%d file=%d mem=%d, want 1/1/0", snap[obs.MetricBucketSpilled],
				snap[obs.MetricBucketPublishedFile], snap[obs.MetricBucketPublishedMem])
		}
		got, err := s.ReadAll(d.URL)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, bigPairs()) {
			t.Error("spilled bucket lost data")
		}
	})
}

// Once the store's RAM is at MemStoreBudget, a bucket that fits the
// per-bucket threshold still goes to a file; freeing RAM makes room.
func TestSpillWhenBudgetFull(t *testing.T) {
	s, _ := servedStore(t, true)
	m := obs.NewMetrics()
	s.SetMetrics(m)
	value := strings.Repeat("x", MemBucketMax/2)
	put := func(name string) {
		t.Helper()
		if _, err := s.Put(name, []kvio.Pair{kvio.StrPair("k", value)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for len(filesIn(t, s.Dir())) == 0 {
		put(fmt.Sprintf("j1/b%d", n))
		n++
		if n > 2*MemStoreBudget/len(value) {
			t.Fatal("budget never filled")
		}
	}
	held := m.Snapshot()[obs.MetricBucketMemBytes]
	if held > MemStoreBudget || held+int64(len(value)) <= MemStoreBudget {
		t.Errorf("RAM held %d when a bucket of %d spilled, budget %d", held, len(value), MemStoreBudget)
	}
	if m.Snapshot()[obs.MetricBucketSpilled] != 1 {
		t.Errorf("spilled = %d, want 1", m.Snapshot()[obs.MetricBucketSpilled])
	}
	if err := s.Remove("j1/b0"); err != nil {
		t.Fatal(err)
	}
	put("j1/again")
	if ar, err := s.lookup("j1_again"); err != nil || ar.data == nil {
		t.Errorf("bucket after freeing RAM not held in RAM (err %v)", err)
	}
	if got, _ := s.JobBuckets(1); got != n {
		t.Errorf("JobBuckets = %d, want %d", got, n)
	}
}

// Duplicate attempts: the last publish wins in either backing, and a
// reader holding an earlier RAM bucket reads it unaffected.
func TestDuplicatePublishLastWins(t *testing.T) {
	s, _ := servedStore(t, true)
	first := []kvio.Pair{kvio.StrPair("attempt", "one")}
	second := []kvio.Pair{kvio.StrPair("attempt", "two")}
	d, err := s.Put("ds1/t0/s0", first)
	if err != nil {
		t.Fatal(err)
	}
	early, err := s.OpenLocal("ds1/t0/s0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("ds1/t0/s0", second); err != nil {
		t.Fatal(err)
	}
	r := kvio.NewAnyReader(early)
	got, err := r.ReadAll()
	r.Release()
	if err != nil || !pairsEqual(got, first) {
		t.Errorf("earlier reader got %v (%v), want the first attempt", got, err)
	}
	if got, err := s.ReadAll(d.URL); err != nil || !pairsEqual(got, second) {
		t.Errorf("after second publish got %v (%v), want the second attempt", got, err)
	}

	// A file publish after a RAM one wins, and vice versa.
	if _, err := s.Put("ds1/t0/s0", bigPairs()); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadAll(d.URL); err != nil || !pairsEqual(got, bigPairs()) {
		t.Errorf("file publish after RAM did not win (%v)", err)
	}
	if _, err := s.Put("ds1/t0/s0", first); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadAll(d.URL); err != nil || !pairsEqual(got, first) {
		t.Errorf("RAM publish after file did not win (%v)", err)
	}
	// The superseded file is gone, not left for lookup to find once the
	// RAM copy is removed.
	if got := filesIn(t, s.Dir()); len(got) != 0 {
		t.Errorf("files after a RAM publish replaced a file: %v, want none", got)
	}
	if err := s.Remove("ds1/t0/s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenLocal("ds1/t0/s0"); err == nil {
		t.Error("an earlier attempt's file still opens after Remove")
	}
}

// Removal costs what the bucket's backing costs: nothing for a RAM
// bucket or a name the store never wrote (a freed bucket another node
// owns), one unlink for a file bucket the store published or found on
// reopening its directory.
func TestRemoveUnlinkCounts(t *testing.T) {
	t.Run("identity", func(t *testing.T) {
		s, _ := servedStore(t, true)
		m := obs.NewMetrics()
		s.SetMetrics(m)
		unlinks := func() int64 { return m.Snapshot()[obs.MetricBucketUnlinks] }
		if _, err := s.Put("ds1/t0/s0", smallPairs()); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"ds1/t0/s0", "ds1/t0/s0", "ds9/t3/s1"} {
			if err := s.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		if n := unlinks(); n != 0 {
			t.Errorf("removing a RAM bucket and unknown names: %d unlinks, want 0", n)
		}
		for _, name := range []string{"ds2/t0/s0", "ds2/t1/s0"} {
			if _, err := s.Put(name, bigPairs()); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Remove("ds2/t0/s0"); err != nil {
			t.Fatal(err)
		}
		if n := unlinks(); n != 1 {
			t.Errorf("removing an own file bucket: %d unlinks, want 1", n)
		}
		if err := s.Remove("ds2/t0/s0"); err != nil {
			t.Fatal(err)
		}
		if n := unlinks(); n != 1 {
			t.Errorf("removing it again: %d unlinks, want still 1", n)
		}

		// A store reopened over the directory (a restarted node)
		// removes the file it finds with one unlink too.
		re, err := NewFileStore(s.Dir(), "")
		if err != nil {
			t.Fatal(err)
		}
		m2 := obs.NewMetrics()
		re.SetMetrics(m2)
		if err := re.Remove("ds2/t1/s0"); err != nil {
			t.Fatal(err)
		}
		if n := m2.Snapshot()[obs.MetricBucketUnlinks]; n != 1 {
			t.Errorf("removing a reopened store's file: %d unlinks, want 1", n)
		}
		if got := filesIn(t, s.Dir()); len(got) != 0 {
			t.Errorf("files left after removing both: %v", got)
		}
	})
}

// RemoveFile deletes a shared-directory bucket by its file:// path,
// whichever store wrote it.
func TestRemoveFilePeerBucket(t *testing.T) {
	t.Run("identity", func(t *testing.T) {
		peer, _ := servedStore(t, false)
		d, err := peer.Put("ds1/t0/s0", smallPairs())
		if err != nil {
			t.Fatal(err)
		}
		master, err := NewFileStore(t.TempDir(), "")
		if err != nil {
			t.Fatal(err)
		}
		m := obs.NewMetrics()
		master.SetMetrics(m)
		if err := master.RemoveFile(strings.TrimPrefix(d.URL, "file://")); err != nil {
			t.Fatal(err)
		}
		if got := filesIn(t, peer.Dir()); len(got) != 0 {
			t.Errorf("files left after RemoveFile: %v", got)
		}
		if n := m.Snapshot()[obs.MetricBucketUnlinks]; n != 1 {
			t.Errorf("RemoveFile: %d unlinks, want 1", n)
		}
	})
}

// Remove and RemoveJob clear a job's buckets from RAM and from files.
func TestRemoveClearsBothBackings(t *testing.T) {
	s, srv := servedStore(t, true)
	for _, b := range []struct {
		name  string
		pairs []kvio.Pair
	}{
		{"j1/ds1/t0/s0", smallPairs()}, {"j1/ds1/t1/s0", bigPairs()},
		{"j10/ds1/t0/s0", smallPairs()}, {"j10/ds1/t1/s0", bigPairs()},
		{"loose/small", smallPairs()}, {"loose/big", bigPairs()},
	} {
		if _, err := s.Put(b.name, b.pairs); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.JobBuckets(1); n != 2 {
		t.Fatalf("JobBuckets(1) = %d, want 2", n)
	}
	n, err := s.RemoveJob(1)
	if err != nil || n != 2 {
		t.Fatalf("RemoveJob(1) = %d, %v; want 2", n, err)
	}
	if n, _ := s.JobBuckets(1); n != 0 {
		t.Errorf("JobBuckets(1) = %d after RemoveJob, want 0", n)
	}
	if n, _ := s.JobBuckets(10); n != 2 {
		t.Errorf("JobBuckets(10) = %d, want 2 (prefix must not match j1)", n)
	}
	for _, name := range []string{"loose/small", "loose/big"} {
		if err := s.Remove(name); err != nil {
			t.Fatal(err)
		}
		if _, err := s.OpenLocal(name); err == nil {
			t.Errorf("%s still opens after Remove", name)
		}
		resp, err := http.Get(srv.URL + "/data/" + flatten(name))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s served %s after Remove", name, resp.Status)
		}
	}
}

// failingTransport counts requests and fails them all.
type failingTransport struct{ n atomic.Int64 }

func (f *failingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	f.n.Add(1)
	return nil, fmt.Errorf("no network in this test")
}

// Opening a URL under the store's own base URL reads it in-process: no
// HTTP request, no wire bytes, and one local open.
func TestOpenOwnURLIsLocal(t *testing.T) {
	for _, big := range []bool{false, true} {
		s, err := NewFileStore(t.TempDir(), "http://127.0.0.1:1/data")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ft := &failingTransport{}
		s.SetHTTPClient(&http.Client{Transport: ft})
		m := obs.NewMetrics()
		s.SetMetrics(m)
		pairs := smallPairs()
		if big {
			pairs = bigPairs()
		}
		d, err := s.Put("ds1/t0/s0", pairs)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Local(d.URL) || s.Local("http://127.0.0.1:2/data/ds1_t0_s0") {
			t.Errorf("Local misclassifies %s", d.URL)
		}
		got, err := s.ReadAll(d.URL)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, pairs) {
			t.Error("local open lost data")
		}
		data, err := s.Fetch(d.URL)
		if err != nil || len(data) == 0 {
			t.Fatalf("Fetch of own URL: %d bytes, %v", len(data), err)
		}
		if n := ft.n.Load(); n != 0 {
			t.Errorf("%d HTTP requests for the store's own bucket", n)
		}
		snap := m.Snapshot()
		if snap[obs.MetricBucketLocalOpens] != 2 {
			t.Errorf("local opens = %d, want 2", snap[obs.MetricBucketLocalOpens])
		}
		if snap[obs.MetricWireBytesDirect] != 0 {
			t.Errorf("local opens counted %d wire bytes", snap[obs.MetricWireBytesDirect])
		}
	}
}

// A closed store's RAM buckets are gone, as on a dead node.
func TestCloseDropsRAMBuckets(t *testing.T) {
	s, srv := servedStore(t, true)
	if _, err := s.Put("ds1/t0/s0", smallPairs()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	resp, err := http.Get(srv.URL + "/data/ds1_t0_s0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("closed store still serves its RAM bucket: %s", resp.Status)
	}
}

// Concurrent writers, readers, the data server and removals on one
// store, with buckets on both sides of the threshold. Run under -race.
func TestStoreConcurrentStress(t *testing.T) {
	s, srv := servedStore(t, true)
	fetcher := NewMemStore()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				job := int64(1 + i%3)
				name := fmt.Sprintf("j%d/ds1/t%d/s%d", job, g, i%4)
				pairs := smallPairs()
				if (g+i)%5 == 0 {
					pairs = bigPairs()
				}
				d, err := s.Put(name, pairs)
				if err != nil {
					errs <- err
					return
				}
				// The bucket may be removed concurrently; a read either
				// sees a whole bucket or fails cleanly.
				for _, u := range []string{d.URL, srv.URL + "/data/" + flatten(name)} {
					var got []kvio.Pair
					if u == d.URL {
						got, err = s.ReadAll(u)
					} else {
						got, err = fetcher.ReadAll(u)
					}
					if err == nil && len(got) != len(smallPairs()) && len(got) != len(bigPairs()) {
						errs <- fmt.Errorf("%s: torn read of %d records", u, len(got))
						return
					}
				}
				switch i % 7 {
				case 3:
					s.Remove(name)
				case 6:
					s.RemoveJob(job)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
