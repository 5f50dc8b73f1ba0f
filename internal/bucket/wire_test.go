package bucket

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/kvio"
	"repro/internal/obs"
)

func pairsEqual(a, b []kvio.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i].Key) != string(b[i].Key) || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

// compressiblePairs is 200 records of repeated key and value material,
// about 28 KB of payload.
func compressiblePairs() []kvio.Pair {
	var pairs []kvio.Pair
	for i := 0; i < 200; i++ {
		pairs = append(pairs, kvio.StrPair("repeated-key-material", strings.Repeat("abcdef", 20)))
	}
	return pairs
}

func payloadBytes(pairs []kvio.Pair) int64 {
	var n int64
	for _, p := range pairs {
		n += int64(len(p.Key) + len(p.Value))
	}
	return n
}

// serveStore exposes a store over HTTP the way master/slave do.
func serveStore(s *Store) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/data/")
		path, err := s.ServeName(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ServeBucket(w, r, path)
	}))
}

// TestFileWireBytesCounted: a file:// read counts the at-rest bytes,
// framing included.
func TestFileWireBytesCounted(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	in := compressiblePairs()
	d, err := s.Put("ds1/t0/s0", in)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	s.SetMetrics(m)
	if _, err := s.ReadAll(d.URL); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(strings.TrimPrefix(d.URL, "file://"))
	if err != nil {
		t.Fatal(err)
	}
	if wire := m.Get(obs.MetricWireBytesShared); wire != fi.Size() || wire <= payloadBytes(in) {
		t.Errorf("shared wire bytes = %d, want the file size %d, above the payload %d", wire, fi.Size(), payloadBytes(in))
	}
}

// TestConnectionReuseAcrossFetches is the transport-tuning satellite:
// many sequential bucket fetches against one host must share a single
// TCP connection instead of redialing (the symptom of an untuned
// MaxIdleConnsPerHost once fetches overlap).
func TestConnectionReuseAcrossFetches(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	const buckets = 24
	for i := 0; i < buckets; i++ {
		name := "ds1/t" + string(rune('a'+i)) + "/s0"
		if _, err := server.Put(name, compressiblePairs()); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	conns := map[string]bool{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/data/")
		path, err := server.ServeName(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ServeBucket(w, r, path)
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			conns[c.RemoteAddr().String()] = true
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()

	client := NewMemStore()
	for i := 0; i < buckets; i++ {
		name := "ds1_t" + string(rune('a'+i)) + "_s0"
		if _, err := client.ReadAll(srv.URL + "/data/" + name); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	n := len(conns)
	mu.Unlock()
	if n != 1 {
		t.Errorf("%d buckets used %d connections; sequential fetches must reuse one", buckets, n)
	}
}
