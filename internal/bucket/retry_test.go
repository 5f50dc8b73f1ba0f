package bucket

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/hash"
	"repro/internal/obs"
)

// A fetch that retries waits exactly the delays of a Backoff seeded
// from its URL, as when every call built one up front: openHTTP's
// schedule for refused requests, Fetch's own (seed + 2) for a body cut
// short. The happy path counts one HTTP fetch per delivered body.
func TestFetchRetryDelaysFollowURLSeed(t *testing.T) {
	src, err := NewFileStore(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := src.Put("ds1/t0/s0", smallPairs())
	if err != nil {
		t.Fatal(err)
	}
	want, err := src.Fetch(d.URL)
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch requests.Add(1) {
		case 1, 2:
			http.Error(w, "busy", http.StatusServiceUnavailable)
		case 3:
			// Declare the whole body, send half: the client sees an
			// unexpected EOF and Fetch retries the whole bucket.
			w.Header().Set("Content-Length", strconv.Itoa(len(want)))
			w.Write(want[:len(want)/2])
		default:
			path, err := src.ServeName(strings.TrimPrefix(r.URL.Path, "/data/"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			ServeBucket(w, r, path)
		}
	}))
	defer srv.Close()

	var slept []time.Duration
	s := NewMemStore()
	s.sleep = func(d time.Duration) { slept = append(slept, d) }
	m := obs.NewMetrics()
	s.SetMetrics(m)
	url := srv.URL + "/data/ds1_t0_s0"
	got, err := s.Fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) || cap(got) != len(want) {
		t.Errorf("fetched %d bytes (cap %d), want the %d-byte bucket in an exact-size buffer", len(got), cap(got), len(want))
	}
	open := fault.NewBackoff(hash.FNV1a64String(url))
	fetch := fault.NewBackoff(hash.FNV1a64String(url) + 2)
	wantSleeps := []time.Duration{open.Delay(1), open.Delay(2), fetch.Delay(1)}
	if !reflect.DeepEqual(slept, wantSleeps) {
		t.Errorf("slept %v, want %v", slept, wantSleeps)
	}
	if n := m.Snapshot()[obs.MetricBucketHTTPFetches]; n != 2 {
		t.Errorf("http fetches = %d, want 2 (the cut-short body and the whole one)", n)
	}
}
