package bucket

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/kvio"
	"repro/internal/obs"
)

// TestBlockBucketRoundTripLocal: a file store publishes a bucket as a
// BlockExt file whose descriptor counts the records and payload, and
// it reads back through its URL and through OpenLocal. The case is
// named for the one at-rest form a store writes.
func TestBlockBucketRoundTripLocal(t *testing.T) {
	t.Run("identity", func(t *testing.T) {
		s, err := NewFileStore(t.TempDir(), "")
		if err != nil {
			t.Fatal(err)
		}
		in := compressiblePairs()
		d, err := s.Put("ds1/t0/s0", in)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(d.URL, BlockExt) {
			t.Fatalf("block file URL %q should carry %s", d.URL, BlockExt)
		}
		if d.Bytes != payloadBytes(in) || d.Records != int64(len(in)) {
			t.Errorf("descriptor %d records / %d bytes, want %d / %d",
				d.Records, d.Bytes, len(in), payloadBytes(in))
		}
		// Via the URL and via OpenLocal + kvio.NewAnyReader.
		got, err := s.ReadAll(d.URL)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, in) {
			t.Fatal("block round trip via URL lost data")
		}
		rc, err := s.OpenLocal("ds1/t0/s0")
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		r := kvio.NewAnyReader(rc)
		defer r.Release()
		got, err = r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, in) {
			t.Fatal("block round trip via OpenLocal lost data")
		}
	})
}

func TestRemoveBlockBucket(t *testing.T) {
	s, _ := NewFileStore(t.TempDir(), "")
	if _, err := s.Put("ds1/t0/s0", compressiblePairs()); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("ds1/t0/s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenLocal("ds1/t0/s0"); err == nil {
		t.Fatal("block bucket survived Remove")
	}
}

// TestBlockBucketServedVerbatim: a client gets the file bytes
// untouched — the zero-CPU path — and the wire counters see exactly
// the at-rest size.
func TestBlockBucketServedVerbatim(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	in := compressiblePairs()
	if _, err := server.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	srv := serveStore(server)
	defer srv.Close()
	url := srv.URL + "/data/ds1_t0_s0"

	// Raw HTTP first: the response must match the file.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	atRestBytes, err := os.ReadFile(dir + "/ds1_t0_s0" + BlockExt)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(atRestBytes) {
		t.Error("verbatim response differs from the at-rest file")
	}

	// Through the store client: decoded records and wire counters.
	m := obs.NewMetrics()
	client := NewMemStore()
	client.SetMetrics(m)
	got, err := client.ReadAll(url)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, in) {
		t.Fatal("block HTTP round trip lost data")
	}
	if wire := m.Get(obs.MetricWireBytesDirect); wire != int64(len(atRestBytes)) {
		t.Errorf("wire bytes = %d, want the at-rest size %d", wire, len(atRestBytes))
	}
}

// TestLegacyBucketRefused: stores read only block framing, so a
// per-record stream at rest under the plain bucket name (left in a
// store directory by an older build) is refused. Through its file://
// URL, ReadAll, Fetch then kvio.Walk, and kvio.NewAnyReader on Open
// fail with ErrBlockCorrupt naming the missing magic and no records;
// OpenLocal and the HTTP URL, which resolve only BlockExt files, find
// no bucket, and RemoveJob, which lists the directory, deletes such a
// file of the job's.
func TestLegacyBucketRefused(t *testing.T) {
	var legacy bytes.Buffer
	w := kvio.NewWriter(&legacy)
	for _, p := range smallPairs() {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Release()
	// Written after the store opened its directory, so the store has not
	// indexed it and could find it only by probing.
	s, srv := servedStore(t, false)
	path := filepath.Join(s.Dir(), "ds1_t0_s0")
	if err := os.WriteFile(path, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	refused := func(how string, got []kvio.Pair, err error) {
		t.Helper()
		if !errors.Is(err, kvio.ErrBlockCorrupt) || !strings.Contains(err.Error(), "missing block magic") || len(got) != 0 {
			t.Errorf("%s: %d records, %v; want 0 and ErrBlockCorrupt naming the missing magic", how, len(got), err)
		}
	}
	got, err := s.ReadAll("file://" + path)
	refused("ReadAll", got, err)
	data, err := s.Fetch("file://" + path)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	err = kvio.Walk(data, func(k, v []byte) error {
		got = append(got, kvio.Pair{Key: k, Value: v})
		return nil
	})
	refused("Fetch+Walk", got, err)
	rc, err := s.Open("file://" + path)
	if err != nil {
		t.Fatal(err)
	}
	r := kvio.NewAnyReader(rc)
	got, err = r.ReadAll()
	r.Release()
	rc.Close()
	refused("Open+NewAnyReader", got, err)

	if _, err := s.OpenLocal("ds1/t0/s0"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("OpenLocal: %v, want not-found", err)
	}
	client := NewMemStore()
	client.sleep = func(time.Duration) {}
	if got, err := client.ReadAll(srv.URL + "/data/ds1_t0_s0"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("served: %d records, %v; want 404 Not Found", len(got), err)
	}
	// RemoveJob lists the directory, so it still reclaims such a file.
	jobFile := filepath.Join(s.Dir(), jobPrefix(7)+"ds1_t0_s0")
	if err := os.WriteFile(jobFile, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := s.RemoveJob(7); err != nil || n != 1 {
		t.Errorf("RemoveJob: %d buckets, %v; want the legacy file", n, err)
	}
	if _, err := os.Stat(jobFile); !os.IsNotExist(err) {
		t.Errorf("legacy job file after RemoveJob: %v", err)
	}
}

// TestCorruptBucketFailsClientDecode: the data server sends at-rest
// bytes verbatim without checking them, so a corrupt bucket must fail
// the client's decode — from RAM and from a file, through ReadAll and
// through Fetch followed by a decode — and never yield a clean prefix
// of its records. A block bucket with one flipped payload byte fails
// its CRC; one cut mid-block is torn.
func TestCorruptBucketFailsClientDecode(t *testing.T) {
	in := smallPairs()
	forms := []struct {
		name    string
		corrupt func([]byte) []byte
		want    error
	}{
		{"block-flipped-byte",
			func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }, kvio.ErrBlockChecksum},
		{"block-cut-mid-block",
			func(b []byte) []byte { return b[:len(b)-1] }, io.ErrUnexpectedEOF},
	}
	for _, form := range forms {
		for _, ram := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/ram=%v", form.name, ram), func(t *testing.T) {
				s, srv := servedStore(t, ram)
				if _, err := s.Put("ds1/t0/s0", in); err != nil {
					t.Fatal(err)
				}
				corruptAtRest(t, s, "ds1_t0_s0", form.corrupt)
				url := srv.URL + "/data/ds1_t0_s0"
				client := NewMemStore()
				client.sleep = func(time.Duration) {}
				check := func(how string, got []kvio.Pair, err error) {
					t.Helper()
					if err == nil {
						t.Fatalf("%s: corrupt bucket decoded cleanly to %d of %d records", how, len(got), len(in))
					}
					if !errors.Is(err, form.want) {
						t.Errorf("%s: error %v, want %v", how, err, form.want)
					}
				}
				got, err := client.ReadAll(url)
				check("ReadAll", got, err)
				if got != nil {
					t.Errorf("ReadAll returned %d records with its error", len(got))
				}
				data, err := client.Fetch(url)
				if err != nil {
					t.Fatalf("Fetch: %v", err)
				}
				r := kvio.NewAnyReader(bytes.NewReader(data))
				got, err = r.ReadAll()
				r.Release()
				check("Fetch+decode", got, err)
			})
		}
	}
}

// corruptAtRest rewrites the at-rest bytes of the store's bucket flat
// in place, in whichever backing holds it.
func corruptAtRest(t *testing.T, s *Store, flat string, corrupt func([]byte) []byte) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if ar, ok := s.mem[flat]; ok {
		old := len(ar.data)
		ar.data = corrupt(append([]byte(nil), ar.data...))
		s.mem[flat] = ar
		s.memBytes += int64(len(ar.data) - old)
		return
	}
	path := s.files[flat]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
