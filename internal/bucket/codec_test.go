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
		// Via the URL and via OpenLocal + sniffing reader.
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

// TestLegacyBucketStaysReadable: stores write only blocks, but a legacy
// per-record bucket file (left in a store directory by a store that
// wrote that form) still reads through every path: its file:// URL
// with ReadAll, Fetch then kvio.Walk, OpenLocal then kvio.NewAnyReader
// (the plain-path probe), and served over HTTP.
func TestLegacyBucketStaysReadable(t *testing.T) {
	in := smallPairs()
	var legacy bytes.Buffer
	w := kvio.NewWriter(&legacy)
	for _, p := range in {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Release()
	// Written after the store opened its directory, so the store has not
	// indexed it and finds it only by probing.
	s, srv := servedStore(t, false)
	path := filepath.Join(s.Dir(), "ds1_t0_s0")
	if err := os.WriteFile(path, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(how string, got []kvio.Pair, err error) {
		t.Helper()
		if err != nil || !pairsEqual(got, in) {
			t.Errorf("%s: %d of %d records, %v", how, len(got), len(in), err)
		}
	}
	got, err := s.ReadAll("file://" + path)
	check("ReadAll", got, err)
	data, err := s.Fetch("file://" + path)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	err = kvio.Walk(data, func(k, v []byte) error {
		got = append(got, kvio.Pair{Key: k, Value: v})
		return nil
	})
	check("Fetch+Walk", got, err)
	rc, err := s.OpenLocal("ds1/t0/s0")
	if err != nil {
		t.Fatal(err)
	}
	r := kvio.NewAnyReader(rc)
	got, err = r.ReadAll()
	r.Release()
	rc.Close()
	check("OpenLocal+NewAnyReader", got, err)
	got, err = NewMemStore().ReadAll(srv.URL + "/data/ds1_t0_s0")
	check("served", got, err)
}

// TestCorruptBucketFailsClientDecode: the data server sends at-rest
// bytes verbatim without checking them, so a corrupt bucket must fail
// the client's decode — from RAM and from a file, through ReadAll and
// through Fetch followed by a decode — and never yield a clean prefix
// of its records. A block bucket with one flipped payload byte fails
// its CRC; a legacy bucket cut mid-record fails its framing. (A legacy
// bucket cut exactly at a record boundary is a valid shorter stream
// and cannot be detected; see DESIGN.md §5. Stores no longer write
// legacy buckets, so that case puts one at rest in place of the
// block bucket.)
func TestCorruptBucketFailsClientDecode(t *testing.T) {
	in := smallPairs()
	legacy := kvio.Marshal(in)
	forms := []struct {
		name    string
		corrupt func([]byte) []byte
		want    error // nil: any decode error
	}{
		{"block-flipped-byte",
			func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }, kvio.ErrBlockChecksum},
		{"legacy-cut-mid-record",
			func([]byte) []byte { return legacy[:len(legacy)-1] }, nil},
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
					if form.want != nil && !errors.Is(err, form.want) {
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
