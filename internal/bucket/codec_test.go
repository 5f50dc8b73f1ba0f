package bucket

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

func TestBlockBucketRoundTripLocal(t *testing.T) {
	for _, name := range wirecodec.Names() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewFileStore(dir, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetCodec(name); err != nil {
				t.Fatal(err)
			}
			in := compressiblePairs()
			d, err := s.Put("ds1/t0/s0", in)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := wirecodec.Lookup(name)
			wantSuffix := BlockExt + c.Ext()
			if !strings.HasSuffix(d.URL, wantSuffix) {
				t.Fatalf("block file URL %q should carry %s", d.URL, wantSuffix)
			}
			if d.Bytes != payloadBytes(in) || d.Records != int64(len(in)) {
				t.Errorf("descriptor %d records / %d bytes, want %d / %d",
					d.Records, d.Bytes, len(in), payloadBytes(in))
			}
			if name != wirecodec.IdentityName {
				fi, err := os.Stat(strings.TrimPrefix(d.URL, "file://"))
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() >= d.Bytes {
					t.Errorf("%s at-rest size %d not smaller than payload %d", name, fi.Size(), d.Bytes)
				}
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
}

func TestSetCodecRejectsUnknown(t *testing.T) {
	s := NewMemStore()
	if err := s.SetCodec("zstd-from-the-future"); err == nil {
		t.Fatal("SetCodec accepted an unregistered codec")
	}
	if err := s.SetCodec(""); err != nil {
		t.Fatalf("SetCodec(\"\") should clear the codec: %v", err)
	}
}

func TestRemoveBlockBucket(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	for _, name := range wirecodec.Names() {
		if err := s.SetCodec(name); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("ds1/t0/s0", compressiblePairs()); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove("ds1/t0/s0"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := s.OpenLocal("ds1/t0/s0"); err == nil {
			t.Fatalf("%s bucket survived Remove", name)
		}
	}
}

// TestBlockBucketServedVerbatim: a client gets the file bytes
// untouched — the zero-CPU path — and the wire counters see the
// compressed size.
func TestBlockBucketServedVerbatim(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	if err := server.SetCodec(wirecodec.LZName); err != nil {
		t.Fatal(err)
	}
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
	atRestBytes, err := os.ReadFile(dir + "/ds1_t0_s0" + BlockExt + wirecodec.LZExt)
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
	wire := m.Get(obs.MetricWireBytesDirect)
	if wire == 0 || wire >= payloadBytes(in) {
		t.Errorf("wire bytes = %d, want 0 < wire < raw %d", wire, payloadBytes(in))
	}
}

func TestCreateOptsOverrides(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	in := compressiblePairs()

	// Plain store, bucket pinned to lz.
	w, err := s.CreateOpts("ds1/t0/s0", CreateOpts{Codec: wirecodec.LZName})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range in {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	d, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := BlockExt + wirecodec.LZExt; !strings.HasSuffix(d.URL, want) {
		t.Fatalf("pinned bucket URL %q should carry %s", d.URL, want)
	}
	if got, err := s.ReadAll(d.URL); err != nil || !pairsEqual(got, in) {
		t.Fatalf("pinned lz bucket round trip: %v", err)
	}

	if _, err := s.CreateOpts("ds1/t0/s2", CreateOpts{Codec: "zstd-from-the-future"}); err == nil {
		t.Fatal("CreateOpts accepted an unknown codec")
	}
}

// TestCorruptBucketFailsClientDecode: the data server sends at-rest
// bytes verbatim without checking them, so a corrupt bucket must fail
// the client's decode — from RAM and from a file, through ReadAll and
// through Fetch followed by a decode — and never yield a clean prefix
// of its records. A block bucket with one flipped payload byte fails
// its CRC; a legacy bucket cut mid-record fails its framing. (A legacy
// bucket cut exactly at a record boundary is a valid shorter stream
// and cannot be detected; see DESIGN.md §5.)
func TestCorruptBucketFailsClientDecode(t *testing.T) {
	in := smallPairs()
	forms := []struct {
		name    string
		setup   func(*Store) error
		corrupt func([]byte) []byte
		want    error // nil: any decode error
	}{
		{"block-flipped-byte", func(s *Store) error { return s.SetCodec(wirecodec.IdentityName) },
			func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }, kvio.ErrBlockChecksum},
		{"legacy-cut-mid-record", func(*Store) error { return nil },
			func(b []byte) []byte { return b[:len(b)-1] }, nil},
	}
	for _, form := range forms {
		for _, ram := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/ram=%v", form.name, ram), func(t *testing.T) {
				s, srv := servedStore(t, ram, form.setup)
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
