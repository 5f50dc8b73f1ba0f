package bucket

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestBlockBucketServedVerbatim: a client advertising the at-rest codec
// gets the file bytes untouched — the zero-CPU path — with the codec
// named in the response header, and the wire counters see the
// compressed size split per codec.
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

	// Raw HTTP first: response must name the codec and match the file.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(wirecodec.RequestHeader, wirecodec.AcceptHeader())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(wirecodec.CodecHeader); got != wirecodec.LZName {
		t.Errorf("CodecHeader = %q, want %q", got, wirecodec.LZName)
	}
	atRestBytes, err := os.ReadFile(dir + "/ds1_t0_s0" + BlockExt + wirecodec.LZExt)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(atRestBytes) {
		t.Error("verbatim response differs from the at-rest file")
	}

	// Through the store client: decoded records and per-codec counters.
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
	perCodec := m.Get(obs.MetricWireBytesCodec(wirecodec.LZName))
	if wire == 0 || wire >= payloadBytes(in) {
		t.Errorf("wire bytes = %d, want 0 < wire < raw %d", wire, payloadBytes(in))
	}
	if perCodec != wire {
		t.Errorf("per-codec wire bytes = %d, want %d (all bytes moved under lz)", perCodec, wire)
	}
}

// TestNegotiationUnknownCodecFallsBackToIdentity is the mixed-version
// guarantee: a client advertising only a codec this server has never
// heard of still gets blocks — identity-encoded — and decodes the
// byte-identical record sequence.
func TestNegotiationUnknownCodecFallsBackToIdentity(t *testing.T) {
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

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/data/ds1_t0_s0", nil)
	req.Header.Set(wirecodec.RequestHeader, "zstd-from-the-future")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(wirecodec.CodecHeader); got != wirecodec.IdentityName {
		t.Errorf("CodecHeader = %q, want identity fallback", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The body must be identity-encoded blocks: byte-identical to the
	// at-rest file transcoded to identity, and decodable without lz.
	r := kvio.NewAnyReader(strings.NewReader(string(body)))
	defer r.Release()
	pairs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(pairs, in) {
		t.Fatal("identity-fallback response lost data")
	}
	// Every payload byte is uncompressed: the body must be at least as
	// large as the raw payload.
	if int64(len(body)) < payloadBytes(in) {
		t.Errorf("identity body %d bytes < payload %d; still compressed?", len(body), payloadBytes(in))
	}
}

// TestBlockBucketLegacyClients: pre-block clients (no codec header) get
// a legacy record stream they can already parse — deflate-wrapped when
// they accept it, identity otherwise.
func TestBlockBucketLegacyClients(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	if err := server.SetCodec(wirecodec.DeflateName); err != nil {
		t.Fatal(err)
	}
	in := compressiblePairs()
	if _, err := server.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	srv := serveStore(server)
	defer srv.Close()
	url := srv.URL + "/data/ds1_t0_s0"

	// Identity legacy client: plain record stream, no headers needed.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept-Encoding", "identity") // suppress Go's implicit gzip
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity legacy client got Content-Encoding %q", enc)
	}
	if ch := resp.Header.Get(wirecodec.CodecHeader); ch != "" {
		t.Fatalf("legacy client got CodecHeader %q", ch)
	}
	kr := kvio.NewReader(resp.Body) // strictly the legacy reader
	defer kr.Release()
	got, err := kr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, in) {
		t.Fatal("legacy identity client lost data")
	}

	// Deflate legacy client: the old wire form, via the store with its
	// codec advertisement stripped (simulating a pre-block binary).
	req2, _ := http.NewRequest(http.MethodGet, url, nil)
	req2.Header.Set("Accept-Encoding", "deflate")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if enc := resp2.Header.Get("Content-Encoding"); enc != "deflate" {
		t.Fatalf("deflate legacy client got Content-Encoding %q", enc)
	}
	dc, _ := wirecodec.Lookup(wirecodec.DeflateName)
	fr := dc.NewReader(resp2.Body)
	kr2 := kvio.NewReader(fr)
	got2, err := kr2.ReadAll()
	kr2.Release()
	fr.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got2, in) {
		t.Fatal("legacy deflate client lost data")
	}
}

// TestBlockBucketTranscodeBetweenCodecs: a client that decodes deflate
// but not lz gets the lz at-rest file transcoded block-to-block.
func TestBlockBucketTranscodeBetweenCodecs(t *testing.T) {
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

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/data/ds1_t0_s0", nil)
	req.Header.Set(wirecodec.RequestHeader, "deflate,identity")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(wirecodec.CodecHeader); got != wirecodec.DeflateName {
		t.Errorf("CodecHeader = %q, want deflate (best mutual)", got)
	}
	r := kvio.NewAnyReader(resp.Body)
	defer r.Release()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, in) {
		t.Fatal("transcoded response lost data")
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

// TestServeBucketAbortsOnCorruptAtRest: every arm that re-encodes an
// at-rest bucket on the way out must fail the client's read when the
// at-rest bytes are corrupt, not end the response cleanly after the
// last good block.
func TestServeBucketAbortsOnCorruptAtRest(t *testing.T) {
	in := compressiblePairs()
	// fetch GETs the bucket and decodes it as the matching client would,
	// returning the records decoded and the first error seen anywhere.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	fetch := func(url string, headers map[string]string) (int, error) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %s", resp.Status)
		}
		var body io.Reader = resp.Body
		if resp.Header.Get("Content-Encoding") == "deflate" {
			fr := deflateCodec().NewReader(body)
			defer fr.Close()
			body = fr
		}
		r := kvio.NewAnyReader(body)
		defer r.Release()
		got, err := r.ReadAll()
		return len(got), err
	}

	// An lz block bucket whose last block fails its CRC.
	blockDir := t.TempDir()
	blocks, _ := NewFileStore(blockDir, "")
	if err := blocks.SetCodec(wirecodec.LZName); err != nil {
		t.Fatal(err)
	}
	blocks.SetBlockSize(1 << 10)
	if _, err := blocks.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(blockDir, "ds1_t0_s0"+BlockExt+wirecodec.LZExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // inside the last block's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	blockSrv := serveStore(blocks)
	defer blockSrv.Close()

	// A legacy flate bucket that decompresses to whole records up to a
	// sync flush, then hits a corrupt flate block (BTYPE 11).
	fzDir := t.TempDir()
	fz, _ := NewFileStore(fzDir, "")
	fz.SetCompress(true)
	if _, err := fz.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.DefaultCompression)
	kw := kvio.NewWriter(fw)
	for _, p := range in[:100] {
		if err := kw.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := kw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0x07)
	if err := os.WriteFile(filepath.Join(fzDir, "ds1_t0_s0"+CompressExt), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fzSrv := serveStore(fz)
	defer fzSrv.Close()

	for _, arm := range []struct {
		name    string
		url     string
		headers map[string]string
	}{
		{"block-transcode", blockSrv.URL, map[string]string{wirecodec.RequestHeader: wirecodec.IdentityName}},
		{"block-to-records", blockSrv.URL, nil},
		{"block-to-records-deflate", blockSrv.URL, map[string]string{"Accept-Encoding": "deflate"}},
		{"legacy-fz-decompress", fzSrv.URL, nil},
	} {
		t.Run(arm.name, func(t *testing.T) {
			n, err := fetch(arm.url+"/data/ds1_t0_s0", arm.headers)
			if err == nil {
				t.Fatalf("corrupt bucket served cleanly: %d of %d records, no error", n, len(in))
			}
		})
	}
}
