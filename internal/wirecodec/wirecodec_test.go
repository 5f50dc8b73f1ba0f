package wirecodec

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, c Codec, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := c.NewWriter(&buf)
	// Write in uneven slices to exercise frame boundaries.
	for off := 0; off < len(data); {
		n := min(1+off%4093, len(data)-off)
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatalf("%s write: %v", c.Name(), err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatalf("%s close: %v", c.Name(), err)
	}
	r := c.NewReader(bytes.NewReader(buf.Bytes()))
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("%s read: %v", c.Name(), err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("%s reader close: %v", c.Name(), err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%s round trip mismatch: %d bytes in, %d out", c.Name(), len(data), len(got))
	}
	return buf.Bytes()
}

// corpusCases cover empty, tiny, highly repetitive, overlapping-copy
// (RLE), multi-frame, and incompressible inputs.
func corpusCases() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 3*lzFrameRaw+17)
	rng.Read(random)
	return map[string][]byte{
		"empty":          nil,
		"one":            []byte("x"),
		"short":          []byte("hello, world"),
		"rle":            bytes.Repeat([]byte{0xAB}, 100_000),
		"repetitive":     []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 5000)),
		"incompressible": random,
		"frame-exact":    bytes.Repeat([]byte("abcdefgh"), lzFrameRaw/8),
	}
}

func TestAllCodecsRoundTrip(t *testing.T) {
	for _, name := range Names() {
		c, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed for a listed name", name)
		}
		for label, data := range corpusCases() {
			t.Run(name+"/"+label, func(t *testing.T) {
				roundTrip(t, c, data)
			})
		}
	}
}

func TestLZCompresses(t *testing.T) {
	c, _ := Lookup(LZName)
	data := []byte(strings.Repeat("repetitive shuffle payload ", 10000))
	wire := roundTrip(t, c, data)
	if len(wire) >= len(data)/2 {
		t.Errorf("lz compressed %d bytes to %d; want at least 2x on repetitive data", len(data), len(wire))
	}
}

func TestLZIncompressibleOverheadBounded(t *testing.T) {
	c, _ := Lookup(LZName)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 2*lzFrameRaw)
	rng.Read(data)
	wire := roundTrip(t, c, data)
	// Stored frames add only the two uvarint headers per 64 KiB.
	if overhead := len(wire) - len(data); overhead > 16 {
		t.Errorf("incompressible overhead %d bytes; want <= 16", overhead)
	}
}

func TestLZCorruptInputErrors(t *testing.T) {
	c, _ := Lookup(LZName)
	var buf bytes.Buffer
	w := c.NewWriter(&buf)
	w.Write([]byte(strings.Repeat("abcd", 1000)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	// Note: a flipped byte deep inside a literal run is undetectable
	// at this layer by design — LZ frames carry no checksum; integrity
	// is the record-block header's CRC (internal/kvio). These cases are
	// the structural corruptions the decoder itself must reject.
	cases := map[string][]byte{
		"truncated-header":  wire[:1],
		"truncated-body":    wire[:len(wire)-3],
		"huge-rawlen":       {0xFF, 0xFF, 0xFF, 0x7F, 0x00},
		"complen-gt-rawlen": {0x04, 0x7F, 0x00},
		"bad-offset":        {0x04, 0x02, 0x09, 0x05}, // copy back-referencing before start
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			r := c.NewReader(bytes.NewReader(data))
			defer r.Close()
			if _, err := io.ReadAll(r); err == nil {
				t.Error("corrupt stream decoded without error")
			}
		})
	}
}

func TestDeflateReaderPoolRecycles(t *testing.T) {
	c, _ := Lookup(DeflateName)
	data := []byte(strings.Repeat("pooled deflate state ", 500))
	// Sequential uses must be able to share pooled state without
	// corrupting each other; run enough cycles to hit the pool.
	for i := 0; i < 8; i++ {
		roundTrip(t, c, data)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := Register(identityCodec{}); err == nil {
		t.Fatal("re-registering identity succeeded; want already-registered error")
	}
	if err := Register(badName{}); err == nil {
		t.Fatal("registering an empty codec name succeeded")
	}
}

type badName struct{ identityCodec }

func (badName) Name() string { return "" }

func FuzzLZRoundTrip(f *testing.F) {
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte("ab"), 5000))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, _ := Lookup(LZName)
		var buf bytes.Buffer
		w := c.NewWriter(&buf)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r := c.NewReader(bytes.NewReader(buf.Bytes()))
		defer r.Close()
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("lz round trip mismatch")
		}
	})
}

// FuzzLZReader feeds arbitrary bytes to the decoder: it must never
// panic and never return success for data that is not a valid stream it
// itself could have produced.
func FuzzLZReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x00, 'h', 'e', 'l', 'l', 'o'})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, _ := Lookup(LZName)
		r := c.NewReader(bytes.NewReader(data))
		defer r.Close()
		io.Copy(io.Discard, r)
	})
}

func BenchmarkCodecCompress(b *testing.B) {
	data := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 2048))
	for _, name := range []string{IdentityName, DeflateName, LZName} {
		c, _ := Lookup(name)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := c.NewWriter(io.Discard)
				w.Write(data)
				w.Close()
			}
		})
	}
}

func BenchmarkCodecDecompress(b *testing.B) {
	data := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 2048))
	for _, name := range []string{IdentityName, DeflateName, LZName} {
		c, _ := Lookup(name)
		var buf bytes.Buffer
		w := c.NewWriter(&buf)
		w.Write(data)
		w.Close()
		wire := buf.Bytes()
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := c.NewReader(bytes.NewReader(wire))
				io.Copy(io.Discard, r)
				r.Close()
			}
		})
	}
}
