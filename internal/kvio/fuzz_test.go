package kvio

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader throws arbitrary bytes — truncated, corrupt, over-length
// headers — at the Reader and checks the decode invariants: no panics,
// io.EOF only at a clean record boundary, errors are sticky, and the
// shared-buffer path decodes exactly the same record sequence as the
// allocating path.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(Marshal([]Pair{StrPair("hello", "world")}))
	f.Add(Marshal([]Pair{{}, StrPair("", "x"), StrPair("x", "")}))
	// Truncated mid-record.
	f.Add(Marshal([]Pair{StrPair("abcdef", "ghijkl")})[:5])
	// Header declaring a key larger than MaxRecordLen.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	// Header declaring more bytes than follow.
	f.Add([]byte{0x20, 'a', 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		owned := NewReader(bytes.NewReader(data))
		shared := NewReader(bytes.NewReader(data))
		defer owned.Release()
		defer shared.Release()
		for {
			po, eo := owned.Read()
			ps, es := shared.ReadShared()
			if eo != es {
				t.Fatalf("Read err %v != ReadShared err %v", eo, es)
			}
			if eo != nil {
				// Sticky: the same error again, no state advance.
				if _, e2 := owned.Read(); e2 != eo {
					t.Fatalf("error not sticky: %v then %v", eo, e2)
				}
				break
			}
			if !bytes.Equal(po.Key, ps.Key) || !bytes.Equal(po.Value, ps.Value) {
				t.Fatalf("Read %v != ReadShared %v", po, ps)
			}
		}
		if owned.Count() != shared.Count() {
			t.Fatalf("record counts diverge: %d vs %d", owned.Count(), shared.Count())
		}
	})
}

// FuzzRoundTrip drives arbitrary pairs through Writer→Reader and checks
// byte-exact recovery — for the legacy per-record framing (allocating
// and shared read paths) and for block framing at a small block size
// that forces multi-block streams.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("key"), []byte("value"), []byte("k2"), []byte(""))
	f.Add([]byte{}, []byte{}, []byte{0}, []byte{0xFF})
	// Seed the magic bytes as record content: block framing must not be
	// confused by payloads that contain its own stream prefix.
	f.Add(BlockMagic[:], BlockMagic[:], []byte{0xFF}, BlockMagic[:3])
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2 []byte) {
		in := []Pair{{Key: k1, Value: v1}, {Key: k2, Value: v2}}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, p := range in {
			if err := w.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		w.Release()
		wire := buf.Bytes()

		out, err := Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(in, out) {
			t.Fatalf("round trip mismatch: in %v out %v", in, out)
		}

		r := NewReader(bytes.NewReader(wire))
		defer r.Release()
		for i, want := range in {
			got, err := r.ReadShared()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
				t.Fatalf("shared record %d: got %v want %v", i, got, want)
			}
		}
		if _, err := r.ReadShared(); err != io.EOF {
			t.Fatalf("want clean EOF, got %v", err)
		}

		// Block framing, the form every bucket takes, decoded by the
		// block reader.
		br := NewAnyReader(bytes.NewReader(blockSeed(in, 16)))
		bout, err := br.ReadAll()
		br.Release()
		if err != nil {
			t.Fatalf("block decode: %v", err)
		}
		if !pairsEqual(in, bout) {
			t.Fatalf("block round trip mismatch: in %v out %v", in, bout)
		}
	})
}

// blockSeed builds a block-framed stream for fuzz corpora.
func blockSeed(pairs []Pair, blockSize int) []byte {
	var buf bytes.Buffer
	w := NewBlockWriter(&buf, blockSize)
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// blockReaderSeeds is FuzzBlockReader's corpus: a per-record stream
// (refused), identity blocks, blocks
// of the retired deflate and lz codecs and in the retired columnar
// layout (whole, torn and corrupt), and the torn/corrupt/zero-record
// shapes named in the block format's contract. The retired blocks are
// byte for byte the streams their writers emitted for these pairs.
func blockReaderSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }
	pairs := []Pair{StrPair("hello", "world"), {}, StrPair("", "x"), StrPair("x", "")}
	legacy := Marshal(pairs)
	add(legacy)                                           // per-record framing: refused
	add(blockSeed(pairs, 0))                              // identity blocks
	add(retiredBlockStream(pairs, retiredDeflate, 8))     // multi-block deflate
	add(retiredBlockStream(pairs, retiredLZ, 8))          // multi-block lz
	add(BlockMagic[:])                                    // empty block stream
	add(append(append([]byte{}, BlockMagic[:]...), 0x00)) // torn header
	torn := retiredBlockStream(pairs, retiredLZ, 8)
	add(torn[:len(torn)-2]) // torn payload
	crc := append([]byte(nil), blockSeed(pairs, 0)...)
	crc[len(crc)-1] ^= 0xFF
	add(crc) // corrupt checksum
	// Zero-record block followed by a real one (see TestBlockZeroRecordBlock).
	add(blockSeed(nil, 0))
	// Blocks in the retired columnar layout (see retiredColumnar): every
	// key encoding, plus one per codec.
	for _, keyEnc := range []int{keyColRaw, keyColDict, keyColDelta} {
		add(retiredColumnar(pairs, identityName, 0, keyEnc))
	}
	add(retiredColumnar(pairs, retiredDeflate, 8, keyColAuto))
	add(retiredColumnar(pairs, retiredLZ, 8, keyColAuto))
	// Truncated column segments: cut mid key column and mid value column.
	col := retiredColumnar(pairs, identityName, 0, keyColRaw)
	var valLen int
	for _, p := range pairs {
		valLen += varintLen(len(p.Value)) + len(p.Value)
	}
	add(col[:len(col)-valLen-2]) // ends inside the key column payload
	add(col[:len(col)-1])        // ends inside the value column payload
	// Mismatched per-column CRCs: flip one byte in each column payload.
	badKey := append([]byte(nil), col...)
	badKey[len(col)-valLen-2] ^= 0x5A
	add(badKey)
	badVal := append([]byte(nil), col...)
	badVal[len(col)-1] ^= 0x5A
	add(badVal)
	return seeds
}

// FuzzBlockReader throws arbitrary bytes at NewAnyReader: no panics, no
// infinite loops, and a valid prefix of records before a sticky error.
// The corpus is blockReaderSeeds.
func FuzzBlockReader(f *testing.F) {
	for _, seed := range blockReaderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewAnyReader(bytes.NewReader(data))
		defer r.Release()
		for {
			_, err := r.ReadShared()
			if err != nil {
				// Sticky: the same error again, no state advance.
				if _, e2 := r.ReadShared(); e2 != err {
					t.Fatalf("error not sticky: %v then %v", err, e2)
				}
				break
			}
		}
	})
}
