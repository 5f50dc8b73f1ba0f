package kvio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// blockStream builds a block-framed stream of pairs with the given
// block size.
func blockStream(t testing.TB, pairs []Pair, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBlockWriter(&buf, blockSize)
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testPairs(n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = StrPair("key-"+strconv.Itoa(i), "value-payload-"+strconv.Itoa(i*7))
	}
	return out
}

// TestBlockRoundTripAllCodecs keeps the grid of the block round trip
// from when the writer had codecs. At every block size, identity blocks
// round trip, byte-identical to the stream the codec-era writer emitted
// under identity; the same records as the retired deflate and lz
// writers stored them are refused as corrupt.
func TestBlockRoundTripAllCodecs(t *testing.T) {
	pairs := testPairs(5000)
	for _, name := range blockCodecs {
		for _, blockSize := range []int{1, 512, DefaultBlockSize} {
			t.Run(name+"/bs="+strconv.Itoa(blockSize), func(t *testing.T) {
				if name != identityName {
					checkRefused(t, retiredBlockStream(pairs, name, blockSize), name)
					return
				}
				wire := blockStream(t, pairs, blockSize)
				if !bytes.Equal(wire, retiredBlockStream(pairs, identityName, blockSize)) {
					t.Fatal("identity stream differs from the codec-era writer's")
				}
				r := NewAnyReader(bytes.NewReader(wire))
				defer r.Release()
				got, err := r.ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				if !pairsEqual(pairs, got) {
					t.Fatalf("round trip mismatch: %d in, %d out", len(pairs), len(got))
				}
				if r.Count() != int64(len(pairs)) {
					t.Fatalf("Count = %d, want %d", r.Count(), len(pairs))
				}
			})
		}
	}
}

func TestBlockEmptyStream(t *testing.T) {
	wire := blockStream(t, nil, 0)
	if !bytes.Equal(wire, BlockMagic[:]) {
		t.Fatalf("empty stream = %x, want just the magic", wire)
	}
	r := NewAnyReader(bytes.NewReader(wire))
	defer r.Release()
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want clean EOF on empty stream, got %v", err)
	}
}

// TestBlockZeroRecordBlock checks that an explicit zero-record block in
// the stream is legal and skipped.
func TestBlockZeroRecordBlock(t *testing.T) {
	pairs := testPairs(10)
	wire := blockStream(t, pairs, 0)
	// Splice an empty block (records=0, rawLen=0, name="identity",
	// payloadLen=0, crc of empty) right after the magic.
	var empty []byte
	empty = binary.AppendUvarint(empty, 0)
	empty = binary.AppendUvarint(empty, 0)
	empty = binary.AppendUvarint(empty, uint64(len(identityName)))
	empty = append(empty, identityName...)
	empty = binary.AppendUvarint(empty, 0)
	empty = binary.LittleEndian.AppendUint32(empty, crc32.ChecksumIEEE(nil))
	spliced := append(append(append([]byte(nil), wire[:len(BlockMagic)]...), empty...), wire[len(BlockMagic):]...)

	r := NewAnyReader(bytes.NewReader(spliced))
	defer r.Release()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(pairs, got) {
		t.Fatal("zero-record block changed the decoded records")
	}
}

// TestBlockChecksumDetectsCorruption: one flipped payload byte fails
// the block CRC, read and walked. The case is named for the one payload
// form a block carries.
func TestBlockChecksumDetectsCorruption(t *testing.T) {
	t.Run(identityName, func(t *testing.T) {
		wire := blockStream(t, testPairs(100), 0)
		// Flip one payload byte near the end (past magic + header).
		bad := append([]byte(nil), wire...)
		bad[len(bad)-3] ^= 0x40
		r := NewAnyReader(bytes.NewReader(bad))
		defer r.Release()
		if _, err := r.ReadAll(); !errors.Is(err, ErrBlockChecksum) {
			t.Fatalf("flipped payload byte: got %v, want ErrBlockChecksum", err)
		}
		if err := Walk(bad, func(k, v []byte) error { return nil }); !errors.Is(err, ErrBlockChecksum) {
			t.Fatalf("flipped payload byte, walked: got %v, want ErrBlockChecksum", err)
		}
	})
}

func TestBlockTornStream(t *testing.T) {
	pairs := testPairs(2000)
	wire := blockStream(t, pairs, 4096)
	for _, cut := range []int{len(BlockMagic) + 1, len(wire) / 2, len(wire) - 1} {
		r := NewAnyReader(bytes.NewReader(wire[:cut]))
		_, err := r.ReadAll()
		r.Release()
		if err == nil || err == io.EOF {
			t.Fatalf("torn stream at %d decoded cleanly", cut)
		}
	}
}

func TestBlockUnknownCodecErrors(t *testing.T) {
	wire := blockStream(t, testPairs(5), 0)
	// The codec name "identity" starts right after magic + 3 uvarints;
	// corrupt its first letter so the reader no longer knows it.
	bad := append([]byte(nil), wire...)
	i := bytes.Index(bad, []byte(identityName))
	if i < 0 {
		t.Fatal("codec name not found in wire form")
	}
	bad[i] = 'X'
	r := NewAnyReader(bytes.NewReader(bad))
	defer r.Release()
	if _, err := r.ReadAll(); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("unknown codec: got %v, want ErrBlockCorrupt", err)
	}
}

// columnarFrame is a block stream in the retired columnar layout (see
// retiredColumnar) holding the one record "k"->"v". Current readers
// must refuse it as corrupt rather than guess at it.
func columnarFrame() []byte {
	return retiredColumnar([]Pair{StrPair("k", "v")}, identityName, 0, keyColRaw)
}

// foreignBlock is one uncompressed row block of three records whose
// header names codec.
func foreignBlock(codec string) []byte {
	payload := Marshal(testPairs(3))
	wire := append([]byte(nil), BlockMagic[:]...)
	wire = binary.AppendUvarint(wire, 3)
	wire = binary.AppendUvarint(wire, uint64(len(payload)))
	wire = binary.AppendUvarint(wire, uint64(len(codec)))
	wire = append(wire, codec...)
	wire = binary.AppendUvarint(wire, uint64(len(payload)))
	wire = binary.LittleEndian.AppendUint32(wire, crc32.ChecksumIEEE(payload))
	return append(wire, payload...)
}

// TestBlockReaderRejectsForeignStreams: the block readers handed a
// per-record stream, a well-formed block naming any codec but identity
// (one nobody ever wrote, or a retired one), or a block in the retired
// columnar layout fail with ErrBlockCorrupt and a message saying
// which, rather than decoding garbage records.
func TestBlockReaderRejectsForeignStreams(t *testing.T) {
	t.Run("per-record stream", func(t *testing.T) {
		wire := Marshal(testPairs(10))
		r := NewAnyReader(bytes.NewReader(wire))
		got, err := r.ReadAll()
		r.Release()
		walked := 0
		werr := Walk(wire, func(k, v []byte) error { walked++; return nil })
		for how, res := range map[string]struct {
			recs int
			err  error
		}{"ReadAll": {len(got), err}, "Walk": {walked, werr}} {
			if !errors.Is(res.err, ErrBlockCorrupt) || !strings.Contains(res.err.Error(), "missing block magic") || res.recs != 0 {
				t.Errorf("%s: %d records, %v; want 0 and ErrBlockCorrupt naming the missing magic", how, res.recs, res.err)
			}
		}
	})
	// The same block naming identity decodes, so the name alone is what
	// the reader rejects in the rows below.
	ok := NewAnyReader(bytes.NewReader(foreignBlock(identityName)))
	if got, err := ok.ReadAll(); err != nil || !pairsEqual(got, testPairs(3)) {
		t.Fatalf("identity control block: %d records, %v", len(got), err)
	}
	ok.Release()
	for _, row := range []struct{ name, codec string }{
		{"unregistered codec", "zstd"},
		{"deflate", retiredDeflate},
		{"lz", retiredLZ},
	} {
		t.Run(row.name, func(t *testing.T) { checkRefused(t, foreignBlock(row.codec), row.codec) })
	}
	t.Run("columnar block", func(t *testing.T) {
		r := NewAnyReader(bytes.NewReader(columnarFrame()))
		got, err := r.ReadAll()
		r.Release()
		if !errors.Is(err, ErrBlockCorrupt) || len(got) != 0 {
			t.Fatalf("ReadAll: %d records, %v; want 0 and ErrBlockCorrupt", len(got), err)
		}
	})
}

// TestReaderAllocationBoundedByInput: a 28-byte stream, the magic and
// one header declaring a MaxBlockLen payload that never comes, is torn
// for Walk and NewAnyReader alike, and the reader allocates about its
// input, not the declared length.
func TestReaderAllocationBoundedByInput(t *testing.T) {
	wire := binary.AppendUvarint(append([]byte(nil), BlockMagic[:]...), 1)
	wire = binary.AppendUvarint(wire, MaxBlockLen)
	wire = binary.AppendUvarint(wire, uint64(len(identityName)))
	wire = append(wire, identityName...)
	wire = binary.AppendUvarint(wire, MaxBlockLen)
	wire = binary.LittleEndian.AppendUint32(wire, 0)
	if len(wire) != 28 {
		t.Fatalf("stream is %d bytes, want 28", len(wire))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewAnyReader(bytes.NewReader(wire))
	got, err := r.ReadAll()
	r.Release()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF || len(got) != 0 {
		t.Fatalf("ReadAll: %d records, %v; want 0 and io.ErrUnexpectedEOF", len(got), err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("ReadAll allocated %d bytes on a %d-byte stream, want < 64 KiB", n, len(wire))
	}
	if err := Walk(wire, func(k, v []byte) error { return nil }); err != io.ErrUnexpectedEOF {
		t.Fatalf("Walk: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestBlockWriterCounters(t *testing.T) {
	pairs := testPairs(100)
	var want int64
	for _, p := range pairs {
		want += int64(len(p.Key) + len(p.Value))
	}
	var buf bytes.Buffer
	w := NewBlockWriter(&buf, 0)
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(pairs)) || w.Bytes() != want {
		t.Fatalf("counters: %d records / %d bytes, want %d / %d", w.Count(), w.Bytes(), len(pairs), want)
	}
}

// writeCounter is a buffer that counts the Write calls it takes.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestBlockWriterOneWritePerBlock: each block leaves the writer in one
// Write, header and (on the first) stream magic included, so a spilled
// file bucket costs one write call per block, not two or three.
func TestBlockWriterOneWritePerBlock(t *testing.T) {
	for _, n := range []int{0, 1, 3000} {
		var out writeCounter
		w := NewBlockWriter(&out, 4096)
		for _, p := range testPairs(n) {
			if err := w.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		blocks := 0
		if err := WalkRuns(out.Bytes(), func([]byte, int) error { blocks++; return nil }); err != nil {
			t.Fatal(err)
		}
		if want := max(blocks, 1); out.writes != want {
			t.Errorf("%d records in %d blocks took %d writes, want %d", n, blocks, out.writes, want)
		}
		if n > 1 && blocks < 2 {
			t.Errorf("%d records made %d blocks; the case needs several", n, blocks)
		}
	}
}

func TestScanRecordsRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"bad-keylen":      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"truncated-key":   {0x10, 'a'},
		"truncated-value": append([]byte{0x01, 'k', 0x10}, 'v'),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ScanRecords(data, func(k, v []byte) error { return nil })
			if !errors.Is(err, ErrBlockCorrupt) {
				t.Fatalf("got %v, want ErrBlockCorrupt", err)
			}
		})
	}
}
