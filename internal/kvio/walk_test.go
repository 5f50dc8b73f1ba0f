package kvio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// errClass names the sentinel an error carries, so two readers' errors
// compare by identity rather than by message.
func errClass(err error) string {
	if err == nil {
		return "nil"
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"unexpected-eof", io.ErrUnexpectedEOF},
		{"record-too-large", ErrRecordTooLarge},
		{"block-stream", ErrBlockStream},
		{"block-checksum", ErrBlockChecksum},
		{"block-corrupt", ErrBlockCorrupt},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other"
}

// FuzzInPlaceMatchesStream: for any bytes, Walk yields the records
// NewAnyReader(...).ReadAll does, then an error of the same identity,
// and leaves the bytes it walked as they were.
func FuzzInPlaceMatchesStream(f *testing.F) {
	for _, seed := range blockReaderSeeds() {
		f.Add(seed)
	}
	legacy := Marshal([]Pair{StrPair("abcdef", "ghijkl"), StrPair("k", "v")})
	for cut := 1; cut < len(legacy); cut++ {
		f.Add(legacy[:cut]) // truncated mid-record, or at a record boundary
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})             // oversize key
	f.Add([]byte{0x01, 'k', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})  // oversize value
	f.Add(BlockMagic[:5])                                               // the magic as a legacy key length, no version
	f.Add(append(Marshal([]Pair{StrPair("k", "v")}), BlockMagic[:]...)) // the magic after a record
	f.Add(bytes.Repeat([]byte{0x80}, 12))                               // uvarint overflow
	f.Fuzz(func(t *testing.T, data []byte) {
		if allocatesLarge(data) {
			return
		}
		r := NewAnyReader(bytes.NewReader(data))
		want, wantErr := r.ReadAll()
		r.Release()
		orig := append([]byte(nil), data...)
		var got []Pair
		err := Walk(data, func(k, v []byte) error {
			got = append(got, Pair{Key: k, Value: v})
			return nil
		})
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("Walk error %v, stream error %v", err, wantErr)
		}
		if !pairsEqual(got, want) {
			t.Fatalf("Walk yielded %d records, stream %d", len(got), len(want))
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("Walk wrote into its input")
		}
	})
}

// allocatesLarge reports whether the streaming readers would allocate
// over 1 MiB at once for data: they size a key, value or block buffer
// from its declared length before reading it, which lets a few fuzzed
// bytes ask for up to a GiB.
func allocatesLarge(data []byte) bool {
	const limit = 1 << 20
	if !bytes.HasPrefix(data, BlockMagic[:]) {
		for len(data) > 0 {
			n, k := binary.Uvarint(data)
			if k <= 0 || n > MaxRecordLen {
				return false
			}
			if n > limit {
				return true
			}
			if uint64(len(data)-k) < n {
				return false
			}
			data = data[k+int(n):]
		}
		return false
	}
	r := bytes.NewReader(data[len(BlockMagic):])
	for {
		h, err := readHeader(r)
		if err != nil {
			return false
		}
		if h.payloadLen > limit || h.rawLen > limit {
			return true
		}
		if _, err := r.Seek(int64(h.payloadLen), io.SeekCurrent); err != nil {
			return false
		}
	}
}

// BenchmarkScanInPlace walks a whole payload of b.N moderate records:
// a legacy one in place, and identity blocks whose runs are subslices
// of it. Neither allocates per record.
func BenchmarkScanInPlace(b *testing.B) {
	for _, form := range []string{"legacy", identityName} {
		b.Run(form, func(b *testing.B) {
			data := benchStream(b.N)
			if form != "legacy" {
				data = benchBlockStream(b.N)
			}
			b.SetBytes(int64(len("some-moderate-key") + len("some-moderate-value-payload")))
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			err := Walk(data, func(k, v []byte) error {
				n++
				return nil
			})
			if err != nil || n != b.N {
				b.Fatalf("walked %d of %d records: %v", n, b.N, err)
			}
		})
	}
}
