package kvio

import (
	"bytes"
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
// and leaves the bytes it walked as they were. Per-record streams,
// whole and cut, are in the corpus as input both must refuse.
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
	f.Add(BlockMagic[:5])                                               // a torn magic
	f.Add(append(Marshal([]Pair{StrPair("k", "v")}), BlockMagic[:]...)) // the magic after a record
	f.Add(bytes.Repeat([]byte{0x80}, 12))                               // uvarint overflow
	f.Fuzz(func(t *testing.T, data []byte) {
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

// BenchmarkScanInPlace walks a whole payload of b.N moderate records in
// identity blocks, whose runs are subslices of it. It allocates nothing
// per record.
func BenchmarkScanInPlace(b *testing.B) {
	b.Run(identityName, func(b *testing.B) {
		data := benchBlockStream(b.N)
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
