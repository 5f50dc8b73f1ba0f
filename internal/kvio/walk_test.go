package kvio

import (
	"bytes"
	"errors"
	"io"
	"strings"
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
// and leaves the bytes it walked as they were. Rewalk, which skips only
// the CRC, yields what Walk does wherever Walk fails for another
// reason or not at all, and where Walk fails a CRC, Walk's records
// then more. Per-record streams, whole and cut, are in the corpus as
// input all must refuse.
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
		var again []Pair
		rerr := Rewalk(data, func(k, v []byte) error {
			again = append(again, Pair{Key: k, Value: v})
			return nil
		})
		if errors.Is(err, ErrBlockChecksum) {
			if len(again) < len(got) || !pairsEqual(again[:len(got)], got) {
				t.Fatalf("Rewalk yielded %d records, not Walk's %d then more", len(again), len(got))
			}
		} else if errClass(rerr) != errClass(err) || !pairsEqual(again, got) {
			t.Fatalf("Rewalk: %d records and %v, Walk: %d records and %v", len(again), rerr, len(got), err)
		}
	})
}

// TestRewalkSkipsOnlyTheCRC: a resident hit's walk keeps every check of
// Walk but the CRC. A multi-block stream with one flipped payload byte
// fails Walk and WalkRuns with ErrBlockChecksum and passes Rewalk and
// RewalkRuns whole; a torn stream and one without its magic fail all
// four alike.
func TestRewalkSkipsOnlyTheCRC(t *testing.T) {
	var pairs []Pair
	for i := 0; i < 40; i++ {
		pairs = append(pairs, StrPair(string(rune('a'+i%26)), string(bytes.Repeat([]byte{'v'}, i))))
	}
	good := blockStream(t, pairs, 64)
	walks := map[string]func([]byte) (int, error){
		"Walk":   func(d []byte) (int, error) { n := 0; return n, Walk(d, func(k, v []byte) error { n++; return nil }) },
		"Rewalk": func(d []byte) (int, error) { n := 0; return n, Rewalk(d, func(k, v []byte) error { n++; return nil }) },
		"WalkRuns": func(d []byte) (int, error) {
			n := 0
			return n, WalkRuns(d, func(_ []byte, r int) error { n += r; return nil })
		},
		"RewalkRuns": func(d []byte) (int, error) {
			n := 0
			return n, RewalkRuns(d, func(_ []byte, r int) error { n += r; return nil })
		},
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF
	cases := []struct {
		name        string
		data        []byte
		walk, again error // Walk's and Rewalk's errors
	}{
		{"whole", good, nil, nil},
		{"flipped-payload-byte", flipped, ErrBlockChecksum, nil},
		{"torn", good[:len(good)-1], io.ErrUnexpectedEOF, io.ErrUnexpectedEOF},
		{"no-magic", good[1:], ErrBlockCorrupt, ErrBlockCorrupt},
	}
	for _, c := range cases {
		for name, walk := range walks {
			want := c.walk
			if strings.HasPrefix(name, "Rewalk") {
				want = c.again
			}
			n, err := walk(c.data)
			if errClass(err) != errClass(want) {
				t.Errorf("%s/%s: error %v, want %v", c.name, name, err, want)
			}
			if want == nil && n != len(pairs) {
				t.Errorf("%s/%s: %d records, want %d", c.name, name, n, len(pairs))
			}
		}
	}
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
