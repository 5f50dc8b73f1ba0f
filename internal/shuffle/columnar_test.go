package shuffle

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/kvio"
	"repro/internal/wirecodec"
)

// columnarBlock builds one decoded columnar block of pairs with the
// given key encoding — exactly what kvio.BlockReader.NextAny hands a
// consumer.
func columnarBlock(tb testing.TB, pairs []kvio.Pair, keyEnc int) *kvio.ColumnarBlock {
	tb.Helper()
	if len(pairs) == 0 {
		return nil
	}
	var buf bytes.Buffer
	w := kvio.NewBlockWriterEnc(&buf, wirecodec.Identity(), 0, kvio.BlockEncoding{Columnar: true, KeyEnc: keyEnc})
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	r, err := kvio.NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Release()
	_, cb, _, err := r.NextAny()
	if err != nil {
		tb.Fatal(err)
	}
	if cb == nil || cb.Len() != len(pairs) {
		tb.Fatalf("columnar helper produced %v records, want one block of %d", cb, len(pairs))
	}
	if _, _, _, err := r.NextAny(); err != io.EOF {
		tb.Fatalf("columnar helper split %d pairs across blocks", len(pairs))
	}
	return cb
}

// collectColumnar mirrors collect but feeds the sorter decoded columnar
// blocks, one per batch.
func collectColumnar(t *testing.T, opts Options, batches [][]kvio.Pair, keyEnc int) (map[string][]string, []string) {
	t.Helper()
	s := NewSorter(opts)
	defer s.Close()
	for _, batch := range batches {
		cb := columnarBlock(t, batch, keyEnc)
		if cb == nil {
			continue
		}
		n, err := s.AddColumnar(cb)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, p := range batch {
			want += int64(len(p.Key) + len(p.Value))
		}
		if n != want {
			t.Fatalf("AddColumnar returned %d payload bytes, want %d", n, want)
		}
	}
	groups := map[string][]string{}
	var order []string
	err := s.Groups(func(key []byte, values [][]byte) error {
		var vs []string
		for _, v := range values {
			vs = append(vs, string(v))
		}
		groups[string(key)] = vs
		order = append(order, string(key))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return groups, order
}

// TestAddColumnarMatchesAdd: feeding the same records through columnar
// blocks must produce byte-identical grouping to per-record Add — for
// every key encoding, with and without a combiner, with and without
// spilling.
func TestAddColumnarMatchesAdd(t *testing.T) {
	var pairs []kvio.Pair
	for i := 0; i < 3000; i++ {
		pairs = append(pairs, kvio.StrPair(fmt.Sprintf("key-%03d", i%89), codecVarint(int64(i%7))))
	}
	batches := [][]kvio.Pair{pairs[:1000], pairs[1000:1003], pairs[1003:1003], pairs[1003:]}
	cases := []struct {
		name string
		opts func() Options
	}{
		{"sort", func() Options { return Options{} }},
		{"sort-spill", func() Options { return Options{SpillBytes: 4 << 10, TempDir: t.TempDir()} }},
		{"combine", func() Options { return Options{Combine: sumCombine} }},
		{"combine-spill", func() Options { return Options{Combine: sumCombine, SpillBytes: 4 << 10, TempDir: t.TempDir()} }},
	}
	for _, keyEnc := range []int{kvio.KeyEncRaw, kvio.KeyEncDict, kvio.KeyEncDelta} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("enc=%d/%s", keyEnc, tc.name), func(t *testing.T) {
				want, wantOrder := collect(t, tc.opts(), pairs)
				got, gotOrder := collectColumnar(t, tc.opts(), batches, keyEnc)
				if !equalStrings(wantOrder, gotOrder) {
					t.Fatalf("key order differs: %v vs %v", gotOrder, wantOrder)
				}
				for k, vs := range want {
					if !equalStrings(vs, got[k]) {
						t.Errorf("key %q: Add %v, AddColumnar %v", k, vs, got[k])
					}
				}
			})
		}
	}
}

// TestAddColumnarMixedFraming: row and columnar inputs interleaving in
// either order must still match pure per-record Add, with arena-copied
// and aliased records sharing one set of key groups.
func TestAddColumnarMixedFraming(t *testing.T) {
	var pairs []kvio.Pair
	for i := 0; i < 900; i++ {
		pairs = append(pairs, kvio.StrPair(fmt.Sprintf("key-%02d", i%23), fmt.Sprintf("v%d", i)))
	}
	for _, tc := range []struct {
		name       string
		firstIsRow bool
	}{
		{"columnar-then-row", false},
		{"row-then-columnar", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantOrder := collect(t, Options{}, pairs)
			s := NewSorter(Options{})
			defer s.Close()
			thirds := [][]kvio.Pair{pairs[:300], pairs[300:600], pairs[600:]}
			for i, batch := range thirds {
				rowTurn := (i%2 == 0) == tc.firstIsRow
				if rowTurn {
					for _, p := range batch {
						if err := s.Add(p); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					if _, err := s.AddColumnar(columnarBlock(t, batch, kvio.KeyEncDict)); err != nil {
						t.Fatal(err)
					}
				}
			}
			got := map[string][]string{}
			var gotOrder []string
			err := s.Groups(func(key []byte, values [][]byte) error {
				var vs []string
				for _, v := range values {
					vs = append(vs, string(v))
				}
				got[string(key)] = vs
				gotOrder = append(gotOrder, string(key))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !equalStrings(wantOrder, gotOrder) {
				t.Fatalf("key order differs: %v vs %v", gotOrder, wantOrder)
			}
			for k, vs := range want {
				if !equalStrings(vs, got[k]) {
					t.Errorf("key %q: Add %v, mixed %v", k, vs, got[k])
				}
			}
		})
	}
}

func TestAddColumnarSpills(t *testing.T) {
	s := NewSorter(Options{SpillBytes: 1 << 10, TempDir: t.TempDir()})
	defer s.Close()
	var pairs []kvio.Pair
	for i := 0; i < 200; i++ {
		pairs = append(pairs, kvio.StrPair(fmt.Sprintf("key-%d", i%7), "some-value-payload"))
	}
	if _, err := s.AddColumnar(columnarBlock(t, pairs, kvio.KeyEncDict)); err != nil {
		t.Fatal(err)
	}
	if s.Spills() == 0 {
		t.Error("expected AddColumnar to trigger a spill")
	}
	if s.Added() != int64(len(pairs)) {
		t.Errorf("Added = %d, want %d", s.Added(), len(pairs))
	}
}

func TestAddColumnarAfterCloseFails(t *testing.T) {
	cb := columnarBlock(t, []kvio.Pair{kvio.StrPair("a", "1")}, kvio.KeyEncRaw)
	s := NewSorter(Options{})
	s.Close()
	if _, err := s.AddColumnar(cb); err == nil {
		t.Fatal("AddColumnar after Close should fail")
	}
}

// BenchmarkSorterAddColumnar measures the per-record cost of adopting
// columnar blocks on repetitive keys: a hash lookup and a value append,
// with no copies.
func BenchmarkSorterAddColumnar(b *testing.B) {
	const blockRecs = 2048
	for _, mk := range []struct {
		name   string
		keyEnc int
	}{
		{"dict", kvio.KeyEncDict},
		{"raw", kvio.KeyEncRaw},
	} {
		b.Run(mk.name, func(b *testing.B) {
			pairs := make([]kvio.Pair, blockRecs)
			for i := range pairs {
				pairs[i] = kvio.StrPair(fmt.Sprintf("some-moderate-key-%03d", i%97), "v")
			}
			cb := columnarBlock(b, pairs, mk.keyEnc)
			b.ReportAllocs()
			s := NewSorter(Options{})
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i += blockRecs {
				if _, err := s.AddColumnar(cb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
