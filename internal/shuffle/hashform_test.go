package shuffle_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/kvio"
	"repro/internal/shuffle"
)

// TestHashFormHoldsNoPointers: nothing the hash form keeps per key, per
// pending value or per table slot holds a pointer, so the collector
// never scans them and no per-key or per-value allocation can hide in
// them.
func TestHashFormHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	for _, typ := range shuffle.HashFormTypes {
		walk(typ.String(), typ)
	}
}

// TestFoldCadenceUnchanged: the hash form folds where a pending value's
// payload plus 24 bytes, summed since the last fold, would pass
// foldBytes, whatever it stores a pending value as.
func TestFoldCadenceUnchanged(t *testing.T) {
	pairs := countPairs(100000, 5)
	var want, pending int64
	for _, p := range pairs {
		n := int64(len(p.Value)) + 24
		if pending > 0 && pending+n > shuffle.FoldBytes {
			want, pending = want+1, 0
		}
		pending += n
	}
	for _, blocks := range []bool{false, true} {
		_, s := sorted(t, shuffle.Options{Combine: sumCombine}, pairs, blocks)
		if s.Folds() != want {
			t.Errorf("blocks=%v: %d folds, want %d", blocks, s.Folds(), want)
		}
	}
}

// decodeCount is a count value, the empty value counting 0.
func decodeCount(v []byte) (int64, error) {
	if len(v) == 0 {
		return 0, nil
	}
	return codec.DecodeVarint(v)
}

func total(values [][]byte) (int64, error) {
	var n int64
	for _, v := range values {
		c, err := decodeCount(v)
		if err != nil {
			return 0, err
		}
		n += c
	}
	return n, nil
}

// TestFoldArenaCompacts: a long Zipf stream folds many times, each fold
// leaving the touched groups' old values dead in the fold arena, so the
// arena compacts, and the groups still equal one combine over each
// key's values. The combiners return zero values for some keys, two
// values one of which is empty, and values aliasing their inputs, which
// may lie in the fold arena itself.
func TestFoldArenaCompacts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.1, 1, 8000)
	pairs := make([]kvio.Pair, 250000)
	for i := range pairs {
		pairs[i] = kvio.Pair{Key: fmt.Appendf(nil, "w%d", zipf.Uint64()), Value: codec.EncodeVarint(int64(1 + rng.Intn(100)))}
	}
	combiners := []struct {
		name    string
		combine shuffle.CombineFunc
	}{
		{"sum", sumCombine},
		{"none-or-sum", func(key []byte, values [][]byte) ([][]byte, error) {
			if key[len(key)-1] == '7' {
				return nil, nil
			}
			return sumCombine(key, values)
		}},
		{"sum-and-empty", func(key []byte, values [][]byte) ([][]byte, error) {
			n, err := total(values)
			return [][]byte{codec.EncodeVarint(n), {}}, err
		}},
		{"max-aliased", func(key []byte, values [][]byte) ([][]byte, error) {
			best := 0
			for i, v := range values {
				if bytes.Compare(v, values[best]) > 0 {
					best = i
				}
			}
			return values[best : best+1], nil
		}},
	}
	for _, c := range combiners {
		want := singlePass(t, c.combine, pairs)
		for _, blocks := range []bool{false, true} {
			name := fmt.Sprintf("%s/blocks=%v", c.name, blocks)
			got, s := sorted(t, shuffle.Options{Combine: c.combine}, pairs, blocks)
			if s.Folds() < 10 || shuffle.Compactions(s) < 1 {
				t.Errorf("%s: %d folds, %d compactions; want many folds and a compaction", name, s.Folds(), shuffle.Compactions(s))
			}
			if !equalGroups(got, want) {
				t.Errorf("%s: groups differ from one combine per key", name)
			}
		}
	}
}

func equalGroups(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestHashFormAddBlockCopies: the hash form keeps no reference into a
// block it was given, so overwriting the block after AddBlock, before
// and after folds, leaves the groups unchanged.
func TestHashFormAddBlockCopies(t *testing.T) {
	pairs := countPairs(30000, 6)
	s := shuffle.NewSorter(shuffle.Options{Combine: sumCombine})
	defer s.Close()
	for i := 0; i < len(pairs); i += 64 {
		batch := pairs[i:min(i+64, len(pairs))]
		block := kvio.Marshal(batch)
		if _, err := s.AddBlock(block, len(batch)); err != nil {
			t.Fatal(err)
		}
		block = block[:cap(block)]
		for j := range block {
			block[j] = 0xff
		}
	}
	if s.Folds() == 0 {
		t.Fatal("no fold; the stream no longer crosses foldBytes")
	}
	var got []string
	if err := s.Groups(func(key []byte, values [][]byte) error {
		got = append(got, fmt.Sprintf("%q: %x", key, values))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !equalGroups(got, singlePass(t, sumCombine, pairs)) {
		t.Error("groups changed when the blocks were overwritten")
	}
}

// countCombine sums counts into a buffer of its own that its next call
// reuses, as the WordCount combiner does: it allocates nothing once
// warm.
func countCombine() shuffle.CombineFunc {
	var out [1][]byte
	var buf []byte
	return func(key []byte, values [][]byte) ([][]byte, error) {
		var n int64
		for _, v := range values {
			c, err := codec.DecodeVarint(v)
			if err != nil {
				return nil, err
			}
			n += c
		}
		buf = binary.AppendVarint(buf[:0], n)
		out[0] = buf
		return out[:], nil
	}
}

// BenchmarkSorterCombineZipf is a WordCount map task's combining
// sorter: words Zipf-drawn from a 30,000-word vocabulary, each with a
// count of 1, through a combiner that allocates nothing. One op is one
// Add into a sorter a full pass of the stream has warmed, so every key
// is known and every buffer is at size: steady state allocates nothing
// per record, per key or per fold.
func BenchmarkSorterCombineZipf(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 30000-1)
	pairs := make([]kvio.Pair, 150000)
	one := codec.EncodeVarint(1)
	for i := range pairs {
		pairs[i] = kvio.Pair{Key: fmt.Appendf(nil, "w%d", zipf.Uint64()), Value: one}
	}
	s := shuffle.NewSorter(shuffle.Options{Combine: countCombine()})
	defer s.Close()
	for _, p := range pairs {
		if err := s.Add(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Add(pairs[i%len(pairs)]); err != nil {
			b.Fatal(err)
		}
	}
}
