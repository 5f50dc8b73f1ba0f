package shuffle_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/kvio"
	"repro/internal/shuffle"
)

func sumCombine(key []byte, values [][]byte) ([][]byte, error) {
	var total int64
	for _, v := range values {
		n, err := codec.DecodeVarint(v)
		if err != nil {
			return nil, err
		}
		total += n
	}
	return [][]byte{codec.EncodeVarint(total)}, nil
}

// kmeansUpdate is the k-means update reduce as the map-side combine
// runs it.
func kmeansUpdate(tb testing.TB) shuffle.CombineFunc {
	reg := core.NewRegistry()
	kmeans.Register(reg)
	fn, err := reg.Reduce(kmeans.UpdateName, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return core.CombineAdapter(fn)
}

// kmeansPartials is a k-means assign task's output: n single-point
// partials (a count of 1, then 32 float64s: 257 bytes) over 8 cluster
// keys.
func kmeansPartials(n int, seed int64) []kvio.Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]kvio.Pair, n)
	for i := range pairs {
		v := binary.AppendVarint(nil, 1)
		for d := 0; d < 32; d++ {
			v = binary.LittleEndian.AppendUint64(v, math.Float64bits(rng.Float64()*200-100))
		}
		pairs[i] = kvio.Pair{Key: codec.EncodeVarint(int64(rng.Intn(8))), Value: v}
	}
	return pairs
}

// countPairs is a WordCount map's output: counts of 1 over Zipf-skewed
// keys, so a few groups fold many times and many hold a lone value.
func countPairs(n int, seed int64) []kvio.Pair {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 5000)
	pairs := make([]kvio.Pair, n)
	for i := range pairs {
		pairs[i] = kvio.Pair{Key: fmt.Appendf(nil, "word-%d", zipf.Uint64()), Value: codec.EncodeVarint(1)}
	}
	return pairs
}

// singlePass is the reference: each key's values combined once, over
// all of them in arrival order, keys ascending.
func singlePass(tb testing.TB, combine shuffle.CombineFunc, pairs []kvio.Pair) []string {
	byKey := map[string][][]byte{}
	for _, p := range pairs {
		byKey[string(p.Key)] = append(byKey[string(p.Key)], p.Value)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		vals, err := combine([]byte(k), byKey[k])
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = fmt.Sprintf("%q: %x", k, vals)
	}
	return out
}

// sorted feeds pairs to a sorter, per record or as 64-record blocks,
// and returns its groups as singlePass formats them.
func sorted(tb testing.TB, opts shuffle.Options, pairs []kvio.Pair, blocks bool) ([]string, *shuffle.Sorter) {
	s := shuffle.NewSorter(opts)
	tb.Cleanup(func() { s.Close() })
	for i := 0; i < len(pairs); i += 64 {
		batch := pairs[i:min(i+64, len(pairs))]
		if blocks {
			if _, err := s.AddBlock(kvio.Marshal(batch), len(batch)); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		for _, p := range batch {
			if err := s.Add(p); err != nil {
				tb.Fatal(err)
			}
		}
	}
	var got []string
	err := s.Groups(func(key []byte, values [][]byte) error {
		got = append(got, fmt.Sprintf("%q: %x", key, values))
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return got, s
}

// TestFoldMatchesSinglePass: folding as values arrive, however many
// times, and spilling on top, delivers exactly one combine over each
// key's values in arrival order, byte for byte — the floating-point
// k-means sums included, since each fold's result comes first.
func TestFoldMatchesSinglePass(t *testing.T) {
	cases := []struct {
		name    string
		combine shuffle.CombineFunc
		pairs   []kvio.Pair
		spill   int64 // 0 never spills
		spills  bool  // whether the sorter must spill
	}{
		// Folding keeps a k-means task's sorter at a few KB past
		// foldBytes, so a 1 MiB spill threshold is never reached.
		{"kmeans", kmeansUpdate(t), kmeansPartials(6000, 1), 0, false},
		{"kmeans/spill-limit", kmeansUpdate(t), kmeansPartials(6000, 2), 1 << 20, false},
		{"sum", sumCombine, countPairs(60000, 3), 0, false},
		{"sum/spilled", sumCombine, countPairs(60000, 4), 64 << 10, true},
	}
	for _, c := range cases {
		var payload int64
		for _, p := range c.pairs {
			payload += int64(len(p.Value)) + 24
		}
		if payload < 4*shuffle.FoldBytes {
			t.Fatalf("%s: %d pending bytes cross foldBytes fewer than 4 times", c.name, payload)
		}
		want := singlePass(t, c.combine, c.pairs)
		for _, blocks := range []bool{false, true} {
			name := fmt.Sprintf("%s/blocks=%v", c.name, blocks)
			got, s := sorted(t, shuffle.Options{Combine: c.combine, SpillBytes: c.spill, TempDir: t.TempDir()}, c.pairs, blocks)
			if s.Folds() < 3 && !c.spills {
				t.Errorf("%s: %d folds, want several", name, s.Folds())
			}
			if spilled := s.Spills() > 0; spilled != c.spills {
				t.Errorf("%s: %d spills, want spilled=%v", name, s.Spills(), c.spills)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d groups, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: group %d is %s, want %s", name, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkSortGroupCombineHeavy is a k-means assign task's map-side
// combine: 30,000 single-point partials of 257 bytes over 8 cluster
// keys through the real update combiner, per sort. Folding makes its
// allocations per fold, not per record.
func BenchmarkSortGroupCombineHeavy(b *testing.B) {
	pairs := kmeansPartials(30000, 1)
	combine := kmeansUpdate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shuffle.NewSorter(shuffle.Options{Combine: combine})
		for _, p := range pairs {
			if err := s.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Groups(func(key []byte, values [][]byte) error {
			if len(values) != 1 {
				return fmt.Errorf("key %x: %d values", key, len(values))
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
