package shuffle

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/kvio"
)

// collect runs a sorter over pairs and returns the groups as a map and
// the key order observed.
func collect(t *testing.T, opts Options, pairs []kvio.Pair) (map[string][]string, []string) {
	t.Helper()
	s := NewSorter(opts)
	defer s.Close()
	for _, p := range pairs {
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	groups := map[string][]string{}
	var order []string
	err := s.Groups(func(key []byte, values [][]byte) error {
		k := string(key)
		if _, dup := groups[k]; dup {
			t.Fatalf("key %q delivered twice", k)
		}
		var vs []string
		for _, v := range values {
			vs = append(vs, string(v))
		}
		groups[k] = vs
		order = append(order, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return groups, order
}

func TestInMemoryGrouping(t *testing.T) {
	pairs := []kvio.Pair{
		kvio.StrPair("b", "1"),
		kvio.StrPair("a", "2"),
		kvio.StrPair("b", "3"),
		kvio.StrPair("c", "4"),
		kvio.StrPair("a", "5"),
	}
	groups, order := collect(t, Options{}, pairs)
	if want := []string{"a", "b", "c"}; !equalStrings(order, want) {
		t.Errorf("key order = %v, want %v", order, want)
	}
	if !equalStrings(groups["a"], []string{"2", "5"}) {
		t.Errorf("group a = %v (value order must be stable)", groups["a"])
	}
	if !equalStrings(groups["b"], []string{"1", "3"}) {
		t.Errorf("group b = %v", groups["b"])
	}
}

func TestEmptySorter(t *testing.T) {
	groups, _ := collect(t, Options{}, nil)
	if len(groups) != 0 {
		t.Errorf("expected no groups, got %v", groups)
	}
}

func TestSpillingMatchesInMemory(t *testing.T) {
	var pairs []kvio.Pair
	for i := 0; i < 5000; i++ {
		pairs = append(pairs, kvio.StrPair(fmt.Sprintf("key-%03d", i%97), fmt.Sprintf("v%d", i)))
	}
	mem, memOrder := collect(t, Options{}, pairs)
	tmp := t.TempDir()
	spill, spillOrder := collect(t, Options{SpillBytes: 4 << 10, TempDir: tmp}, pairs)
	if !equalStrings(memOrder, spillOrder) {
		t.Fatalf("key orders differ: %d vs %d keys", len(memOrder), len(spillOrder))
	}
	for k, vs := range mem {
		if !equalStrings(vs, spill[k]) {
			t.Errorf("key %q: in-memory %v, spilled %v", k, vs, spill[k])
		}
	}
}

func TestSpillActuallySpills(t *testing.T) {
	s := NewSorter(Options{SpillBytes: 1 << 10, TempDir: t.TempDir()})
	defer s.Close()
	for i := 0; i < 1000; i++ {
		if err := s.Add(kvio.StrPair(fmt.Sprintf("key-%d", i), "some-value-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spills() == 0 {
		t.Error("expected at least one spill")
	}
	if s.Added() != 1000 {
		t.Errorf("Added = %d", s.Added())
	}
}

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

func TestCombinerInMemory(t *testing.T) {
	s := NewSorter(Options{Combine: sumCombine})
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Add(kvio.Pair{Key: []byte("x"), Value: codec.EncodeVarint(1)}); err != nil {
			t.Fatal(err)
		}
	}
	var got int64
	var count int
	err := s.Groups(func(key []byte, values [][]byte) error {
		count = len(values)
		n, err := codec.DecodeVarint(values[0])
		got = n
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 || got != 10 {
		t.Errorf("combined group: %d values, total %d; want 1 value, total 10", count, got)
	}
}

func TestCombinerAcrossSpills(t *testing.T) {
	// The combiner runs per spill and again at merge; the total must be
	// exact regardless of spill boundaries.
	s := NewSorter(Options{Combine: sumCombine, SpillBytes: 256, TempDir: t.TempDir()})
	defer s.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i%7)
		if err := s.Add(kvio.Pair{Key: []byte(key), Value: codec.EncodeVarint(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spills() == 0 {
		t.Fatal("test requires spills; lower the threshold")
	}
	totals := map[string]int64{}
	err := s.Groups(func(key []byte, values [][]byte) error {
		if len(values) != 1 {
			return fmt.Errorf("key %q: %d values after final combine", key, len(values))
		}
		v, err := codec.DecodeVarint(values[0])
		totals[string(key)] = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range totals {
		sum += v
	}
	if sum != n {
		t.Errorf("grand total %d, want %d", sum, n)
	}
}

// keepAll is a combiner that keeps every value, so a sorter with it
// runs the hash-grouped form yet must deliver the index's groups.
func keepAll(key []byte, values [][]byte) ([][]byte, error) { return values, nil }

// checkGroups is the sorter's reference model: every way of feeding
// pairs — both in-memory forms, per-record Add or 7-record blocks, and
// each spill threshold in spills (0 never spills) — must deliver
// exactly the groups of a stable sort of every record: each key once,
// keys ascending, values in input order.
func checkGroups(tb testing.TB, pairs []kvio.Pair, spills ...int64) error {
	sorted := slices.Clone(pairs)
	sort.SliceStable(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0 })
	var want []string
	for i := 0; i < len(sorted); {
		j := i
		var vs []string
		for ; j < len(sorted) && bytes.Equal(sorted[j].Key, sorted[i].Key); j++ {
			vs = append(vs, string(sorted[j].Value))
		}
		want = append(want, fmt.Sprintf("%q: %q", sorted[i].Key, vs))
		i = j
	}
	dir := tb.TempDir()
	for _, combine := range []CombineFunc{nil, keepAll} {
		for _, spill := range spills {
			for _, blocks := range []bool{false, true} {
				s := NewSorter(Options{SpillBytes: spill, TempDir: dir, Combine: combine})
				var err error
				if blocks {
					for i := 0; i < len(pairs) && err == nil; i += 7 {
						batch := pairs[i:min(i+7, len(pairs))]
						_, err = s.AddBlock(blockPayload(tb, batch), len(batch))
					}
				} else {
					for _, p := range pairs {
						if err = s.Add(p); err != nil {
							break
						}
					}
				}
				var got []string
				if err == nil {
					err = s.Groups(func(key []byte, values [][]byte) error {
						var vs []string
						for _, v := range values {
							vs = append(vs, string(v))
						}
						got = append(got, fmt.Sprintf("%q: %q", key, vs))
						return nil
					})
				}
				s.Close()
				cfg := fmt.Sprintf("combine=%v spill=%d blocks=%v", combine != nil, spill, blocks)
				if err != nil {
					return fmt.Errorf("%s: %w", cfg, err)
				}
				if len(got) != len(want) {
					return fmt.Errorf("%s: %d groups, want %d", cfg, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("%s: group %d is %.200s, want %.200s", cfg, i, got[i], want[i])
					}
				}
			}
		}
	}
	return nil
}

// TestGroupsPropertyAgainstReferenceModel runs checkGroups over fixed
// inputs, including keys the 8-byte zero-padded prefix cannot tell
// apart, and over random ones.
func TestGroupsPropertyAgainstReferenceModel(t *testing.T) {
	check := func(pairs []kvio.Pair) error { return checkGroups(t, pairs, 0, 64, 2<<10) }
	// Many repeated keys, values interleaved across them.
	var repeated []kvio.Pair
	for i := 0; i < 3000; i++ {
		repeated = append(repeated, kvio.StrPair(fmt.Sprintf("key-%03d", (i*37)%113), fmt.Sprintf("v%d", i)))
	}
	if err := check(repeated); err != nil {
		t.Fatal(err)
	}
	// Prefix collisions: each row's keys arrive three times, last key
	// first, so a kernel that sorts or groups by the padded prefix alone
	// misorders or merges them.
	var all []string
	for _, keys := range [][]string{
		{"", "\x00", "a", "a\x00", "a\x00\x00"},
		{"abcdefgh", "abcdefg\x00", "\x00\x00\x00\x00\x00\x00\x00\x00", "\xff\xff\xff\xff\xff\xff\xff\xff", "abcdefgi"},
		{"abcdefgh2", "abcdefgh10", "abcdefgh1", "abcdefghij\x00", "abcdefghij"},
		{"abcdefgh\x00", "abcdefgh", "abcdefgha", "abcdefg"},
		nil, // every key above, in numbers past the kernel's insertion sort
	} {
		if keys == nil {
			keys = slices.Concat(all, all, all, all)
		}
		all = append(all, keys...)
		var pairs []kvio.Pair
		for i := 0; i < 3*len(keys); i++ {
			pairs = append(pairs, kvio.StrPair(keys[len(keys)-1-i%len(keys)], fmt.Sprintf("v%d", i)))
		}
		if err := check(pairs); err != nil {
			t.Errorf("keys %q: %v", keys, err)
		}
	}
	big := kvio.Pair{Key: []byte("big"), Value: bytes.Repeat([]byte{'x'}, arenaChunk+1)}
	if err := check([]kvio.Pair{kvio.StrPair("m", "1"), big, kvio.StrPair("a", "2"), kvio.StrPair("big", "3")}); err != nil {
		t.Errorf("record larger than an arena chunk: %v", err)
	}
	f := func(raw [][2][]byte) bool {
		pairs := make([]kvio.Pair, len(raw))
		narrow := make([]kvio.Pair, len(raw)) // keys of at most one byte repeat
		for i, kv := range raw {
			pairs[i] = kvio.Pair{Key: kv[0], Value: kv[1]}
			narrow[i] = kvio.Pair{Key: kv[0][:min(1, len(kv[0]))], Value: kv[1]}
		}
		for _, in := range [][]kvio.Pair{pairs, narrow} {
			if err := check(in); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzSorterGroups decodes the input into pairs — a key-length byte
// (mod 12, so keys straddle the 8-byte prefix), a value-length byte
// (mod 4), then the bytes — and checks them against the stable-sort
// reference model, unspilled and with a small SpillBytes.
func FuzzSorterGroups(f *testing.F) {
	f.Add([]byte("\x00\x01v\x01\x01\x00w\x01\x01ax\x02\x01a\x00y"))
	f.Add([]byte("\x08\x00abcdefgh\x09\x00abcdefgh\x00\x08\x00abcdefgh\x0a\x01abcdefgh10z"))
	f.Add([]byte("\x02\x03aaxyz\x02\x03aaxyz\x01\x00a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var pairs []kvio.Pair
		for len(data) >= 2 {
			klen, vlen := int(data[0])%12, int(data[1])%4
			data = data[2:]
			klen = min(klen, len(data))
			key := data[:klen]
			data = data[klen:]
			vlen = min(vlen, len(data))
			pairs = append(pairs, kvio.Pair{Key: key, Value: data[:vlen]})
			data = data[vlen:]
		}
		if err := checkGroups(t, pairs, 0, 48); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSpillChargesBookkeeping: SpillBytes bounds what buffering costs,
// not just record payload. A 1-byte record's index entry or value slice
// header is many times its size, so both forms must spill once that
// bookkeeping, not the payload alone, reaches the threshold.
func TestSpillChargesBookkeeping(t *testing.T) {
	const limit = 4 << 10
	for _, combine := range []CombineFunc{nil, sumCombine} {
		s := NewSorter(Options{SpillBytes: limit, TempDir: t.TempDir(), Combine: combine})
		n := 0
		for ; n < limit && s.Spills() == 0; n++ {
			if err := s.Add(kvio.Pair{Key: []byte{byte('a' + n%2)}, Value: codec.EncodeVarint(1)}); err != nil {
				t.Fatal(err)
			}
		}
		if max := limit/int(headerBytes) + 1; n > max {
			t.Errorf("combine=%v: first spill after %d records, want at most %d", combine != nil, n, max)
		}
		s.Close()
	}
}

// TestHashFormOffsetsCannotWrap: the hash form addresses its buffers
// with uint32 offsets, so an add that would take one past 4 GiB fails
// rather than wrap.
func TestHashFormOffsetsCannotWrap(t *testing.T) {
	if err := fits(math.MaxUint32-3, 3); err != nil {
		t.Errorf("a buffer ending at 4 GiB: %v", err)
	}
	if err := fits(math.MaxUint32-3, 4); !errors.Is(err, errBufferFull) {
		t.Errorf("a buffer passing 4 GiB: error %v, want errBufferFull", err)
	}
}

// A combiner that fails during a fold fails the Add (or AddBlock) that
// set the fold off, not some later call.
func TestFoldErrorReturnedFromAdd(t *testing.T) {
	boom := fmt.Errorf("combiner exploded")
	failing := func(key []byte, values [][]byte) ([][]byte, error) { return nil, boom }
	value := bytes.Repeat([]byte("v"), 1000)
	perValue := int64(len(value)) + headerBytes
	for _, blocks := range []bool{false, true} {
		s := NewSorter(Options{Combine: failing})
		var err error
		n := 0
		for ; err == nil && n < 2*foldBytes/int(perValue); n++ {
			p := kvio.Pair{Key: []byte("k"), Value: value}
			if blocks {
				_, err = s.AddBlock(blockPayload(t, []kvio.Pair{p}), 1)
			} else {
				err = s.Add(p)
			}
		}
		if !errors.Is(err, boom) {
			t.Errorf("blocks=%v: error %v, want the combiner's", blocks, err)
		} else if first := foldBytes/int(perValue) + 1; n != first {
			t.Errorf("blocks=%v: record %d failed, want the first past foldBytes (%d)", blocks, n, first)
		}
		s.Close()
	}
}

func TestAddAfterCloseFails(t *testing.T) {
	s := NewSorter(Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(kvio.StrPair("a", "b")); err == nil {
		t.Error("Add after Close should fail")
	}
	if err := s.Groups(func([]byte, [][]byte) error { return nil }); err == nil {
		t.Error("Groups after Close should fail")
	}
}

func TestGroupsErrorPropagation(t *testing.T) {
	s := NewSorter(Options{})
	defer s.Close()
	if err := s.Add(kvio.StrPair("a", "1")); err != nil {
		t.Fatal(err)
	}
	sentinel := fmt.Errorf("stop")
	if err := s.Groups(func([]byte, [][]byte) error { return sentinel }); err != sentinel {
		t.Errorf("got %v, want sentinel", err)
	}
}

func TestBinaryKeysSortedBytewise(t *testing.T) {
	pairs := []kvio.Pair{
		{Key: []byte{0xFF}, Value: []byte("hi")},
		{Key: []byte{0x00}, Value: []byte("lo")},
		{Key: []byte{0x7F}, Value: []byte("mid")},
	}
	_, order := collect(t, Options{}, pairs)
	want := []string{"\x00", "\x7f", "\xff"}
	if !equalStrings(order, want) {
		t.Errorf("order = %q, want %q", order, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAddCopiesCallerSlices(t *testing.T) {
	// Add must not retain the caller's slices: reusing one buffer for
	// every record (the ReadShared pattern) must still group correctly.
	for _, combine := range []CombineFunc{nil, sumCombine} {
		s := NewSorter(Options{Combine: combine})
		buf := make([]byte, 8)
		for i := 0; i < 10; i++ {
			k := append(buf[:0], []byte(fmt.Sprintf("k%d", i%3))...)
			if err := s.Add(kvio.Pair{Key: k, Value: codec.EncodeVarint(1)}); err != nil {
				t.Fatal(err)
			}
		}
		var keys []string
		var total int64
		err := s.Groups(func(key []byte, values [][]byte) error {
			keys = append(keys, string(key))
			for _, v := range values {
				n, err := codec.DecodeVarint(v)
				if err != nil {
					return err
				}
				total += n
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"k0", "k1", "k2"}; !equalStrings(keys, want) {
			t.Errorf("combine=%v: keys = %v, want %v", combine != nil, keys, want)
		}
		if total != 10 {
			t.Errorf("combine=%v: total = %d, want 10", combine != nil, total)
		}
		s.Close()
	}
}

// TestHashPathMatchesSortPathByteForByte: the hash-grouped sorter, with
// and without a combiner that keeps every value, must deliver exactly
// the groups of a stable sort over every record — the form the sorter
// replaced.
func TestHashPathMatchesSortPathByteForByte(t *testing.T) {
	var pairs []kvio.Pair
	for i := 0; i < 3000; i++ {
		pairs = append(pairs, kvio.StrPair(fmt.Sprintf("key-%03d", (i*37)%113), fmt.Sprintf("v%d", i)))
	}
	sorted := append([]kvio.Pair(nil), pairs...)
	sort.SliceStable(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0 })
	sortG := map[string][]string{}
	var sortOrder []string
	for _, p := range sorted {
		k := string(p.Key)
		if _, seen := sortG[k]; !seen {
			sortOrder = append(sortOrder, k)
		}
		sortG[k] = append(sortG[k], string(p.Value))
	}
	for _, spill := range []int64{0, 2 << 10} {
		for _, combine := range []CombineFunc{nil, keepAll} {
			hashG, hashOrder := collect(t, Options{SpillBytes: spill, TempDir: t.TempDir(), Combine: combine}, pairs)
			if !equalStrings(sortOrder, hashOrder) {
				t.Fatalf("spill=%d combine=%v: key orders differ", spill, combine != nil)
			}
			for k, vs := range sortG {
				if !equalStrings(vs, hashG[k]) {
					t.Errorf("spill=%d combine=%v key %q: sort %v, hash %v", spill, combine != nil, k, vs, hashG[k])
				}
			}
		}
	}
}

func BenchmarkSorterAdd(b *testing.B) {
	// The headline allocation benchmark: steady-state cost of buffering
	// one record without a combiner. Arena storage should amortize to
	// well under one allocation per record.
	p := kvio.StrPair("some-moderate-key", "v")
	b.ReportAllocs()
	s := NewSorter(Options{})
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Add(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSorterAddCombine(b *testing.B) {
	// Hash-group path: repeated keys hit the map fast path and append
	// only the value to the arena.
	keys := make([][]byte, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	val := []byte("v")
	b.ReportAllocs()
	s := NewSorter(Options{Combine: sumCombine})
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Add(kvio.Pair{Key: keys[i%len(keys)], Value: val}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortGroupInMemory(b *testing.B) {
	pairs := make([]kvio.Pair, 10000)
	for i := range pairs {
		pairs[i] = kvio.StrPair(fmt.Sprintf("key-%04d", i%500), "v")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSorter(Options{})
		for _, p := range pairs {
			if err := s.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Groups(func([]byte, [][]byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkSortGroupSmall is an iterative chain's reduce shape: a few
// KB of records through a fresh sorter per task. Its cost should be the
// data's, not a whole arena slab's.
func BenchmarkSortGroupSmall(b *testing.B) {
	pairs := make([]kvio.Pair, 8)
	for i := range pairs {
		pairs[i] = kvio.Pair{Key: []byte(fmt.Sprintf("particle-%02d", i)), Value: bytes.Repeat([]byte{byte(i)}, 1000)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSorter(Options{})
		for _, p := range pairs {
			if err := s.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Groups(func([]byte, [][]byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// A sorter's arena grows with what it holds: 8 KB of records must not
// allocate a 256 KiB slab.
func TestSmallSortAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven")
	}
	r := testing.Benchmark(BenchmarkSortGroupSmall)
	if got := r.AllocedBytesPerOp(); got >= 32<<10 {
		t.Errorf("8 records of ~1 KiB allocated %d bytes per sort, want < 32 KiB", got)
	}
}

// BenchmarkSortGroupUniqueKeys is shuffle-sort's reduce shape: 60,000
// unique 10-byte keys with 90-byte values, adopted as ~64 KiB blocks and
// grouped without a combiner.
func BenchmarkSortGroupUniqueKeys(b *testing.B) {
	const recs, perBlock = 60000, 640
	rng := rand.New(rand.NewSource(1))
	var blocks [][]byte
	var counts []int
	for i := 0; i < recs; i += perBlock {
		batch := make([]kvio.Pair, min(perBlock, recs-i))
		for j := range batch {
			key, value := make([]byte, 10), make([]byte, 90)
			rng.Read(key)
			rng.Read(value)
			batch[j] = kvio.Pair{Key: key, Value: value}
		}
		blocks = append(blocks, blockPayload(b, batch))
		counts = append(counts, len(batch))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSorter(Options{})
		for j, block := range blocks {
			if _, err := s.AddBlock(block, counts[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Groups(func([]byte, [][]byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

func BenchmarkSortGroupExternal(b *testing.B) {
	pairs := make([]kvio.Pair, 10000)
	for i := range pairs {
		pairs[i] = kvio.StrPair(fmt.Sprintf("key-%04d", i%500), "v")
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSorter(Options{SpillBytes: 4 << 10, TempDir: dir})
		for _, p := range pairs {
			if err := s.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Groups(func([]byte, [][]byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// blockPayload frames pairs as a per-record run — exactly the run of
// one block that kvio.WalkRuns hands over.
func blockPayload(tb testing.TB, pairs []kvio.Pair) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := kvio.NewWriter(&buf)
	defer w.Release()
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// collectBlocks mirrors collect but feeds the sorter through the
// zero-copy block handoff, one block per batch of pairs.
func collectBlocks(t *testing.T, opts Options, batches [][]kvio.Pair) (map[string][]string, []string) {
	t.Helper()
	s := NewSorter(opts)
	defer s.Close()
	for _, batch := range batches {
		n, err := s.AddBlock(blockPayload(t, batch), len(batch))
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, p := range batch {
			want += int64(len(p.Key) + len(p.Value))
		}
		if n != want {
			t.Fatalf("AddBlock returned %d payload bytes, want %d", n, want)
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

// TestAddBlockMatchesAdd: feeding the same records through AddBlock
// must produce byte-identical grouping to per-record Add, with and
// without a combiner, with and without spilling.
func TestAddBlockMatchesAdd(t *testing.T) {
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantOrder := collect(t, tc.opts(), pairs)
			got, gotOrder := collectBlocks(t, tc.opts(), batches)
			if !equalStrings(wantOrder, gotOrder) {
				t.Fatalf("key order differs: %v vs %v", gotOrder, wantOrder)
			}
			for k, vs := range want {
				if !equalStrings(vs, got[k]) {
					t.Errorf("key %q: Add %v, AddBlock %v", k, vs, got[k])
				}
			}
		})
	}
}

// codecVarint is a tiny helper so combiner cases use summable values.
func codecVarint(n int64) string {
	return string(codec.EncodeVarint(n))
}

func TestAddBlockRecordCountMismatch(t *testing.T) {
	s := NewSorter(Options{})
	defer s.Close()
	payload := blockPayload(t, []kvio.Pair{kvio.StrPair("a", "1"), kvio.StrPair("b", "2")})
	if _, err := s.AddBlock(payload, 3); err == nil {
		t.Fatal("AddBlock accepted a wrong header record count")
	}
}

func TestAddBlockSpills(t *testing.T) {
	s := NewSorter(Options{SpillBytes: 1 << 10, TempDir: t.TempDir()})
	defer s.Close()
	var pairs []kvio.Pair
	for i := 0; i < 200; i++ {
		pairs = append(pairs, kvio.StrPair(fmt.Sprintf("key-%d", i), "some-value-payload"))
	}
	if _, err := s.AddBlock(blockPayload(t, pairs), len(pairs)); err != nil {
		t.Fatal(err)
	}
	if s.Spills() == 0 {
		t.Error("expected AddBlock to trigger a spill")
	}
}

func TestAddBlockAfterCloseFails(t *testing.T) {
	s := NewSorter(Options{})
	s.Close()
	if _, err := s.AddBlock(blockPayload(t, []kvio.Pair{kvio.StrPair("a", "1")}), 1); err == nil {
		t.Fatal("AddBlock after Close should fail")
	}
}

func TestAddBlockRejectsGarbage(t *testing.T) {
	s := NewSorter(Options{})
	defer s.Close()
	if _, err := s.AddBlock([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 1); err == nil {
		t.Fatal("AddBlock accepted a malformed record run")
	}
}

// TestAdoptedRunStaysUnwritten feeds whole block-framed payloads of
// several runs each through kvio.WalkRuns into AddBlock, spilling and
// not: the groups must be those of Add, and every byte the sorter
// adopted must be as it was.
func TestAdoptedRunStaysUnwritten(t *testing.T) {
	var pairs []kvio.Pair
	for i := 0; i < 500; i++ {
		pairs = append(pairs, kvio.StrPair(fmt.Sprintf("key-%03d", (i*37)%101), fmt.Sprintf("value-%d", i)))
	}
	payloads := [][]byte{blockStream(t, pairs[:250]), blockStream(t, pairs[250:])}
	orig := [][]byte{bytes.Clone(payloads[0]), bytes.Clone(payloads[1])}
	groups := func(s *Sorter) (out []string) {
		t.Helper()
		err := s.Groups(func(key []byte, values [][]byte) error {
			out = append(out, fmt.Sprintf("%q: %q", key, values))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, spill := range []int64{0, 2 << 10} {
		want := NewSorter(Options{SpillBytes: spill, TempDir: t.TempDir()})
		for _, p := range pairs {
			if err := want.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		s := NewSorter(Options{SpillBytes: spill, TempDir: t.TempDir()})
		for _, p := range payloads {
			err := kvio.WalkRuns(p, func(run []byte, recs int) error {
				_, err := s.AddBlock(run, recs)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if got, want := groups(s), groups(want); !slices.Equal(got, want) {
			t.Errorf("spill=%d: adopted payloads grouped as %.200q, Add as %.200q", spill, got, want)
		}
		s.Close()
		want.Close()
		for i := range payloads {
			if !bytes.Equal(payloads[i], orig[i]) {
				t.Fatalf("spill=%d: the sorter wrote into adopted payload %d", spill, i)
			}
		}
	}
}

// blockStream frames pairs as a bucket rests: identity blocks of about
// 1 KiB, so a payload of a few hundred records holds several runs.
func blockStream(tb testing.TB, pairs []kvio.Pair) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := kvio.NewBlockWriter(&buf, 1<<10)
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
