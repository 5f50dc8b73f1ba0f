package prand

import (
	"math"
	"testing"
	"testing/quick"
)

// TestReferenceVectorSeedArray checks against the published output of
// the reference mt19937-64.c test program, which seeds with
// init_by_array64({0x12345, 0x23456, 0x34567, 0x45678}) and prints
// 1000 values; the first ten are below.
func TestReferenceVectorSeedArray(t *testing.T) {
	m := &MT{}
	m.SeedArray([]uint64{0x12345, 0x23456, 0x34567, 0x45678})
	want := []uint64{
		7266447313870364031,
		4946485549665804864,
		16945909448695747420,
		16394063075524226720,
		4873882236456199058,
		14877448043947020171,
		6740343660852211943,
		13857871200353263164,
		5249110015610582907,
		10205081126064480383,
	}
	for i, w := range want {
		if got := m.Uint64(); got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
}

func TestSingleSeedDeterministic(t *testing.T) {
	a := NewMT(42)
	b := NewMT(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewMT(1)
	b := NewMT(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/100 outputs", same)
	}
}

func TestFloat64Range01(t *testing.T) {
	m := NewMT(7)
	for i := 0; i < 10000; i++ {
		f := m.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	m := NewMT(99)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestFloat64RangeBounds(t *testing.T) {
	m := NewMT(3)
	for i := 0; i < 1000; i++ {
		f := m.Float64Range(-5, 12)
		if f < -5 || f >= 12 {
			t.Fatalf("Float64Range out of bounds: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	m := NewMT(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[m.Intn(7)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) value %d came up %d/70000; badly skewed", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewMT(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	m := NewMT(23)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := m.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	m := NewMT(5)
	p := m.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleDeterministic(t *testing.T) {
	run := func() []int {
		m := NewMT(77)
		s := []int{0, 1, 2, 3, 4, 5, 6, 7}
		m.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle not deterministic for equal seeds")
		}
	}
}

func TestRandomIndependentStreams(t *testing.T) {
	// Same args -> same stream.
	a := Random(1, 10, 20)
	b := Random(1, 10, 20)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical Random args diverged")
		}
	}
	// Different tuples -> different streams.
	tuples := [][]uint64{
		{},
		{0},
		{1},
		{0, 0},
		{0, 1},
		{1, 0},
		{10, 20},
		{20, 10},
	}
	firsts := map[uint64][]uint64{}
	for _, tup := range tuples {
		v := Random(1, tup...).Uint64()
		if prev, ok := firsts[v]; ok {
			t.Errorf("streams for %v and %v share first output", prev, tup)
		}
		firsts[v] = tup
	}
}

func TestRandomBaseSeedSeparatesPrograms(t *testing.T) {
	a := Random(100, 1, 2).Uint64()
	b := Random(200, 1, 2).Uint64()
	if a == b {
		t.Error("different base seeds produced identical streams")
	}
}

func TestRandomManyArgs(t *testing.T) {
	// The paper notes ~300 64-bit args fit in the MT state; verify a
	// 300-arg tuple works and is sensitive to a change in any position.
	args := make([]uint64, 300)
	for i := range args {
		args[i] = uint64(i)
	}
	base := Random(1, args...).Uint64()
	for _, pos := range []int{0, 150, 299} {
		mod := make([]uint64, len(args))
		copy(mod, args)
		mod[pos]++
		if Random(1, mod...).Uint64() == base {
			t.Errorf("changing arg %d did not change the stream", pos)
		}
	}
}

func TestRandomStreamsUncorrelated(t *testing.T) {
	// Adjacent task indices should produce uncorrelated streams; check
	// the sample correlation of the first 1000 floats is small.
	a := Random(1, 42, 0)
	b := Random(1, 42, 1)
	const n = 1000
	var sa, sb, saa, sbb, sab float64
	for i := 0; i < n; i++ {
		x, y := a.Float64(), b.Float64()
		sa += x
		sb += y
		saa += x * x
		sbb += y * y
		sab += x * y
	}
	cov := sab/n - (sa/n)*(sb/n)
	va := saa/n - (sa/n)*(sa/n)
	vb := sbb/n - (sb/n)*(sb/n)
	corr := cov / math.Sqrt(va*vb)
	if math.Abs(corr) > 0.1 {
		t.Errorf("streams correlated: r = %v", corr)
	}
}

func TestSeedArrayMatchesQuickProperty(t *testing.T) {
	// SeedArray must be deterministic for arbitrary keys.
	f := func(key []uint64) bool {
		if len(key) == 0 {
			key = []uint64{0}
		}
		m1, m2 := &MT{}, &MT{}
		m1.SeedArray(key)
		m2.SeedArray(key)
		return m1.Uint64() == m2.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReseedMatchesRandom: a generator reseeded in place, after draws
// that leave a spare normal variate cached, yields the same stream as a
// fresh Random for the same arguments; up to six arguments reseed
// without allocating.
func TestReseedMatchesRandom(t *testing.T) {
	for _, n := range []int{0, 1, 2, 6, 9} {
		args := make([]uint64, n)
		for i := range args {
			args[i] = uint64(i)*0x9E3779B97F4A7C15 + 7
		}
		var m MT
		m.Reseed(99, 1, 2, 3)
		m.Uint64()
		m.NormFloat64() // caches a spare
		m.Reseed(42, args...)
		want := Random(42, args...)
		for i := 0; i < 1000; i++ {
			var got, exp float64
			switch i % 3 {
			case 0:
				got, exp = float64(m.Uint64()>>11), float64(want.Uint64()>>11)
			case 1:
				got, exp = m.NormFloat64(), want.NormFloat64()
			default:
				got, exp = m.Float64(), want.Float64()
			}
			if got != exp {
				t.Fatalf("%d args: draw %d = %v after Reseed, %v from Random", n, i, got, exp)
			}
		}
		if n <= 6 {
			if allocs := testing.AllocsPerRun(10, func() { m.Reseed(42, args...) }); allocs != 0 {
				t.Errorf("%d args: Reseed made %v allocations, want 0", n, allocs)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	m := NewMT(1)
	for i := 0; i < b.N; i++ {
		m.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	m := NewMT(1)
	for i := 0; i < b.N; i++ {
		m.Float64()
	}
}

func BenchmarkRandomConstruction(b *testing.B) {
	// Cost of deriving a fresh independent stream (per task).
	for i := 0; i < b.N; i++ {
		Random(1, uint64(i), 42)
	}
}
