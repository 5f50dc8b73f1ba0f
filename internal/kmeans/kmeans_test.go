package kmeans

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kvio"
)

func config() Config {
	return Config{K: 3, Dims: 2, MaxIters: 30, Epsilon: 1e-9, Tasks: 3, Seed: 11}
}

func TestCentroidsRoundTrip(t *testing.T) {
	cs := [][]float64{{1, 2}, {3, 4}, {-5, 0.5}}
	got, err := DecodeCentroids(EncodeCentroids(cs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2][0] != -5 || got[1][1] != 4 {
		t.Errorf("got %v", got)
	}
}

func TestCentroidsDecodeErrors(t *testing.T) {
	if _, err := DecodeCentroids(nil); err == nil {
		t.Error("empty accepted")
	}
	enc := EncodeCentroids([][]float64{{1, 2}})
	if _, err := DecodeCentroids(enc[:len(enc)-4]); err == nil {
		t.Error("truncated accepted")
	}
}

func TestPartialRoundTrip(t *testing.T) {
	count, sum, err := decodePartial(appendPartial(nil, 7, []float64{1.5, -2}))
	if err != nil {
		t.Fatal(err)
	}
	if count != 7 || sum[0] != 1.5 || sum[1] != -2 {
		t.Errorf("got %d %v", count, sum)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := config()
	a, ca, err := GeneratePoints(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, cb, err := GeneratePoints(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 50 || len(ca) != cfg.K {
		t.Fatalf("shapes: %d points, %d centers", len(a), len(ca))
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatal("points not deterministic")
			}
		}
	}
	for i := range ca {
		for d := range ca[i] {
			if ca[i][d] != cb[i][d] {
				t.Fatal("centers not deterministic")
			}
		}
	}
}

func TestInitialCentroidsDistinct(t *testing.T) {
	cfg := config()
	points, _, _ := GeneratePoints(cfg, 30)
	init, err := InitialCentroids(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(init) != cfg.K {
		t.Fatalf("got %d centroids", len(init))
	}
	if _, err := InitialCentroids(Config{K: 100}, points[:3]); err == nil {
		t.Error("too few points accepted")
	}
}

func TestSerialConverges(t *testing.T) {
	cfg := config()
	points, trueCenters, _ := GeneratePoints(cfg, 300)
	init, err := InitialCentroidsPlusPlus(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSerial(cfg, points, init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= cfg.MaxIters {
		t.Logf("did not fully converge in %d iters (ok for some seeds)", res.Iterations)
	}
	// The converged inertia should match (or beat — fitted centroids
	// track the sample means) the inertia of the true generating
	// centers; that is the noise floor for this data.
	finalInertia := Inertia(points, res.Centroids)
	trueInertia := Inertia(points, trueCenters)
	if finalInertia > trueInertia*1.05 {
		t.Errorf("inertia %v above the true-center floor %v", finalInertia, trueInertia)
	}
	for _, c := range res.Centroids {
		best := math.Inf(1)
		for _, tc := range trueCenters {
			if d := math.Sqrt(sqDist(c, tc)); d < best {
				best = d
			}
		}
		if best > 10 {
			t.Errorf("centroid %v is %.1f away from any true center", c, best)
		}
	}
}

func TestMapReduceMatchesSerialExactly(t *testing.T) {
	cfg := config()
	points, _, _ := GeneratePoints(cfg, 200)
	init, _ := InitialCentroids(cfg, points)

	serial, err := RunSerial(cfg, points, init)
	if err != nil {
		t.Fatal(err)
	}

	reg := core.NewRegistry()
	Register(reg)
	for _, mk := range []func() core.Executor{
		func() core.Executor { return core.NewSerial(reg) },
		func() core.Executor { return core.NewThreads(reg, 4) },
	} {
		exec := mk()
		job := core.NewJob(exec)
		src, err := job.LocalData(PointPairs(points), core.OpOpts{Splits: cfg.Tasks, Partition: "roundrobin"})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunMapReduce(job, cfg, src, init)
		if err != nil {
			t.Fatal(err)
		}
		job.Close()
		exec.Close()
		if res.Iterations != serial.Iterations {
			t.Errorf("iterations: MR %d, serial %d", res.Iterations, serial.Iterations)
		}
		for i := range serial.Centroids {
			for d := range serial.Centroids[i] {
				diff := math.Abs(res.Centroids[i][d] - serial.Centroids[i][d])
				if diff > 1e-9 {
					t.Errorf("centroid %d dim %d: MR %v, serial %v",
						i, d, res.Centroids[i][d], serial.Centroids[i][d])
				}
			}
		}
	}
}

func TestEmptyClusterKeepsCentroid(t *testing.T) {
	// Place an initial centroid far from all points; it must survive
	// unchanged rather than collapse to NaN.
	cfg := Config{K: 2, Dims: 1, MaxIters: 5, Epsilon: 1e-12, Tasks: 1, Seed: 1}
	points := [][]float64{{0}, {1}, {2}}
	init := [][]float64{{1}, {1e9}}
	res, err := RunSerial(cfg, points, init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids[1][0] != 1e9 {
		t.Errorf("empty cluster centroid moved: %v", res.Centroids[1])
	}
	if math.IsNaN(res.Centroids[0][0]) {
		t.Error("NaN centroid")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.K != 4 || cfg.Dims != 2 || cfg.MaxIters != 50 {
		t.Errorf("defaults: %+v", cfg)
	}
}

func BenchmarkKMeansIterationMR(b *testing.B) {
	cfg := Config{K: 4, Dims: 8, MaxIters: 1, Epsilon: 0, Tasks: 4, Seed: 3}
	points, _, _ := GeneratePoints(cfg, 1000)
	init, _ := InitialCentroids(cfg, points)
	reg := core.NewRegistry()
	Register(reg)
	exec := core.NewThreads(reg, 4)
	defer exec.Close()
	job := core.NewJob(exec)
	defer job.Close()
	src, err := job.LocalData(PointPairs(points), core.OpOpts{Splits: 4, Partition: "roundrobin"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMapReduce(job, cfg, src, init); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlusPlusSpreadsCentroids(t *testing.T) {
	cfg := config()
	points, trueCenters, _ := GeneratePoints(cfg, 300)
	init, err := InitialCentroidsPlusPlus(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	// Each true center should have an initial centroid nearby (within
	// the inter-cluster scale), i.e. ++ seeding covers all clusters.
	for _, tc := range trueCenters {
		best := math.Inf(1)
		for _, c := range init {
			if d := math.Sqrt(sqDist(c, tc)); d < best {
				best = d
			}
		}
		if best > 30 {
			t.Errorf("true center %v has no nearby seed (closest %.1f)", tc, best)
		}
	}
}

func TestPlusPlusDegenerate(t *testing.T) {
	cfg := Config{K: 3, Dims: 1, Seed: 5}
	points := [][]float64{{1}, {1}, {1}, {1}}
	init, err := InitialCentroidsPlusPlus(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(init) != 3 {
		t.Errorf("got %d centroids", len(init))
	}
}

func TestMapReduceDistributedCluster(t *testing.T) {
	// Broadcast params must survive the real XML-RPC path: run k-means
	// on an actual master + slaves deployment and compare with serial.
	cfg := config()
	points, _, _ := GeneratePoints(cfg, 150)
	init, _ := InitialCentroidsPlusPlus(cfg, points)
	serial, err := RunSerial(cfg, points, init)
	if err != nil {
		t.Fatal(err)
	}

	reg := core.NewRegistry()
	Register(reg)
	c, err := cluster.Start(reg, cluster.Options{Slaves: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job := core.NewJob(c.Executor())
	defer job.Close()
	src, err := job.LocalData(PointPairs(points), core.OpOpts{Splits: 3, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMapReduce(job, cfg, src, init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != serial.Iterations {
		t.Errorf("iterations: distributed %d, serial %d", res.Iterations, serial.Iterations)
	}
	for i := range serial.Centroids {
		for d := range serial.Centroids[i] {
			if diff := math.Abs(res.Centroids[i][d] - serial.Centroids[i][d]); diff > 1e-9 {
				t.Errorf("centroid %d dim %d differs by %v", i, d, diff)
			}
		}
	}
}

// assignFunc builds the assign map for the given centroids, as a map
// task does.
func assignFunc(tb testing.TB, centroids [][]float64) core.MapFunc {
	tb.Helper()
	reg := core.NewRegistry()
	Register(reg)
	fn, err := reg.Map(AssignName, EncodeCentroids(centroids))
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// The assign map reuses its key and partial buffers; what it emits must
// still be each point's nearest cluster and a partial of count 1 and
// the point itself.
func TestAssignEmitsPointPartials(t *testing.T) {
	cfg := Config{K: 5, Dims: 7, Seed: 3}
	points, _, err := GeneratePoints(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	centroids, err := InitialCentroids(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	assign := assignFunc(t, centroids)
	var e kvio.SliceEmitter
	for _, p := range PointPairs(points) {
		if err := assign(p.Key, p.Value, &e); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range points {
		best, bestDist := 0, math.Inf(1)
		for c := range centroids {
			if d := sqDist(p, centroids[c]); d < bestDist {
				best, bestDist = c, d
			}
		}
		got := e.Pairs[i]
		if !bytes.Equal(got.Key, codec.EncodeVarint(int64(best))) || !bytes.Equal(got.Value, appendPartial(nil, 1, p)) {
			t.Fatalf("point %d: emitted %x=%x, want cluster %d and its partial", i, got.Key, got.Value, best)
		}
	}
}

// nearest's four-a-step distances are sqDist's to the bit, for every
// remainder of the dimension, and it picks the first of equal centroids.
func TestNearestMatchesSqDist(t *testing.T) {
	for dims := 1; dims <= 9; dims++ {
		cfg := Config{K: 6, Dims: dims, Seed: uint64(dims)}
		points, _, err := GeneratePoints(cfg, 50)
		if err != nil {
			t.Fatal(err)
		}
		centroids := append(points[:cfg.K:cfg.K], points[0])
		for _, p := range points {
			best, bestDist := 0, math.Inf(1)
			for i, c := range centroids {
				if d := sqDist(p, c); d < bestDist {
					best, bestDist = i, d
				}
			}
			i, d := nearest(p, centroids)
			if i != best || math.Float64bits(d) != math.Float64bits(bestDist) {
				t.Fatalf("dims %d: nearest gave %d at %v, sqDist %d at %v", dims, i, d, best, bestDist)
			}
		}
	}
}

// oddFloats returns n float64s drawn from ordinary values and every
// awkward class: NaNs with distinct payloads (quiet and signalling, both
// signs), ±0, ±Inf, subnormals and the extremes of the normal range.
func oddFloats(rng *rand.Rand, n int) []float64 {
	odd := []uint64{
		0x7FF8000000000000, 0x7FF8DEADBEEF0001, 0x7FF0000000000001, 0xFFF4000000C0FFEE,
		0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
		0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x000A5A5A5A5A5A5A, 0x7FEFFFFFFFFFFFFF,
		0x0010000000000000, 0xFFEFFFFFFFFFFFFF,
	}
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = rng.NormFloat64() * 100
		} else {
			out[i] = math.Float64frombits(odd[rng.Intn(len(odd))])
		}
	}
	return out
}

// TestAddFloatsMatchesOneElement: the four-a-step addFloats leaves every
// sum bit-identical to the one-element loop it replaced, for lengths 0
// to 67 (every tail length after several full steps) and sums and
// addends drawn from NaN payloads, ±0, ±Inf and subnormals, over a run
// of adds into the same sums as the update reduce makes.
func TestAddFloatsMatchesOneElement(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 20; trial++ {
			got := oddFloats(rng, n)
			want := append([]float64(nil), got...)
			for add := 0; add < 3; add++ {
				raw := make([]byte, 0, 8*n)
				for _, x := range oddFloats(rng, n) {
					raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
				}
				addFloats(got, raw)
				for d := range want {
					want[d] += math.Float64frombits(binary.LittleEndian.Uint64(raw[8*d:]))
				}
			}
			for d := range want {
				if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("n=%d: sum[%d] = %#x, one-element loop %#x",
						n, d, math.Float64bits(got[d]), math.Float64bits(want[d]))
				}
			}
		}
	}
}

// A point whose dimension differs from the centroids' is an error: a
// longer one would index past each centroid, a shorter one would get a
// partial distance and a partial of the wrong length.
func TestAssignRejectsDimensionMismatch(t *testing.T) {
	assign := assignFunc(t, [][]float64{{0, 0, 0}, {5, 5, 5}})
	var e kvio.SliceEmitter
	for _, point := range [][]float64{{1, 2, 3, 4}, {1, 2}, nil} {
		if err := assign(codec.EncodeVarint(0), codec.EncodeFloat64Slice(point), &e); err == nil {
			t.Errorf("%d-D point against 3-D centroids: no error", len(point))
		}
	}
	if err := assign(codec.EncodeVarint(1), codec.EncodeFloat64Slice([]float64{4, 4, 4}), &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Pairs) != 1 || !bytes.Equal(e.Pairs[0].Key, codec.EncodeVarint(1)) {
		t.Errorf("after the rejected points, emitted %v, want one pair for cluster 1", e.Pairs)
	}
}

// EncodeCentroids allocates once, at the exact size, and writes the
// bytes of the append-grown encoding it replaced.
func TestEncodeCentroidsExactSize(t *testing.T) {
	ref := func(cs [][]float64) []byte {
		dims := 0
		if len(cs) > 0 {
			dims = len(cs[0])
		}
		out := binary.AppendVarint(binary.AppendVarint(nil, int64(len(cs))), int64(dims))
		for _, c := range cs {
			for _, x := range c {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
			}
		}
		return out
	}
	cfg := Config{K: 70, Dims: 32, Seed: 5}
	points, _, err := GeneratePoints(cfg, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range [][][]float64{nil, points[:1], points[:8], points} {
		enc := EncodeCentroids(cs)
		if !bytes.Equal(enc, ref(cs)) {
			t.Errorf("k=%d: encoding differs from the reference", len(cs))
		}
		if cap(enc) != len(enc) {
			t.Errorf("k=%d: cap %d, len %d", len(cs), cap(enc), len(enc))
		}
		if a := testing.AllocsPerRun(20, func() { enc = EncodeCentroids(cs) }); a != 1 {
			t.Errorf("k=%d: %v allocs, want 1", len(cs), a)
		}
	}
}

// BenchmarkKMeansAssign assigns one 32-dimensional point to one of 8
// centroids per op: no allocation per point once the task's scratch is
// warm.
func BenchmarkKMeansAssign(b *testing.B) {
	cfg := Config{K: 8, Dims: 32, Seed: 1}
	points, _, err := GeneratePoints(cfg, 1024)
	if err != nil {
		b.Fatal(err)
	}
	centroids, err := InitialCentroids(cfg, points)
	if err != nil {
		b.Fatal(err)
	}
	pairs := PointPairs(points)
	assign := assignFunc(b, centroids)
	e := &kvio.CountingEmitter{}
	if err := assign(pairs[0].Key, pairs[0].Value, e); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if err := assign(p.Key, p.Value, e); err != nil {
			b.Fatal(err)
		}
	}
}

// updateFunc resolves the update reduce as a task does.
func updateFunc(tb testing.TB) core.ReduceFunc {
	tb.Helper()
	reg := core.NewRegistry()
	Register(reg)
	fn, err := reg.Reduce(UpdateName, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// The update reuses its sum vector from call to call, but each call's
// dimension check is against that call's first partial: a call of 2-D
// partials after one of 3-D ones is fine, a mixed call is not.
func TestUpdateChecksDimensionPerCall(t *testing.T) {
	update := updateFunc(t)
	var e kvio.SliceEmitter
	three := [][]byte{appendPartial(nil, 1, []float64{1, 2, 3}), appendPartial(nil, 2, []float64{4, 5, 6})}
	two := [][]byte{appendPartial(nil, 1, []float64{1, 2}), appendPartial(nil, 1, []float64{3, 4})}
	for _, vals := range [][][]byte{three, two, nil} {
		if err := update([]byte("k"), vals, &e); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range [][]byte{appendPartial(nil, 3, []float64{5, 7, 9}), appendPartial(nil, 2, []float64{4, 6}), appendPartial(nil, 0, nil)} {
		if !bytes.Equal(e.Pairs[i].Value, want) {
			t.Errorf("call %d emitted %x, want %x", i, e.Pairs[i].Value, want)
		}
	}
	if err := update([]byte("k"), [][]byte{two[0], three[0]}, &e); err == nil {
		t.Error("mixed 2-D and 3-D partials in one call: no error")
	}
}

// BenchmarkKMeansUpdate combines eight 32-dimensional partials per op
// through the map-side combine adapter: no allocation once the task's
// scratch is warm.
func BenchmarkKMeansUpdate(b *testing.B) {
	cfg := Config{K: 8, Dims: 32, Seed: 1}
	points, _, err := GeneratePoints(cfg, 8)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([][]byte, len(points))
	for i, p := range points {
		vals[i] = appendPartial(nil, 1, p)
	}
	combine := core.CombineAdapter(updateFunc(b))
	key := codec.EncodeVarint(3)
	if _, err := combine(key, vals); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := combine(key, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what decoding n bytes may allocate: a centroid's
// 24-byte slice header stands for at least its 8 bytes of floats.
func decodeAllocBound(n int) uint64 { return 8*uint64(n) + 64<<10 }

// FuzzDecodeCentroids: any params decode or fail within an allocation
// bound proportional to their length, and whatever decodes re-encodes
// to a fixed point.
func FuzzDecodeCentroids(f *testing.F) {
	f.Add(EncodeCentroids([][]float64{{1, 2}, {3, 4}, {5, 6}}))
	f.Add(EncodeCentroids(nil))
	f.Add(binary.AppendVarint(binary.AppendVarint(nil, 1<<20), 0))
	f.Add(binary.AppendVarint(binary.AppendVarint(nil, 4), 1<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cs [][]float64
		var err error
		if n := allocated(func() { cs, err = DecodeCentroids(data) }); n > decodeAllocBound(len(data)) {
			t.Fatalf("%d input bytes allocated %d B", len(data), n)
		}
		if err != nil {
			return
		}
		enc := EncodeCentroids(cs)
		again, err := DecodeCentroids(enc)
		if err != nil {
			t.Fatalf("re-encoded centroids do not decode: %v", err)
		}
		if !bytes.Equal(EncodeCentroids(again), enc) {
			t.Fatal("re-encoded centroids are not a fixed point")
		}
	})
}

// FuzzUpdatePartials: the update reduce over two arbitrary partials
// allocates within the same bound and, when both are well formed and of
// one dimension, emits their summed count and, to the bit, their summed
// vectors.
func FuzzUpdatePartials(f *testing.F) {
	f.Add(appendPartial(nil, 1, []float64{1, 2, 3}), appendPartial(nil, 2, []float64{-1, 0.5, 7}))
	f.Add(appendPartial(nil, 1, nil), appendPartial(nil, 1, nil))
	f.Add(appendPartial(nil, 3, []float64{1}), appendPartial(nil, 1, []float64{1, 2}))
	f.Add([]byte{}, []byte{0x80})
	update := updateFunc(f)
	key := codec.EncodeVarint(0)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var e kvio.SliceEmitter
		var err error
		if n := allocated(func() { err = update(key, [][]byte{a, b}, &e) }); n > decodeAllocBound(len(a)+len(b)) {
			t.Fatalf("%d input bytes allocated %d B", len(a)+len(b), n)
		}
		ca, sa, errA := decodePartial(a)
		cb, sb, errB := decodePartial(b)
		if errA != nil || errB != nil || len(sa) != len(sb) {
			if err == nil {
				t.Fatal("update accepted partials decodePartial refuses or whose dimensions differ")
			}
			return
		}
		if err != nil {
			t.Fatalf("update refused well-formed partials: %v", err)
		}
		for d := range sa {
			sa[d] += sb[d]
		}
		if want := appendPartial(nil, ca+cb, sa); len(e.Pairs) != 1 || !bytes.Equal(e.Pairs[0].Value, want) {
			t.Fatalf("update emitted %v, want one partial %x", e.Pairs, want)
		}
	})
}
