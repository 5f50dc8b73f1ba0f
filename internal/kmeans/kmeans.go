// Package kmeans implements iterative MapReduce k-means clustering,
// the first of the iterative algorithms the paper's introduction cites
// as MapReduce-suitable scientific workloads ([2], Zhao et al.). It
// doubles as the exercise for the framework's broadcast-parameter
// mechanism: the current centroids travel to every map task as the
// operation's Params (the role Hadoop's DistributedCache plays), while
// the point set stays put as a static dataset — so the per-iteration
// cost is exactly the framework overhead the paper optimizes.
package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/prand"
)

// Function names registered by Register.
const (
	AssignName = "kmeans_assign"
	UpdateName = "kmeans_update"
)

// Config parameterizes a clustering run.
type Config struct {
	// K is the number of clusters.
	K int
	// Dims is the point dimensionality.
	Dims int
	// MaxIters bounds the iteration count.
	MaxIters int
	// Epsilon stops iteration when no centroid moves further than this.
	Epsilon float64
	// Tasks is the number of map splits.
	Tasks int
	// Seed drives deterministic initialization.
	Seed uint64
}

func (c *Config) fill() error {
	if c.K <= 0 {
		c.K = 4
	}
	if c.Dims <= 0 {
		c.Dims = 2
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 50
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-6
	}
	if c.Tasks <= 0 {
		c.Tasks = 4
	}
	return nil
}

// ---------------------------------------------------------------------------
// Wire encodings

// EncodeCentroids packs k centroid vectors as the broadcast params, in
// one allocation of exactly their size.
func EncodeCentroids(cs [][]float64) []byte {
	dims := 0
	if len(cs) > 0 {
		dims = len(cs[0])
	}
	n := codec.VarintLen(int64(len(cs))) + codec.VarintLen(int64(dims))
	for _, c := range cs {
		n += 8 * len(c)
	}
	out := make([]byte, 0, n)
	out = binary.AppendVarint(out, int64(len(cs)))
	out = binary.AppendVarint(out, int64(dims))
	for _, c := range cs {
		for _, x := range c {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
	}
	return out
}

// DecodeCentroids unpacks broadcast params. It sizes nothing until the
// payload is known to hold exactly the k·dims floats the header claims,
// and a centroid has at least one dimension, so what it allocates is
// bounded by the bytes it is given.
func DecodeCentroids(data []byte) ([][]float64, error) {
	k, n := binary.Varint(data)
	if n <= 0 {
		return nil, fmt.Errorf("kmeans: bad centroid params")
	}
	data = data[n:]
	dims, n := binary.Varint(data)
	if n <= 0 {
		return nil, fmt.Errorf("kmeans: bad centroid params")
	}
	data = data[n:]
	if k < 0 || k > 1<<20 || dims < 0 || dims > 1<<20 || (k > 0 && dims == 0) {
		return nil, fmt.Errorf("kmeans: implausible shape k=%d dims=%d", k, dims)
	}
	if int64(len(data)) != k*dims*8 {
		return nil, fmt.Errorf("kmeans: centroid payload size mismatch")
	}
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, dims)
		for d := range out[i] {
			out[i][d] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
	}
	return out, nil
}

// appendPartial appends a packed (count, sum-vector) aggregation value
// to out.
func appendPartial(out []byte, count int64, sum []float64) []byte {
	out = binary.AppendVarint(out, count)
	for _, x := range sum {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// splitPartial splits a partial into its count and its sum vector's
// little-endian float64 bytes.
func splitPartial(data []byte) (int64, []byte, error) {
	count, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("kmeans: bad partial")
	}
	data = data[n:]
	if len(data)%8 != 0 {
		return 0, nil, fmt.Errorf("kmeans: bad partial payload")
	}
	return count, data, nil
}

func decodePartial(data []byte) (int64, []float64, error) {
	count, raw, err := splitPartial(data)
	if err != nil {
		return 0, nil, err
	}
	sum := make([]float64, len(raw)/8)
	addFloats(sum, raw)
	return count, sum, nil
}

// addFloats adds the little-endian float64s in raw to sum, element by
// element; len(raw) must be 8*len(sum). Like nearest it is a hot loop
// (the update reduce and the map-side combiner), so it takes four
// elements a step, a shape whose speed does not hinge on where the
// linker places it; each sum[d] still gets one add per call, so sums
// are the one-element loop's to the bit. Stepping the slices, rather
// than indexing from d, lets each add read its sum straight from
// memory as that loop's did, so even a NaN + NaN add keeps the same
// operand's payload (TestAddFloatsMatchesOneElement).
func addFloats(sum []float64, raw []byte) {
	raw = raw[:8*len(sum)]
	for len(sum) >= 4 {
		s, r := sum[:4:4], raw[:32:32]
		s[0] += math.Float64frombits(binary.LittleEndian.Uint64(r[0:]))
		s[1] += math.Float64frombits(binary.LittleEndian.Uint64(r[8:]))
		s[2] += math.Float64frombits(binary.LittleEndian.Uint64(r[16:]))
		s[3] += math.Float64frombits(binary.LittleEndian.Uint64(r[24:]))
		sum, raw = sum[4:], raw[32:]
	}
	for d := range sum {
		sum[d] += math.Float64frombits(binary.LittleEndian.Uint64(raw[8*d:]))
	}
}

// ---------------------------------------------------------------------------
// Registration

// Register installs the k-means functions. The assign map is a factory:
// its params carry the iteration's centroids.
func Register(reg *core.Registry) {
	reg.RegisterMapFactory(AssignName, func(params []byte) (core.MapFunc, error) {
		centroids, err := DecodeCentroids(params)
		if err != nil {
			return nil, err
		}
		if len(centroids) == 0 {
			return nil, fmt.Errorf("kmeans: no centroids in params")
		}
		dims := len(centroids[0])
		// One map function serves one task, so its scratch is reused
		// from point to point: the emitter copies what it is given.
		keys := make([][]byte, len(centroids))
		for i := range keys {
			keys[i] = codec.EncodeVarint(int64(i))
		}
		var point []float64
		var partial []byte
		return func(key, value []byte, emit kvio.Emitter) error {
			var err error
			if point, err = codec.DecodeFloat64SliceInto(point, value); err != nil {
				return err
			}
			if len(point) != dims {
				return fmt.Errorf("kmeans: point %x has %d dimensions, centroids have %d", key, len(point), dims)
			}
			best, _ := nearest(point, centroids)
			// A point's partial is a count of 1, then its float64s,
			// whose little-endian bytes end the value as they are.
			partial = binary.AppendVarint(partial[:0], 1)
			partial = append(partial, value[len(value)-8*len(point):]...)
			return emit.Emit(keys[best], partial)
		}, nil
	})

	// Update sums partials; it is its own combiner. Like the assign map
	// it serves one task, so its sum vector and encoded partial are
	// reused from call to call.
	reg.RegisterReduceFactory(UpdateName, func([]byte) (core.ReduceFunc, error) {
		var sum []float64
		var partial []byte
		return func(key []byte, values [][]byte, emit kvio.Emitter) error {
			var total int64
			sum = sum[:0]
			for i, v := range values {
				count, raw, err := splitPartial(v)
				if err != nil {
					return err
				}
				if i == 0 {
					sum = append(sum, make([]float64, len(raw)/8)...)
				}
				if len(raw) != 8*len(sum) {
					return fmt.Errorf("kmeans: dimension mismatch in partials")
				}
				addFloats(sum, raw)
				total += count
			}
			partial = appendPartial(partial[:0], total, sum)
			return emit.Emit(key, partial)
		}, nil
	})
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// nearest returns the index of the centroid closest to p (the first of
// any tie) and its squared distance; every centroid must be at least as
// long as p. It adds the squares in index order, so its distances are
// sqDist's to the bit. It is the k-means hot loop, so it is one call per
// point and takes four elements a step: a one-element loop is so short
// that whether it straddles a 64-byte code boundary, which moves with
// unrelated edits elsewhere in the binary, changed the assign's time by
// 16 %.
func nearest(p []float64, centroids [][]float64) (int, float64) {
	best, bestDist := 0, math.Inf(1)
	n := len(p)
	for i, c := range centroids {
		c = c[:n]
		var s float64
		j := 0
		for ; j+4 <= n; j += 4 {
			a, b := p[j:j+4:j+4], c[j:j+4:j+4]
			d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
			s += d0 * d0
			s += d1 * d1
			s += d2 * d2
			s += d3 * d3
		}
		for ; j < n; j++ {
			d := p[j] - c[j]
			s += d * d
		}
		if s < bestDist {
			best, bestDist = i, s
		}
	}
	return best, bestDist
}

// ---------------------------------------------------------------------------
// Data generation

// GeneratePoints synthesizes n points around k true Gaussian clusters
// and returns (points, true centers). Deterministic in cfg.Seed.
func GeneratePoints(cfg Config, n int) ([][]float64, [][]float64, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	rng := prand.Random(cfg.Seed, 0xC1)
	centers := make([][]float64, cfg.K)
	for i := range centers {
		centers[i] = make([]float64, cfg.Dims)
		for d := range centers[i] {
			centers[i][d] = rng.Float64Range(-100, 100)
		}
	}
	points := make([][]float64, n)
	for p := range points {
		c := centers[p%cfg.K]
		points[p] = make([]float64, cfg.Dims)
		for d := range points[p] {
			points[p][d] = c[d] + rng.NormFloat64()*3
		}
	}
	return points, centers, nil
}

// PointPairs converts points into a dataset's literal pairs.
func PointPairs(points [][]float64) []kvio.Pair {
	pairs := make([]kvio.Pair, len(points))
	for i, p := range points {
		pairs[i] = kvio.Pair{
			Key:   codec.EncodeVarint(int64(i)),
			Value: codec.EncodeFloat64Slice(p),
		}
	}
	return pairs
}

// InitialCentroids picks k distinct points deterministically (the
// classic Forgy initialization driven by the seeded stream).
func InitialCentroids(cfg Config, points [][]float64) ([][]float64, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(points) < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points for k=%d", len(points), cfg.K)
	}
	rng := prand.Random(cfg.Seed, 0xC2)
	perm := rng.Perm(len(points))
	out := make([][]float64, cfg.K)
	for i := 0; i < cfg.K; i++ {
		out[i] = append([]float64(nil), points[perm[i]]...)
	}
	return out, nil
}

// InitialCentroidsPlusPlus implements k-means++ seeding (Arthur &
// Vassilvitskii): the first centroid is a uniform draw; each subsequent
// centroid is drawn with probability proportional to the squared
// distance from the nearest centroid chosen so far. Far more robust to
// the local optima that trap Forgy initialization.
func InitialCentroidsPlusPlus(cfg Config, points [][]float64) ([][]float64, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(points) < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points for k=%d", len(points), cfg.K)
	}
	rng := prand.Random(cfg.Seed, 0xC3)
	out := make([][]float64, 0, cfg.K)
	out = append(out, append([]float64(nil), points[rng.Intn(len(points))]...))
	dist := make([]float64, len(points))
	for len(out) < cfg.K {
		var total float64
		last := out[len(out)-1]
		for i, p := range points {
			d := sqDist(p, last)
			if len(out) == 1 || d < dist[i] {
				dist[i] = d
			}
			total += dist[i]
		}
		if total == 0 {
			// All remaining points coincide with centroids; fall back
			// to an arbitrary distinct pick.
			out = append(out, append([]float64(nil), points[rng.Intn(len(points))]...))
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, d := range dist {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		out = append(out, append([]float64(nil), points[idx]...))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Drivers

// Result summarizes a clustering run.
type Result struct {
	Centroids  [][]float64
	Iterations int
	Moved      float64 // final maximum centroid movement
	Elapsed    time.Duration
}

// step computes new centroids from aggregated (count, sum) partials;
// clusters that received no points keep their previous centroid.
func step(prev [][]float64, agg map[int64]struct {
	count int64
	sum   []float64
}) ([][]float64, float64) {
	next := make([][]float64, len(prev))
	maxMove := 0.0
	for i := range prev {
		a, ok := agg[int64(i)]
		if !ok || a.count == 0 {
			next[i] = append([]float64(nil), prev[i]...)
			continue
		}
		next[i] = make([]float64, len(prev[i]))
		for d := range next[i] {
			next[i][d] = a.sum[d] / float64(a.count)
		}
		if move := math.Sqrt(sqDist(next[i], prev[i])); move > maxMove {
			maxMove = move
		}
	}
	return next, maxMove
}

// RunMapReduce clusters a points dataset. Register must have been
// called on every participating process.
func RunMapReduce(job *core.Job, cfg Config, points *core.Dataset, initial [][]float64) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	centroids := initial
	start := time.Now()
	res := &Result{}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		mapped, err := job.Map(points, AssignName, core.OpOpts{
			Splits:    1,
			Partition: "constant",
			Combine:   UpdateName,
			Params:    EncodeCentroids(centroids),
			// points never changes between iterations: pin it in the
			// worker-side resident cache so only iteration 1 shuffles it.
			Resident: true,
		})
		if err != nil {
			return nil, err
		}
		reduced, err := job.Reduce(mapped, UpdateName, core.OpOpts{Splits: 1, Partition: "constant", KeyAligned: true})
		if err != nil {
			return nil, err
		}
		pairs, err := reduced.Collect()
		if err != nil {
			return nil, err
		}
		agg := map[int64]struct {
			count int64
			sum   []float64
		}{}
		for _, kv := range pairs {
			cid, err := codec.DecodeVarint(kv.Key)
			if err != nil {
				return nil, err
			}
			count, sum, err := decodePartial(kv.Value)
			if err != nil {
				return nil, err
			}
			agg[cid] = struct {
				count int64
				sum   []float64
			}{count, sum}
		}
		var moved float64
		centroids, moved = step(centroids, agg)
		res.Iterations = iter
		res.Moved = moved
		_ = reduced.Free()
		_ = mapped.Free()
		if moved <= cfg.Epsilon {
			break
		}
	}
	res.Centroids = centroids
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunSerial is the plain-loop reference implementation.
func RunSerial(cfg Config, points [][]float64, initial [][]float64) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	centroids := initial
	start := time.Now()
	res := &Result{}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		agg := map[int64]struct {
			count int64
			sum   []float64
		}{}
		for _, p := range points {
			best, _ := nearest(p, centroids)
			a := agg[int64(best)]
			if a.sum == nil {
				a.sum = make([]float64, len(p))
			}
			for d := range p {
				a.sum[d] += p[d]
			}
			a.count++
			agg[int64(best)] = a
		}
		var moved float64
		centroids, moved = step(centroids, agg)
		res.Iterations = iter
		res.Moved = moved
		if moved <= cfg.Epsilon {
			break
		}
	}
	res.Centroids = centroids
	res.Elapsed = time.Since(start)
	return res, nil
}

// Inertia returns the sum of squared distances of points to their
// nearest centroid (the k-means objective; lower is better).
func Inertia(points, centroids [][]float64) float64 {
	var total float64
	for _, p := range points {
		_, d := nearest(p, centroids)
		total += d
	}
	return total
}
