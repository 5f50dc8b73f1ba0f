package cluster

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/pso"
)

func kmeansTestConfig() kmeans.Config {
	// Epsilon well below any real centroid movement so the run uses all
	// MaxIters iterations — enough supersteps for the resident cache to
	// show a clear warm-hit majority.
	return kmeans.Config{K: 4, Dims: 4, MaxIters: 10, Epsilon: 1e-12, Tasks: 3, Seed: 11}
}

// slowPoints is a deterministic un-clustered point set: k-means on
// smooth data keeps moving centroids for many iterations (the generated
// Gaussian blobs converge in two, which starves the warm path).
func slowPoints(n, dims int) [][]float64 {
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, dims)
		for d := range p {
			p[d] = math.Sin(float64(i*(d+3)+1)) * 10
		}
		points[i] = p
	}
	return points
}

// runClusterKMeans runs the iterative k-means workload on a live
// master+slaves fleet with the given resident budget and returns the
// result plus the fleet's metrics snapshot.
func runClusterKMeans(t *testing.T, budget int64, points, init [][]float64) (*kmeans.Result, map[string]int64) {
	t.Helper()
	cfg := kmeansTestConfig()
	reg := core.NewRegistry()
	kmeans.Register(reg)
	rt := obs.New(nil)
	c, err := Start(reg, Options{Slaves: 3, ResidentBudget: budget, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: true, Obs: rt})
	defer job.Close()
	src, err := job.LocalData(kmeans.PointPairs(points), core.OpOpts{Splits: cfg.Tasks, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := kmeans.RunMapReduce(job, cfg, src, init)
	if err != nil {
		t.Fatal(err)
	}
	return res, rt.M().Snapshot()
}

func sameCentroids(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}

// closeCentroids compares against the serial plain-loop reference,
// which sums points in a different order than the per-split partials
// (same 1e-9 bound as TestMapReduceMatchesSerialExactly).
func closeCentroids(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for d := range a[i] {
			if math.Abs(a[i][d]-b[i][d]) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// TestResidentKMeansByteIdenticalOnCluster is the tentpole's
// acceptance gate: resident k-means on a live fleet must produce
// exactly the centroids of the non-resident fleet run (bitwise — the
// cache is a pure data-plane optimization) and match the serial
// reference, with warm hits dominating cold misses.
func TestResidentKMeansByteIdenticalOnCluster(t *testing.T) {
	cfg := kmeansTestConfig()
	points := slowPoints(180, cfg.Dims)
	init, err := kmeans.InitialCentroidsPlusPlus(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := kmeans.RunSerial(cfg, points, init)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Iterations < 5 {
		t.Fatalf("test corpus converged in %d iterations; need at least 5 for a warm-path run",
			serial.Iterations)
	}

	cold, coldSnap := runClusterKMeans(t, 0, points, init)
	warm, warmSnap := runClusterKMeans(t, core.DefaultResidentBudget, points, init)

	if cold.Iterations != warm.Iterations || warm.Iterations != serial.Iterations {
		t.Errorf("iterations: cold %d, warm %d, serial %d",
			cold.Iterations, warm.Iterations, serial.Iterations)
	}
	if !sameCentroids(cold.Centroids, warm.Centroids) {
		t.Error("resident run centroids diverged from non-resident run")
	}
	if !closeCentroids(warm.Centroids, serial.Centroids) {
		t.Error("resident fleet centroids diverged from serial reference")
	}

	if hits := coldSnap[obs.MetricResidentHits]; hits != 0 {
		t.Errorf("budget 0 recorded %d resident hits", hits)
	}
	hits, misses := warmSnap[obs.MetricResidentHits], warmSnap[obs.MetricResidentMisses]
	if hits == 0 {
		t.Fatal("warm fleet never hit the resident cache")
	}
	// Every split misses only on first touch per caching slave (plus any
	// early steal); across 10 iterations the hits must dominate.
	if hits <= misses {
		t.Errorf("resident hits %d not dominating misses %d", hits, misses)
	}
	if warmSnap[obs.MetricSchedResidentPlacements] == 0 {
		t.Error("scheduler never recorded a cache-affinity placement")
	}
}

// TestResidentHitReadsColdRecordsOnCluster: on a live fleet, a
// resident hit, which walks its cached payloads without their CRC,
// hands the task exactly the records of the cold read. Three supersteps
// of an identity map (per-record reads) and an emit-every-value reduce
// (adopted runs) over one resident dataset must give, superstep by
// superstep, the cache-off fleet's output byte for byte.
func TestResidentHitReadsColdRecordsOnCluster(t *testing.T) {
	reg := core.NewRegistry()
	reg.RegisterMap("identity", func(key, value []byte, emit kvio.Emitter) error {
		return emit.Emit(key, value)
	})
	reg.RegisterReduce("emitall", func(key []byte, values [][]byte, emit kvio.Emitter) error {
		for _, v := range values {
			if err := emit.Emit(key, v); err != nil {
				return err
			}
		}
		return nil
	})
	pairs := make([]kvio.Pair, 6000)
	for i := range pairs {
		pairs[i] = kvio.Pair{
			Key:   []byte(fmt.Sprintf("k%03d", i%97)),
			Value: bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 40+i%23),
		}
	}
	const splits, steps = 3, 3
	run := func(budget int64) ([][]kvio.Pair, map[string]int64) {
		rt := obs.New(nil)
		c, err := Start(reg, Options{Slaves: 2, ResidentBudget: budget, Obs: rt})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: true, Obs: rt})
		defer job.Close()
		src, err := job.LocalData(pairs, core.OpOpts{Splits: splits, Partition: "roundrobin"})
		if err != nil {
			t.Fatal(err)
		}
		var outs [][]kvio.Pair
		for i := 0; i < steps; i++ {
			mapped, err := job.Map(src, "identity", core.OpOpts{Splits: splits, Resident: true})
			if err != nil {
				t.Fatal(err)
			}
			reduced, err := job.Reduce(src, "emitall", core.OpOpts{Splits: splits, Resident: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []*core.Dataset{mapped, reduced} {
				out, err := d.Collect()
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, out)
				_ = d.Free()
			}
		}
		return outs, rt.M().Snapshot()
	}
	cold, coldSnap := run(0)
	warm, warmSnap := run(core.DefaultResidentBudget)
	for i := range cold {
		if len(cold[i]) != len(pairs) {
			t.Fatalf("output %d has %d records, want %d", i, len(cold[i]), len(pairs))
		}
		if !samePairs(cold[i], warm[i]) {
			t.Errorf("output %d (superstep %d, %s) differs between the resident hit and the cold read",
				i, i/2, [2]string{"map", "reduce"}[i%2])
		}
	}
	if hits := coldSnap[obs.MetricResidentHits]; hits != 0 {
		t.Errorf("budget 0 recorded %d hits", hits)
	}
	if hits := warmSnap[obs.MetricResidentHits]; hits == 0 {
		t.Error("the warm fleet never hit the resident cache")
	}
}

// TestResidentPSOByteIdenticalOnCluster repeats the gate for the
// paper's second iterative workload: PSO's per-iteration state dataset
// is re-read by the convergence check, so residency must change
// nothing about the result while still registering cache traffic.
func TestResidentPSOByteIdenticalOnCluster(t *testing.T) {
	cfg := pso.Config{
		Function: "sphere", Dims: 6, NumSwarms: 4, SwarmSize: 4,
		InnerIters: 3, MaxOuter: 6, Tasks: 4, Seed: 7, CheckEvery: 2,
	}
	run := func(budget int64) (*pso.Result, map[string]int64) {
		reg := core.NewRegistry()
		if err := pso.Register(reg, cfg); err != nil {
			t.Fatal(err)
		}
		rt := obs.New(nil)
		c, err := Start(reg, Options{Slaves: 2, ResidentBudget: budget, Obs: rt})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: true, Obs: rt})
		defer job.Close()
		res, err := pso.RunMapReduce(job, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, rt.M().Snapshot()
	}

	cold, _ := run(0)
	warm, warmSnap := run(core.DefaultResidentBudget)
	if cold.Best != warm.Best || cold.OuterIters != warm.OuterIters ||
		cold.Evaluations != warm.Evaluations {
		t.Errorf("PSO diverged: cold best=%v iters=%d evals=%d, warm best=%v iters=%d evals=%d",
			cold.Best, cold.OuterIters, cold.Evaluations,
			warm.Best, warm.OuterIters, warm.Evaluations)
	}
	if warmSnap[obs.MetricResidentHits] == 0 {
		t.Error("PSO check iterations never hit the resident state cache")
	}
}

// TestResidentChaosCachingSlaveDeath kills a slave mid-run: the
// scheduler must drop the dead cache's ownership, surviving slaves
// re-fetch from the shared store, and the result must be bitwise
// identical to an undisturbed non-resident fleet run.
func TestResidentChaosCachingSlaveDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	cfg := kmeansTestConfig()
	points := slowPoints(180, cfg.Dims)
	init, err := kmeans.InitialCentroidsPlusPlus(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := runClusterKMeans(t, 0, points, init)

	reg := core.NewRegistry()
	kmeans.Register(reg)
	rt := obs.New(nil)
	c, err := Start(reg, Options{
		Slaves:            3,
		SharedDir:         t.TempDir(), // buckets must survive the crash
		ResidentBudget:    core.DefaultResidentBudget,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		MaxAttempts:       10,
		TaskLease:         1 * time.Second,
		Obs:               rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Kill a slave after the first iterations have warmed its cache.
	done := make(chan struct{})
	go func() {
		select {
		case <-time.After(150 * time.Millisecond):
			_ = c.KillSlave(1)
		case <-done:
		}
	}()

	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: true, Obs: rt})
	defer job.Close()
	src, err := job.LocalData(kmeans.PointPairs(points), core.OpOpts{Splits: cfg.Tasks, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := kmeans.RunMapReduce(job, cfg, src, init)
	close(done)
	if err != nil {
		t.Fatalf("resident k-means did not survive the crash: %v", err)
	}
	if res.Iterations != ref.Iterations {
		t.Errorf("iterations: chaos %d, reference %d", res.Iterations, ref.Iterations)
	}
	if !sameCentroids(res.Centroids, ref.Centroids) {
		t.Error("centroids diverged from the undisturbed run after caching-slave death")
	}
}
