package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/obs"
)

// TestSortFoldsCounted: a k-means chain's combining map tasks each see
// more than 256 KiB of partials, so their sorters fold as values arrive
// and the fleet counts it, while the centroids stay bitwise those of
// the serial executor; a sort with no combiner never folds.
func TestSortFoldsCounted(t *testing.T) {
	cfg := kmeans.Config{K: 4, Dims: 32, MaxIters: 3, Epsilon: 1e-12, Tasks: 2, Seed: 11}
	points := slowPoints(3000, cfg.Dims) // 1,500 partials of 257 bytes per map task
	init := points[:cfg.K]
	run := func(exec core.Executor, rt *obs.Runtime) *kmeans.Result {
		t.Helper()
		job := core.NewJobWith(exec, core.JobOptions{Pipeline: true, Obs: rt})
		defer job.Close()
		src, err := job.LocalData(kmeans.PointPairs(points), core.OpOpts{Splits: cfg.Tasks, Partition: "roundrobin"})
		if err != nil {
			t.Fatal(err)
		}
		res, err := kmeans.RunMapReduce(job, cfg, src, init)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reg := core.NewRegistry()
	kmeans.Register(reg)
	serial := core.NewSerial(reg)
	defer serial.Close()
	want := run(serial, nil)

	rt := obs.New(nil)
	c, err := Start(reg, Options{Slaves: 2, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := run(c.Executor(), rt)
	if !sameCentroids(got.Centroids, want.Centroids) {
		t.Errorf("cluster centroids %v differ from serial %v", got.Centroids, want.Centroids)
	}
	snap := rt.M().Snapshot()
	if snap[obs.MetricSortFolds] == 0 || snap[obs.MetricSortGrouped] == 0 {
		t.Errorf("k-means chain: %d folds over %d grouped records, want both > 0",
			snap[obs.MetricSortFolds], snap[obs.MetricSortGrouped])
	}

	plain := obs.New(nil)
	c2, err := Start(testRegistry(), Options{Slaves: 2, Obs: plain})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	job := core.NewJobWith(c2.Executor(), core.JobOptions{Pipeline: true, Obs: plain})
	defer job.Close()
	src, err := job.LocalData(inputPairs(), core.OpOpts{Splits: 3, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.MapReduce(src, "split", "sum", core.OpOpts{Splits: 2}, core.OpOpts{Splits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Collect(); err != nil {
		t.Fatal(err)
	}
	snap = plain.M().Snapshot()
	if snap[obs.MetricSortFolds] != 0 || snap[obs.MetricSortIndexed] == 0 {
		t.Errorf("no combiner: %d folds over %d indexed records, want 0 and > 0",
			snap[obs.MetricSortFolds], snap[obs.MetricSortIndexed])
	}
}
