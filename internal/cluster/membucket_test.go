package cluster

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/pso"
	"repro/internal/rpcproto"
)

// selfFetchCounter is a data-plane transport that counts requests a
// slave sends to its own data server.
type selfFetchCounter struct {
	own   string // the slave's data address (host:port)
	count atomic.Int64
}

func (s *selfFetchCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Host == s.own {
		s.count.Add(1)
	}
	return bucket.DefaultTransport.RoundTrip(r)
}

// bucketFiles counts published or in-flight bucket files at the top of
// a store directory (per-job scratch directories are not buckets).
func bucketFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}

// The paper's per-operation-overhead workload: a PSO chain of small
// tasks with KB-sized records. Every bucket must stay in RAM, every
// self-addressed bucket must be opened in-process, and the result must
// be bit-identical to the serial run.
func TestPSOChainCreatesNoBucketFiles(t *testing.T) {
	cfg := pso.Config{Function: pso.Rosenbrock.Name, Dims: 50, NumSwarms: 4, SwarmSize: 5,
		InnerIters: 10, Tasks: 2, CheckEvery: 1, MaxOuter: 20, Seed: 1}
	want, err := pso.RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	if err := pso.Register(reg, cfg); err != nil {
		t.Fatal(err)
	}
	rt := obs.New(nil)
	c, err := Start(reg, Options{Slaves: 2, ResidentBudget: core.DefaultResidentBudget, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	counters := make([]*selfFetchCounter, c.NumSlaves())
	for i := range counters {
		counters[i] = &selfFetchCounter{own: c.Slave(i).DataAddr()}
		c.Slave(i).Store().SetHTTPClient(&http.Client{Transport: counters[i]})
	}

	var got *pso.Result
	mj, err := c.Submit("pso", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		res, err := pso.RunMapReduce(job, cfg)
		if err != nil {
			return err
		}
		got = res
		t.Logf("RAM held at chain end: %d bytes", rt.M().Snapshot()[obs.MetricBucketMemBytes])
		// Before the job's GC: nothing the chain wrote reached a file,
		// so freeing its datasets cost no unlink.
		for i := 0; i < c.NumSlaves(); i++ {
			if n := bucketFiles(t, c.Slave(i).Store().Dir()); n != 0 {
				t.Errorf("slave %d store holds %d bucket files, want 0", i, n)
			}
		}
		if n := rt.M().Snapshot()[obs.MetricBucketUnlinks]; n != 0 {
			t.Errorf("%d bucket unlinks before the job's GC, want 0", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mj.Wait(); err != nil {
		t.Fatal(err)
	}
	if got.OuterIters != want.OuterIters || math.Float64bits(got.Best) != math.Float64bits(want.Best) {
		t.Fatalf("cluster best %v after %d supersteps, serial %v after %d",
			got.Best, got.OuterIters, want.Best, want.OuterIters)
	}
	for i, sc := range counters {
		if n := sc.count.Load(); n != 0 {
			t.Errorf("slave %d made %d HTTP fetches to its own data server", i, n)
		}
	}
	snap := rt.M().Snapshot()
	if n := snap[obs.MetricBucketPublishedFile]; n != 0 {
		t.Errorf("%d buckets published as files, want 0", n)
	}
	if snap[obs.MetricBucketPublishedMem] == 0 {
		t.Error("no bucket published to RAM")
	}
	if snap[obs.MetricBucketLocalOpens] == 0 {
		t.Error("no bucket opened locally: index affinity should co-locate consumers")
	}

	// One control round trip per task: each outcome rides on the slot's
	// next get_task, so slaves call nothing but signin, ping and
	// get_task, and every get_task carries a task out, is answered
	// idle, or is a slot's pending poll.
	for series, n := range snap {
		switch series {
		case obs.RPCSeries(rpcproto.MethodSignin), obs.RPCSeries(rpcproto.MethodPing), obs.RPCSeries(rpcproto.MethodGetTask):
		default:
			if strings.HasPrefix(series, obs.MetricRPCCalls) && n != 0 {
				t.Errorf("%d calls of %s, want 0", n, series)
			}
		}
	}
	st := c.M.Stats()
	polls := snap[obs.RPCSeries(rpcproto.MethodGetTask)]
	slots := int64(c.NumSlaves())
	t.Logf("%d tasks, %d get_task calls, %d idle answers, %d slots", st.TasksAssigned, polls, st.IdlePolls, slots)
	if st.TasksAssigned == 0 || polls > st.TasksAssigned+slots+st.IdlePolls {
		t.Errorf("%d get_task calls for %d tasks + %d slots + %d idle answers",
			polls, st.TasksAssigned, slots, st.IdlePolls)
	}
}

// On the shared-directory data plane the master frees a dataset by
// unlinking the exact files its slaves wrote, so an iterative chain's
// freed datasets leave the directory as the chain runs, not at job end.
func TestSharedDirFreeRemovesFilesBeforeJobEnd(t *testing.T) {
	shared := t.TempDir()
	rt := obs.New(nil)
	c, err := Start(testRegistry(), Options{Slaves: 2, SharedDir: shared, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var in []kvio.Pair
	for i := 0; i < 40; i++ {
		in = append(in, kvio.StrPair(fmt.Sprintf("k%02d", i), strings.Repeat("v", i)))
	}
	var got []kvio.Pair
	mj, err := c.Submit("chain", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		prev, err := job.LocalData(in, core.OpOpts{Splits: 2, Partition: "roundrobin"})
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			next, err := job.Map(prev, "identity", core.OpOpts{Splits: 2})
			if err != nil {
				return err
			}
			if err := next.Wait(); err != nil {
				return err
			}
			prev.Free()
			prev = next
		}
		// Before the job's GC: only the live dataset's files remain.
		entries, err := os.ReadDir(shared)
		if err != nil {
			return err
		}
		live := fmt.Sprintf("j%d_ds%d_", job.ID(), prev.ID())
		left := 0
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			left++
			if !strings.HasPrefix(e.Name(), live) {
				t.Errorf("freed bucket file %s still on disk before job end", e.Name())
			}
		}
		snap := rt.M().Snapshot()
		published := snap[obs.MetricBucketPublishedFile]
		t.Logf("before the job's GC: %d bucket files published, %d on disk, %d unlinks",
			published, left, snap[obs.MetricBucketUnlinks])
		if n := snap[obs.MetricBucketUnlinks]; n != published-int64(left) {
			t.Errorf("%d unlinks for %d freed bucket files, want one each", n, published-int64(left))
		}
		got, err = prev.CollectSorted()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mj.Wait(); err != nil {
		t.Fatal(err)
	}
	if !samePairs(got, in) {
		t.Errorf("chain output differs from its input: %d pairs", len(got))
	}
}

// Buckets past the RAM threshold still go to files, and the job still
// reads them back exactly.
func TestLargeBucketsSpillToFiles(t *testing.T) {
	rt := obs.New(nil)
	c, err := Start(testRegistry(), Options{Slaves: 2, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var in []kvio.Pair
	for i := 0; i < 8; i++ {
		in = append(in, kvio.Pair{
			Key:   []byte(fmt.Sprintf("k%02d", i)),
			Value: bytes.Repeat([]byte{byte('a' + i)}, bucket.MemBucketMax+1),
		})
	}
	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: true, Obs: rt})
	defer job.Close()
	src, err := job.LocalData(in, core.OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.Map(src, "identity", core.OpOpts{Splits: 2, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.CollectSorted()
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(in, got) {
		t.Fatalf("identity map over large records returned %d records, want %d", len(got), len(in))
	}
	files := 0
	for i := 0; i < c.NumSlaves(); i++ {
		files += bucketFiles(t, c.Slave(i).Store().Dir())
	}
	if files == 0 {
		t.Error("no bucket files on any slave for buckets over the RAM threshold")
	}
	snap := rt.M().Snapshot()
	if snap[obs.MetricBucketSpilled] == 0 || snap[obs.MetricBucketPublishedFile] == 0 {
		t.Errorf("spilled=%d published_file=%d, want both > 0",
			snap[obs.MetricBucketSpilled], snap[obs.MetricBucketPublishedFile])
	}
}
