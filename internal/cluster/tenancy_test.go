package cluster

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kvio"
	"repro/internal/master"
	"repro/internal/piest"
)

// tenancyRegistry is the wordcount test registry plus the pi
// estimator's functions, so one fleet can serve both programs.
func tenancyRegistry(picfg piest.Config) *core.Registry {
	reg := testRegistry()
	piest.Register(reg, picfg)
	return reg
}

var piCfg = piest.Config{Samples: 1 << 14, Tasks: 4}

// wordCountRun is the wordcount program as a managed-job driver: it
// must Collect inside the run, before the manager reclaims the job's
// buckets.
func wordCountRun(job *core.Job) ([]kvio.Pair, error) {
	src, err := job.LocalData(inputPairs(), core.OpOpts{Splits: 3, Partition: "roundrobin"})
	if err != nil {
		return nil, err
	}
	out, err := job.MapReduce(src, "split", "sum",
		core.OpOpts{Splits: 4, Combine: "sum"}, core.OpOpts{Splits: 2})
	if err != nil {
		return nil, err
	}
	return out.Collect()
}

// serialBaselines runs both programs in the serial executor — the
// reference output every distributed mode must reproduce exactly.
func serialBaselines(t *testing.T) ([]kvio.Pair, *piest.Result) {
	t.Helper()
	exec := core.NewSerial(tenancyRegistry(piCfg))
	defer exec.Close()

	wcJob := core.NewJob(exec)
	wcPairs, err := wordCountRun(wcJob)
	if err != nil {
		t.Fatal(err)
	}
	if err := wcJob.Close(); err != nil {
		t.Fatal(err)
	}

	piJob := core.NewJob(exec)
	piRes, err := piest.Run(piJob, piCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := piJob.Close(); err != nil {
		t.Fatal(err)
	}
	return wcPairs, piRes
}

// runTenants submits wordcount and pi concurrently to one fleet and
// returns both outputs.
func runTenants(t *testing.T, c *Cluster) ([]kvio.Pair, *piest.Result) {
	t.Helper()
	var (
		wcPairs []kvio.Pair
		piRes   *piest.Result
	)
	wc, err := c.Submit("wordcount", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		var err error
		wcPairs, err = wordCountRun(job)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Submit("pi", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		var err error
		piRes, err = piest.Run(job, piCfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Wait(); err != nil {
		t.Fatalf("wordcount job: %v", err)
	}
	if err := pi.Wait(); err != nil {
		t.Fatalf("pi job: %v", err)
	}
	if wc.State() != master.JobDone || pi.State() != master.JobDone {
		t.Fatalf("job states = %s, %s, want done, done", wc.State(), pi.State())
	}
	return wcPairs, piRes
}

func checkTenants(t *testing.T, wantWC, gotWC []kvio.Pair, wantPi, gotPi *piest.Result) {
	t.Helper()
	if !samePairs(wantWC, gotWC) {
		t.Errorf("concurrent wordcount output diverged from serial: %d records vs %d", len(gotWC), len(wantWC))
	}
	if gotPi.Inside != wantPi.Inside || gotPi.Total != wantPi.Total || gotPi.Pi != wantPi.Pi {
		t.Errorf("concurrent pi = %v/%v (%v), serial %v/%v (%v)",
			gotPi.Inside, gotPi.Total, gotPi.Pi, wantPi.Inside, wantPi.Total, wantPi.Pi)
	}
}

// Two programs sharing one master + slave fleet must each produce
// output byte-identical to their serial runs.
func TestConcurrentJobsMatchSerial(t *testing.T) {
	wantWC, wantPi := serialBaselines(t)

	c, err := Start(tenancyRegistry(piCfg), Options{
		Slaves:           3,
		SlaveConcurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gotWC, gotPi := runTenants(t, c)
	checkTenants(t, wantWC, gotWC, wantPi, gotPi)
}

// The same two concurrent tenants, but under injected chaos — RPC
// refusals, drops, duplications, latency, a crash and a hang. Both
// outputs must still match serial exactly.
func TestConcurrentJobsUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	wantWC, wantPi := serialBaselines(t)

	inj := fault.New(fault.Config{
		Seed:       42,
		RefuseRate: 0.05,
		DropRate:   0.04,
		DupRate:    0.04,
		DelayRate:  0.05,
		MaxDelay:   20 * time.Millisecond,
		Crashes:    1,
		Hangs:      1,
		HangDur:    600 * time.Millisecond,
		Window:     1200 * time.Millisecond,
	})
	c, err := Start(tenancyRegistry(piCfg), Options{
		Slaves:            4,
		SharedDir:         t.TempDir(),
		SlaveConcurrency:  2,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		MaxAttempts:       10,
		TaskLease:         1 * time.Second,
		Chaos:             inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gotWC, gotPi := runTenants(t, c)
	checkTenants(t, wantWC, gotWC, wantPi, gotPi)
}

// jobData counts what one store holds of the given job: its buckets,
// in RAM and as files, plus the per-job scratch dirs ("job<id>-*")
// that GC must reclaim with them.
func jobData(t *testing.T, store *bucket.Store, job int64) int {
	t.Helper()
	n, err := store.JobBuckets(job)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	scratch, _ := filepath.Glob(filepath.Join(store.Dir(), fmt.Sprintf("job%d-*", job)))
	return n + len(scratch)
}

// A completed job's data must be reclaimed from every slave's store
// while the fleet keeps serving another job.
func TestJobGCReclaimsSlaveDisk(t *testing.T) {
	c, err := Start(tenancyRegistry(piCfg), Options{Slaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sawBuckets := false
	first, err := c.Submit("first", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		pairs, err := wordCountRun(job)
		if err != nil {
			return err
		}
		if len(pairs) == 0 {
			return fmt.Errorf("no output")
		}
		// While the job is live the slaves hold its buckets.
		for i := 0; i < c.NumSlaves(); i++ {
			if jobData(t, c.Slave(i).Store(), 1) > 0 {
				sawBuckets = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if first.ID() != 1 {
		t.Fatalf("first job id = %d, want 1", first.ID())
	}
	if !sawBuckets {
		t.Fatal("first job left no buckets on any slave while running; GC test observes nothing")
	}

	// A second tenant keeps the fleet busy; its get_task polls carry
	// the first job's GC broadcast.
	second, err := c.Submit("second", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		pairs, err := wordCountRun(job)
		if err != nil {
			return err
		}
		if len(pairs) == 0 {
			return fmt.Errorf("no output")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Wait(); err != nil {
		t.Fatal(err)
	}

	// Every slave polls continuously, so the broadcast lands promptly;
	// allow a little slack for the loop to come around.
	deadline := time.Now().Add(5 * time.Second)
	for {
		left := 0
		for i := 0; i < c.NumSlaves(); i++ {
			left += jobData(t, c.Slave(i).Store(), 1)
		}
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job's buckets still on slaves: %d", left)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var gcs int64
	for i := 0; i < c.NumSlaves(); i++ {
		gcs += c.Slave(i).JobGCs()
	}
	if gcs == 0 {
		t.Fatal("no slave performed a job GC")
	}
	// The master's own store (source buckets) is reclaimed too.
	if n := jobData(t, c.M.Store(), 1); n != 0 {
		t.Fatalf("master still holds %d buckets of the completed job", n)
	}
}

// With MaxConcurrentJobs 1, a second submission waits in the admission
// queue until the first job's driver finishes.
func TestAdmissionQueueBounds(t *testing.T) {
	c, err := Start(tenancyRegistry(piCfg), Options{Slaves: 2, MaxConcurrentJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	first, err := c.Submit("blocker", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	second, err := c.Submit("waiter", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The second job must sit in the admission queue while the first
	// holds the only slot.
	for i := 0; i < 10; i++ {
		if st := second.State(); st != master.JobQueued {
			t.Fatalf("second job state = %s while first is running, want queued", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := second.Wait(); err != nil {
		t.Fatal(err)
	}
	if first.State() != master.JobDone || second.State() != master.JobDone {
		t.Fatalf("states = %s, %s, want done, done", first.State(), second.State())
	}
}

// /debug/status keeps its classic aggregate fields and adds a per-job
// table once the manager has hosted jobs.
func TestStatusPageListsJobs(t *testing.T) {
	c, err := Start(tenancyRegistry(piCfg), Options{Slaves: 2, SlaveConcurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runTenants(t, c)

	resp, err := http.Get("http://" + c.M.Addr() + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		"mrs master",        // classic header
		"slaves live:",      // classic aggregate fields…
		"sched:",            //
		"tasks:",            // …all still present
		"jobs:",             // new per-job table
		`job 1 "wordcount"`, //
		`job 2 "pi"`,        //
		"done",              // both completed
		"bytes shuffled",    //
	} {
		if !strings.Contains(page, want) {
			t.Errorf("status page missing %q:\n%s", want, page)
		}
	}
}
