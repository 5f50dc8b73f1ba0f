package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// prefetchInput is a corpus with long, repetitive lines: large enough
// that input and shuffle transfers dominate, and compressible enough
// that wire compression visibly undercuts the raw byte counts (the
// short chaosInput lines are smaller than the flate framing overhead).
func prefetchInput() []kvio.Pair {
	var pairs []kvio.Pair
	for i := 0; i < 24; i++ {
		line := strings.Repeat(inputLines[i%len(inputLines)]+" ", 40)
		pairs = append(pairs, kvio.Pair{Key: codec.EncodeVarint(int64(i)), Value: []byte(line)})
	}
	return pairs
}

// runShuffleJob runs a map-reduce whose reduce splits each fetch many
// map outputs (M=6 map splits × R=3 reduce splits over HTTP), which is
// the shape the parallel prefetch accelerates. Collected sorted so
// outputs are byte-comparable across configurations.
func runShuffleJob(t *testing.T, c *Cluster, rt *obs.Runtime) []kvio.Pair {
	t.Helper()
	return runShuffleJobOn(t, c.Executor(), rt)
}

// runShuffleJobOn is the executor-generic form, so the same job can be
// compared across serial, mock, and cluster modes.
func runShuffleJobOn(t *testing.T, exec core.Executor, rt *obs.Runtime) []kvio.Pair {
	t.Helper()
	job := core.NewJobWith(exec, core.JobOptions{Pipeline: true, Obs: rt})
	src, err := job.LocalData(prefetchInput(), core.OpOpts{Splits: 6, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.MapReduce(src, "split", "sum",
		core.OpOpts{Splits: 6, Combine: "sum"}, core.OpOpts{Splits: 3})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.CollectSorted()
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	return pairs
}

// TestParallelFetchByteIdentical is the tentpole's correctness gate:
// the same job at prefetch width 1 (one fetch at a time) and width 8
// over the direct HTTP data plane — both outputs must be
// byte-identical. (Compressed wire bytes are TestCodecGridByteIdentical's
// to check; cell names keep their "compress=false" field so their ids
// stay stable.)
func TestParallelFetchByteIdentical(t *testing.T) {
	var want []kvio.Pair
	for _, prefetch := range []int{1, 8} {
		name := fmt.Sprintf("prefetch=%d,compress=false", prefetch)
		t.Run(name, func(t *testing.T) {
			rt := obs.New(nil)
			c, err := Start(testRegistry(), Options{
				Slaves:   3,
				Prefetch: prefetch,
				Obs:      rt,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got := runShuffleJob(t, c, rt)
			if len(got) == 0 {
				t.Fatal("job produced no output")
			}
			if want == nil {
				want = got
			} else if !samePairs(want, got) {
				t.Errorf("%s output diverged from baseline: %d records vs %d",
					name, len(got), len(want))
			}
		})
	}
}

// TestChaosWithPrefetch reruns the headline chaos job with the
// parallel prefetcher enabled: RPC and data-path faults, a crash and a
// hang, and the output must still be byte-identical to a fault-free
// run without prefetch. This proves the whole-fetch retry inside
// Store.Fetch composes with the prefetch window under injected
// mid-stream failures.
func TestChaosWithPrefetch(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}

	clean, err := Start(testRegistry(), Options{Slaves: 4, SharedDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	want := runIterativeJob(t, clean, nil)
	clean.Close()
	if len(want) == 0 {
		t.Fatal("fault-free run produced no output")
	}

	inj := fault.New(fault.Config{
		Seed:       1234,
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
	c, err := Start(testRegistry(), Options{
		Slaves:            4,
		SharedDir:         t.TempDir(),
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		MaxAttempts:       10,
		TaskLease:         1 * time.Second,
		Chaos:             inj,
		Prefetch:          8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got := runIterativeJob(t, c, nil)
	if !samePairs(want, got) {
		t.Errorf("chaos output with prefetch diverged: %d records vs %d fault-free",
			len(got), len(want))
	}
}
