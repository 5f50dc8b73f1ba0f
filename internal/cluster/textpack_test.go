package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wordcount"
)

// packedReduces is the reduce task count of the packed wordcount runs.
const packedReduces = 4

var packedOpts = wordcount.Options{MapSplits: packedReduces, ReduceSplits: packedReduces}

// packedCorpus writes ~160 small Zipf text files, ~2.5 MB in all: many
// files per packed split, and more than one split.
func packedCorpus(t *testing.T) []string {
	t.Helper()
	paths, _, err := corpus.Generate(t.TempDir(), corpus.Spec{
		Files: 160, MeanWords: 2400, Vocabulary: 5000, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func wordcountRegistry() *core.Registry {
	reg := core.NewRegistry()
	wordcount.Register(reg)
	return reg
}

// runPackedWordCount runs wordcount.Run over paths on exec and returns
// its collected output and task stats. rt may be nil.
func runPackedWordCount(t *testing.T, exec core.Executor, rt *obs.Runtime, paths []string) ([]kvio.Pair, core.JobStats) {
	t.Helper()
	job := core.NewJobWith(exec, core.JobOptions{Pipeline: true, Obs: rt})
	out, err := wordcount.Run(job, paths, packedOpts)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	return pairs, job.Stats()
}

// serialPackedWordCount is the reference output and the packed split
// count, both from the serial executor.
func serialPackedWordCount(t *testing.T, paths []string) ([]kvio.Pair, int64) {
	t.Helper()
	exec := core.NewSerial(wordcountRegistry())
	defer exec.Close()
	rt := obs.New(nil)
	want, stats := runPackedWordCount(t, exec, rt, paths)
	files, splits := rt.M().Get(obs.MetricInputFiles), rt.M().Get(obs.MetricInputSplits)
	if files != int64(len(paths)) || splits < 2 || splits >= files {
		t.Fatalf("serial run packed %d files into %d splits; want several files per split and more than one split", files, splits)
	}
	if stats.Tasks != splits+packedReduces {
		t.Fatalf("serial run: %d tasks, want %d packed maps + %d reduces", stats.Tasks, splits, packedReduces)
	}
	return want, splits
}

// Many small files run as a few packed map tasks on a real fleet: the
// task count is exactly packed splits plus reduces, and the output is
// byte-identical to the serial executor's.
func TestPackedWordCountOnCluster(t *testing.T) {
	paths := packedCorpus(t)
	want, splits := serialPackedWordCount(t, paths)

	rt := obs.New(nil)
	c, err := Start(wordcountRegistry(), Options{Slaves: 2, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, stats := runPackedWordCount(t, c.Executor(), rt, paths)
	if stats.Tasks != splits+packedReduces {
		t.Errorf("cluster ran %d tasks, want %d packed maps + %d reduces", stats.Tasks, splits, packedReduces)
	}
	if n := rt.M().Get(obs.MetricInputSplits); n != splits {
		t.Errorf("cluster driver counted %d input splits, serial %d", n, splits)
	}
	checkByteIdentical(t, want, got)
}

// A slave dies while running a packed map, under a seeded mix of
// control-plane faults: the whole packed split re-runs elsewhere and
// the output stays byte-identical to serial.
func TestChaosPackedMapSlaveDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	paths := packedCorpus(t)
	want, splits := serialPackedWordCount(t, paths)

	// Every slave runs the same map, but the first call anywhere reports
	// its slave and stalls until that slave is dead; its attempt then
	// fails, so only a re-run can produce the split's output.
	hit := make(chan int, 1)
	release := make(chan struct{})
	var gated atomic.Bool
	gatedRegistry := func(slave int) *core.Registry {
		reg := wordcountRegistry()
		reg.RegisterMap(wordcount.MapName, func(key, value []byte, emit kvio.Emitter) error {
			if gated.CompareAndSwap(false, true) {
				hit <- slave
				<-release
				return fmt.Errorf("slave %d died mid-task", slave)
			}
			return wordcount.Map(key, value, emit)
		})
		return reg
	}

	shared := t.TempDir()
	rt := obs.New(nil)
	c, err := Start(gatedRegistry(0), Options{
		Slaves:            1,
		SharedDir:         shared,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		MaxAttempts:       10,
		Chaos: fault.New(fault.Config{
			Seed:       24,
			RefuseRate: 0.03,
			DelayRate:  0.05,
			MaxDelay:   10 * time.Millisecond,
		}),
		Obs: rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var unblock sync.Once
	defer unblock.Do(func() { close(release) }) // before Close, which drains tasks
	if _, err := c.AddSlave(gatedRegistry(1), shared); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.M.WaitForSlaves(ctx, 2); err != nil {
		t.Fatal(err)
	}

	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: true, Obs: rt})
	out, err := wordcount.Run(job, paths, packedOpts)
	if err != nil {
		t.Fatal(err)
	}
	var victim int
	select {
	case victim = <-hit:
	case <-time.After(20 * time.Second):
		t.Fatal("no packed map started")
	}
	killed := make(chan error, 1)
	go func() { killed <- c.KillSlave(victim) }()
	deadline := time.Now().Add(10 * time.Second)
	for c.M.Stats().SlavesLost < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("slave %d was killed but never declared lost", victim)
		}
		time.Sleep(10 * time.Millisecond)
	}
	unblock.Do(func() { close(release) })
	if err := <-killed; err != nil {
		t.Fatal(err)
	}

	got, err := out.Collect()
	if err != nil {
		t.Fatalf("job did not survive the slave death: %v", err)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	checkByteIdentical(t, want, got)
	if stats := job.Stats(); stats.Tasks != splits+packedReduces {
		t.Errorf("%d tasks completed, want %d packed maps + %d reduces", stats.Tasks, splits, packedReduces)
	}
	if rt.M().Get("mrs_sched_requeued_total") == 0 {
		t.Error("the dead slave's packed map was never requeued")
	}
}
