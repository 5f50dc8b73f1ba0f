package cluster

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// serialWordCount computes the reference output for byte-identity
// comparisons.
func serialWordCount(t *testing.T) []kvio.Pair {
	t.Helper()
	exec := core.NewSerial(testRegistry())
	defer exec.Close()
	job := core.NewJob(exec)
	defer job.Close()
	src, err := job.LocalData(inputPairs(), core.OpOpts{Splits: 3, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.MapReduce(src, "split", "sum", core.OpOpts{Splits: 4, Combine: "sum"}, core.OpOpts{Splits: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := out.CollectSorted()
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func checkByteIdentical(t *testing.T, want, got []kvio.Pair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("serial %d records, distributed %d", len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(want[i].Key, got[i].Key) || !bytes.Equal(want[i].Value, got[i].Value) {
			t.Errorf("record %d: serial %v, distributed %v", i, want[i], got[i])
		}
	}
}

func TestElasticJoinMidJobByteIdentical(t *testing.T) {
	// A slave that joins mid-job starts pulling work immediately, and
	// the output is byte-identical to the serial run.
	want := serialWordCount(t)

	reg := testRegistry()
	c, err := Start(reg, Options{Slaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job := core.NewJob(c.Executor())
	var pairs []kvio.Pair
	for i := 0; i < 16; i++ {
		pairs = append(pairs, kvio.Pair{Key: codec.EncodeVarint(int64(i)), Value: []byte("x y z")})
	}
	src, err := job.LocalData(pairs, core.OpOpts{Splits: 16, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := job.Map(src, "slowmap", core.OpOpts{Splits: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Let the lone slave start chewing, then grow the fleet mid-job.
	time.Sleep(60 * time.Millisecond)
	joined, err := c.AddSlave(reg, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := c.Slave(joined).TasksRun(); n == 0 {
		t.Error("mid-job joiner ran no tasks")
	}
	job.Close()

	// And the cluster still computes exact answers afterwards.
	jobD := core.NewJob(c.Executor())
	srcD, _ := jobD.LocalData(inputPairs(), core.OpOpts{Splits: 3, Partition: "roundrobin"})
	outD, _ := jobD.MapReduce(srcD, "split", "sum", core.OpOpts{Splits: 4, Combine: "sum"}, core.OpOpts{Splits: 2})
	got, err := outD.CollectSorted()
	if err != nil {
		t.Fatal(err)
	}
	jobD.Close()
	checkByteIdentical(t, want, got)
}

func TestDrainReturnsLeases(t *testing.T) {
	// Draining a node mid-job requeues its leases immediately — the job
	// finishes on the survivors without waiting out a heartbeat timeout
	// — and the drained node's loop exits cleanly.
	rt := obs.New(nil)
	c, err := Start(testRegistry(), Options{Slaves: 2, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job := core.NewJob(c.Executor())
	var pairs []kvio.Pair
	for i := 0; i < 16; i++ {
		pairs = append(pairs, kvio.Pair{Key: codec.EncodeVarint(int64(i)), Value: []byte("x")})
	}
	src, _ := job.LocalData(pairs, core.OpOpts{Splits: 16, Partition: "roundrobin"})
	out, err := job.Map(src, "slowmap", core.OpOpts{Splits: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	nodes := c.Master().Nodes()
	if len(nodes) != 2 {
		t.Fatalf("master sees %d nodes, want 2", len(nodes))
	}
	if !c.Drain(nodes[0].ID) {
		t.Fatalf("drain of %s refused", nodes[0].ID)
	}
	if err := out.Wait(); err != nil {
		t.Fatalf("job did not survive the drain: %v", err)
	}
	job.Close()

	// The drained node learns of the drain on its next poll and is
	// forgotten; no heartbeat-timeout reap is involved.
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Master().Nodes()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("drained node still registered: %+v", c.Master().Nodes())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Master().Stats().SlavesLost; got != 0 {
		t.Errorf("drain counted as a death: SlavesLost = %d", got)
	}
}

func TestSpeculativeDuplicateFirstWins(t *testing.T) {
	// One task attempt stalls (first execution only); with speculation
	// on, the master launches a duplicate on the other slave, the fast
	// copy wins, and the job finishes long before the stall ends.
	reg := testRegistry()
	var stalled atomic.Bool
	reg.RegisterMap("stallonce", func(key, value []byte, emit kvio.Emitter) error {
		if n, err := codec.DecodeVarint(key); err == nil && n == 0 && stalled.CompareAndSwap(false, true) {
			time.Sleep(2 * time.Second)
		} else {
			time.Sleep(20 * time.Millisecond)
		}
		return emit.Emit(key, value)
	})

	rt := obs.New(nil)
	c, err := Start(reg, Options{
		Slaves:            2,
		Obs:               rt,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Second, // only speculation may rescue the stall
		SpeculationFactor: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job := core.NewJob(c.Executor())
	var pairs []kvio.Pair
	for i := 0; i < 10; i++ {
		pairs = append(pairs, kvio.Pair{Key: codec.EncodeVarint(int64(i)), Value: []byte("v")})
	}
	src, _ := job.LocalData(pairs, core.OpOpts{Splits: 10, Partition: "roundrobin"})
	out, err := job.Map(src, "stallonce", core.OpOpts{Splits: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := out.Wait(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	job.Close()

	if elapsed >= 2*time.Second {
		t.Errorf("job waited out the straggler (%v); speculation did not rescue it", elapsed)
	}
	if rt.M().Get(obs.MetricSchedSpeculative) == 0 {
		t.Error("no speculative attempt was launched")
	}
	if rt.M().Get(obs.MetricSchedSpeculativeWins) == 0 {
		t.Error("no speculative attempt won")
	}
	// The stalled original eventually reports; its completion must be
	// counted as late, not crash anything. Give it time to land.
	deadline := time.Now().Add(4 * time.Second)
	for rt.M().Get(obs.MetricSchedLateReports) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("losing attempt's completion never counted late")
		}
		time.Sleep(25 * time.Millisecond)
	}
}
