package slave

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/master"
)

// A managed job whose reduce spills makes the slave's per-job scratch
// directory at the first spill, beneath a store directory nothing made
// before; the spilled output matches the serial run; the job's GC
// removes the scratch directory, and the stop leaves TMPDIR empty.
func TestJobScratchMadeAtFirstSpill(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	r := reg()
	r.RegisterReduce("all", func(k []byte, vs [][]byte, e kvio.Emitter) error {
		for _, v := range vs {
			if err := e.Emit(k, v); err != nil {
				return err
			}
		}
		return nil
	})
	var in []kvio.Pair
	for i := 0; i < 2000; i++ {
		in = append(in, kvio.StrPair(fmt.Sprintf("key-%03d", i%331), fmt.Sprintf("value-%05d", i)))
	}
	run := func(job *core.Job) ([]kvio.Pair, error) {
		src, err := job.LocalData(in, core.OpOpts{Splits: 2})
		if err != nil {
			return nil, err
		}
		out, err := job.MapReduce(src, "identity", "all", core.OpOpts{Splits: 2}, core.OpOpts{Splits: 2})
		if err != nil {
			return nil, err
		}
		return out.CollectSorted()
	}
	serial := core.NewJob(core.NewSerial(r))
	want, err := run(serial)
	if err != nil {
		t.Fatal(err)
	}
	serial.Close()

	m, err := master.New(master.Options{LongPoll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := New(r, Options{MasterAddr: m.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	s.env.SpillBytes = 4 << 10
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background()) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.WaitForSlaves(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.store.Dir()); !os.IsNotExist(err) {
		t.Fatalf("an idle slave's store directory: stat %v, want not made", err)
	}

	var scratch string
	mj, err := m.Jobs().Submit("spill", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		got, err := run(job)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("%d records, serial %d", len(got), len(want))
		}
		for i := range want {
			if string(got[i].Key) != string(want[i].Key) || string(got[i].Value) != string(want[i].Value) {
				return fmt.Errorf("record %d is %s, serial %s", i, got[i], want[i])
			}
		}
		scratch = s.store.Scratch(fmt.Sprintf("job%d", job.ID()))
		if fi, err := os.Stat(scratch); err != nil || !fi.IsDir() {
			return fmt.Errorf("job scratch %s after spilling reduces: %v", scratch, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mj.Wait(); err != nil {
		t.Fatal(err)
	}
	// The GC rides on the slave's next poll, within a long poll.
	for deadline := time.Now().Add(10 * time.Second); s.JobGCs() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the slave never ran the job's GC")
		}
	}
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Fatalf("job scratch after GC: stat %v, want removed", err)
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slave exit: %v", err)
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Fatalf("TMPDIR holds %v (%v) after the stop, want nothing", entries, err)
	}
}
