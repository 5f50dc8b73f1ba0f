package cluster

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kvio"
)

// A fleet's start, a one-record MapReduce and its stop make no directory
// under TMPDIR: every node's private store directory is made at its
// first bucket file, and a job that spills nothing needs none.
func TestSetupCycleLeavesTmpdirEmpty(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	empty := func(when string) {
		t.Helper()
		if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
			t.Fatalf("TMPDIR holds %v (%v) %s, want nothing", entries, err, when)
		}
	}
	c, err := Start(testRegistry(), Options{Slaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	empty("after Start")
	mj, err := c.Submit("probe", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
		src, err := job.LocalData([]kvio.Pair{{Key: []byte("k"), Value: codec.EncodeVarint(1)}}, core.OpOpts{})
		if err != nil {
			return err
		}
		out, err := job.MapReduce(src, "identity", "sum", core.OpOpts{}, core.OpOpts{})
		if err != nil {
			return err
		}
		pairs, err := out.Collect()
		if err != nil {
			return err
		}
		if len(pairs) != 1 || string(pairs[0].Key) != "k" {
			return fmt.Errorf("probe returned %v", pairs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mj.Wait(); err != nil {
		t.Fatal(err)
	}
	empty("after the job")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	empty("after Close")
}
