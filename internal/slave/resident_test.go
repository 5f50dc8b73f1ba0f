package slave

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func residentKey(job, split int) core.ResidentKey {
	return core.ResidentKey{Job: core.JobID(job), Dataset: 1, Split: split}
}

// TestSlaveResidentBudgetLRU: the slave-wide cache honors its byte
// budget by evicting least-recently-used splits, and the task envs of
// every job share the one cache instance.
func TestSlaveResidentBudgetLRU(t *testing.T) {
	s, err := New(reg(), Options{MasterAddr: "127.0.0.1:1", ResidentBudget: 250})
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	if s.resident == nil {
		t.Fatal("ResidentBudget did not install a cache")
	}

	// Per-job envs are struct copies of the base env; the cache pointer
	// must survive the copy so all jobs share one budget.
	env, err := s.envFor(7)
	if err != nil {
		t.Fatal(err)
	}
	if env.Resident != s.resident {
		t.Fatal("job env does not share the slave-wide resident cache")
	}

	urls := []string{"u"}
	s.resident.Put(residentKey(7, 0), urls, [][]byte{make([]byte, 100)})
	s.resident.Put(residentKey(7, 1), urls, [][]byte{make([]byte, 100)})
	if s.ResidentBytes() != 200 || s.ResidentSplits() != 2 {
		t.Fatalf("cache = %d bytes / %d splits, want 200/2", s.ResidentBytes(), s.ResidentSplits())
	}
	// Third split overflows the 250-byte budget: split 0 (LRU) evicts.
	s.resident.Put(residentKey(7, 2), urls, [][]byte{make([]byte, 100)})
	if s.ResidentBytes() != 200 || s.ResidentSplits() != 2 {
		t.Fatalf("after overflow: %d bytes / %d splits, want 200/2", s.ResidentBytes(), s.ResidentSplits())
	}
	if _, ok := s.resident.Get(residentKey(7, 0), urls); ok {
		t.Error("LRU split survived budget eviction")
	}
}

// TestSlaveGCReclaimsResidentBytes: the master's per-job GC broadcast
// must release the retired job's pinned splits (and only those), and
// the derived pinned-bytes gauge must fall back to the survivor's size.
func TestSlaveGCReclaimsResidentBytes(t *testing.T) {
	rt := obs.New(nil)
	s, err := New(reg(), Options{
		MasterAddr:     "127.0.0.1:1",
		ResidentBudget: 1 << 20,
		Obs:            rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()

	urls := []string{"u"}
	s.resident.Put(residentKey(3, 0), urls, [][]byte{make([]byte, 300)})
	s.resident.Put(residentKey(3, 1), urls, [][]byte{make([]byte, 300)})
	s.resident.Put(residentKey(4, 0), urls, [][]byte{make([]byte, 100)})

	s.gcJob(3)
	if s.ResidentBytes() != 100 || s.ResidentSplits() != 1 {
		t.Fatalf("after gc: %d bytes / %d splits, want 100/1", s.ResidentBytes(), s.ResidentSplits())
	}
	if _, ok := s.resident.Get(residentKey(4, 0), urls); !ok {
		t.Error("GC of job 3 evicted job 4's split")
	}

	snap := rt.M().Snapshot()
	if snap[obs.MetricResidentGCBytes] != 600 {
		t.Errorf("gc reclaimed bytes = %d, want 600", snap[obs.MetricResidentGCBytes])
	}
	if snap[obs.MetricResidentPinnedBytes] != 100 {
		t.Errorf("pinned-bytes gauge = %d, want 100", snap[obs.MetricResidentPinnedBytes])
	}
}

// TestSlaveDeleteDropsFreedDatasetSplits: a delete of a freed dataset's
// buckets also releases the cached splits of that dataset, and only
// those.
func TestSlaveDeleteDropsFreedDatasetSplits(t *testing.T) {
	s, err := New(reg(), Options{MasterAddr: "127.0.0.1:1", ResidentBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()

	urls := []string{"u"}
	freed := core.ResidentKey{Job: 5, Dataset: 8, Split: 0}
	kept := core.ResidentKey{Job: 5, Dataset: 9, Split: 0}
	s.resident.Put(freed, urls, [][]byte{make([]byte, 300)})
	s.resident.Put(kept, urls, [][]byte{make([]byte, 100)})

	s.deleteBuckets([]string{core.BucketNameJob(5, 8, 0, 0), core.BucketNameJob(5, 8, 1, 0)})
	if _, ok := s.resident.Get(freed, urls); ok {
		t.Error("split of a freed dataset still cached")
	}
	if _, ok := s.resident.Get(kept, urls); !ok {
		t.Error("delete of dataset 8 evicted dataset 9's split")
	}
}

// TestSlaveZeroBudgetDisablesCache: budget 0 is the ablation switch —
// no cache, nil-safe accessors.
func TestSlaveZeroBudgetDisablesCache(t *testing.T) {
	s, err := New(reg(), Options{MasterAddr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	if s.resident != nil {
		t.Error("zero budget installed a cache")
	}
	if s.ResidentBytes() != 0 || s.ResidentSplits() != 0 {
		t.Error("disabled cache reported state")
	}
}
