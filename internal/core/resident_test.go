package core

import (
	"testing"

	"repro/internal/kvio"
	"repro/internal/obs"
)

func rkey(job, ds, split int) ResidentKey {
	return ResidentKey{Job: JobID(job), Dataset: ds, Split: split}
}

func payload(n int) [][]byte {
	return [][]byte{make([]byte, n)}
}

// TestResidentCacheHitAndPlanInvalidation covers the basic contract:
// a Put is served back only while the fetch plan matches, and a plan
// change drops the stale entry instead of serving it.
func TestResidentCacheHitAndPlanInvalidation(t *testing.T) {
	c := NewResidentCache(1 << 20)
	m := obs.NewMetrics()
	c.SetMetrics(m)

	urls := []string{"u/a", "u/b"}
	if _, ok := c.Get(rkey(1, 0, 0), urls); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(rkey(1, 0, 0), urls, [][]byte{[]byte("xx"), []byte("yyy")})
	got, ok := c.Get(rkey(1, 0, 0), urls)
	if !ok || len(got) != 2 || string(got[1]) != "yyy" {
		t.Fatalf("Get = %v, %v; want cached payloads", got, ok)
	}
	if c.Bytes() != 5 || c.Len() != 1 {
		t.Fatalf("Bytes/Len = %d/%d, want 5/1", c.Bytes(), c.Len())
	}

	// Same key, different producers (post-recovery plan): must miss AND
	// drop the stale entry.
	if _, ok := c.Get(rkey(1, 0, 0), []string{"u/a", "u/c"}); ok {
		t.Fatal("plan mismatch served stale payloads")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("stale entry not dropped: Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	snap := m.Snapshot()
	if snap[obs.MetricResidentInvalidations] != 1 {
		t.Errorf("invalidations = %d, want 1", snap[obs.MetricResidentInvalidations])
	}
	if snap[obs.MetricResidentReclaimedBytes] != 5 {
		t.Errorf("reclaimed bytes = %d, want 5", snap[obs.MetricResidentReclaimedBytes])
	}
}

// TestResidentCacheLRUEviction fills the cache past its budget and
// checks that the least-recently-used entry goes first — and that a
// Get refreshes recency.
func TestResidentCacheLRUEviction(t *testing.T) {
	c := NewResidentCache(300)
	m := obs.NewMetrics()
	c.SetMetrics(m)
	urls := []string{"u"}

	c.Put(rkey(1, 0, 0), urls, payload(100)) // A
	c.Put(rkey(1, 0, 1), urls, payload(100)) // B
	c.Put(rkey(1, 0, 2), urls, payload(100)) // C: full

	// Touch A so B is now least-recent.
	if _, ok := c.Get(rkey(1, 0, 0), urls); !ok {
		t.Fatal("A missing before eviction")
	}
	c.Put(rkey(1, 0, 3), urls, payload(100)) // D evicts B

	if _, ok := c.Get(rkey(1, 0, 1), urls); ok {
		t.Error("LRU entry B survived eviction")
	}
	for _, split := range []int{0, 2, 3} {
		if _, ok := c.Get(rkey(1, 0, split), urls); !ok {
			t.Errorf("split %d evicted, want resident", split)
		}
	}
	if got := m.Snapshot()[obs.MetricResidentEvictions]; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if c.Bytes() != 300 {
		t.Errorf("Bytes = %d, want 300", c.Bytes())
	}
}

// TestResidentCacheOversizeAndReplace: an entry larger than the whole
// budget is never cached, and re-Putting a key replaces its bytes
// rather than double-counting.
func TestResidentCacheOversizeAndReplace(t *testing.T) {
	c := NewResidentCache(100)
	urls := []string{"u"}
	c.Put(rkey(1, 0, 0), urls, payload(101))
	if c.Len() != 0 {
		t.Fatal("oversize entry was cached")
	}
	c.Put(rkey(1, 0, 0), urls, payload(40))
	c.Put(rkey(1, 0, 0), urls, payload(60))
	if c.Bytes() != 60 || c.Len() != 1 {
		t.Fatalf("replace leaked bytes: Bytes=%d Len=%d, want 60/1", c.Bytes(), c.Len())
	}
}

// TestResidentCacheDropJob is the GC hook: retiring a job frees exactly
// its entries and reports the bytes reclaimed.
func TestResidentCacheDropJob(t *testing.T) {
	c := NewResidentCache(1 << 20)
	urls := []string{"u"}
	c.Put(rkey(1, 0, 0), urls, payload(10))
	c.Put(rkey(1, 2, 1), urls, payload(20))
	c.Put(rkey(2, 0, 0), urls, payload(40))

	if freed := c.DropJob(1); freed != 30 {
		t.Errorf("DropJob(1) freed %d bytes, want 30", freed)
	}
	if c.Len() != 1 || c.Bytes() != 40 {
		t.Errorf("after DropJob: Len=%d Bytes=%d, want 1/40", c.Len(), c.Bytes())
	}
	if _, ok := c.Get(rkey(2, 0, 0), urls); !ok {
		t.Error("DropJob(1) removed job 2's entry")
	}
}

// TestResidentCacheDropDataset: freeing one dataset releases only its
// splits, and only in its own job.
func TestResidentCacheDropDataset(t *testing.T) {
	c := NewResidentCache(1 << 20)
	urls := []string{"u"}
	c.Put(rkey(1, 3, 0), urls, payload(10))
	c.Put(rkey(1, 3, 1), urls, payload(20))
	c.Put(rkey(1, 4, 0), urls, payload(40))
	c.Put(rkey(2, 3, 0), urls, payload(80))

	if freed := c.DropDataset(1, 3); freed != 30 {
		t.Errorf("DropDataset(1, 3) freed %d bytes, want 30", freed)
	}
	if c.Len() != 2 || c.Bytes() != 120 {
		t.Errorf("after DropDataset: Len=%d Bytes=%d, want 2/120", c.Len(), c.Bytes())
	}
	for _, k := range []ResidentKey{rkey(1, 4, 0), rkey(2, 3, 0)} {
		if _, ok := c.Get(k, urls); !ok {
			t.Errorf("DropDataset(1, 3) removed %+v", k)
		}
	}
}

func TestParseBucketNameJob(t *testing.T) {
	for _, tc := range []struct {
		job JobID
		ds  int
	}{{0, 7}, {12, 0}, {3, 41}} {
		job, ds, ok := ParseBucketNameJob(BucketNameJob(tc.job, tc.ds, 2, 5))
		if !ok || job != tc.job || ds != tc.ds {
			t.Errorf("ParseBucketNameJob(BucketNameJob(%d, %d, ...)) = %d, %d, %v", tc.job, tc.ds, job, ds, ok)
		}
	}
	if _, _, ok := ParseBucketNameJob("src/0"); ok {
		t.Error("ParseBucketNameJob accepted a name BucketNameJob cannot make")
	}
}

// TestResidentCacheNilSafe: the disabled cache (nil) accepts every call
// and never hits — the executors rely on this instead of branching.
func TestResidentCacheNilSafe(t *testing.T) {
	var c *ResidentCache
	if c = NewResidentCache(0); c != nil {
		t.Fatal("zero budget should disable the cache")
	}
	c.SetMetrics(obs.NewMetrics())
	c.Put(rkey(1, 0, 0), []string{"u"}, payload(1))
	if _, ok := c.Get(rkey(1, 0, 0), []string{"u"}); ok {
		t.Fatal("nil cache hit")
	}
	if c.DropJob(1) != 0 || c.Bytes() != 0 || c.Len() != 0 {
		t.Fatal("nil cache reported state")
	}
}

// TestResidentIterativeByteIdentity runs the same iterative program on
// the threads executor with the resident cache on and off; outputs must
// be byte-identical and the warm run must actually hit. This is the
// in-process half of the tentpole's correctness gate (the cluster half
// lives in internal/cluster).
func TestResidentIterativeByteIdentity(t *testing.T) {
	run := func(budget int64) ([][]kvio.Pair, map[string]int64) {
		exec := NewThreads(testRegistry(), 3)
		rt := obs.New(nil)
		exec.SetObserver(rt)
		exec.SetResidentBudget(budget)
		defer exec.Close()

		job := NewJobWith(exec, JobOptions{Pipeline: true, Obs: rt})
		src, err := job.LocalData(linesAsPairs(), OpOpts{Splits: 3, Partition: "roundrobin"})
		if err != nil {
			t.Fatal(err)
		}
		// Iterate over the invariant src dataset: each iteration maps the
		// same resident input, so all but the first fetch should hit.
		var outs [][]kvio.Pair
		for i := 0; i < 4; i++ {
			mapped, err := job.Map(src, "split", OpOpts{Splits: 3, Resident: true, Combine: "sum"})
			if err != nil {
				t.Fatal(err)
			}
			red, err := job.Reduce(mapped, "sum", OpOpts{Splits: 2})
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := red.CollectSorted()
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, pairs)
			_ = red.Free()
			_ = mapped.Free()
		}
		if err := job.Close(); err != nil {
			t.Fatal(err)
		}
		return outs, rt.M().Snapshot()
	}

	cold, coldSnap := run(0)
	warm, warmSnap := run(DefaultResidentBudget)
	if len(cold) != len(warm) {
		t.Fatalf("iteration count mismatch: %d vs %d", len(cold), len(warm))
	}
	for i := range cold {
		if !equalPairs(cold[i], warm[i]) {
			t.Errorf("iteration %d output diverged between resident and non-resident runs", i)
		}
	}
	if coldSnap[obs.MetricResidentHits] != 0 {
		t.Errorf("disabled cache recorded %d hits", coldSnap[obs.MetricResidentHits])
	}
	hits, misses := warmSnap[obs.MetricResidentHits], warmSnap[obs.MetricResidentMisses]
	// 4 iterations × 3 splits of the invariant input: iteration 1 misses,
	// the rest hit.
	if misses != 3 {
		t.Errorf("warm misses = %d, want 3", misses)
	}
	if hits != 9 {
		t.Errorf("warm hits = %d, want 9", hits)
	}
	if warmSnap[obs.MetricPlanReuse] == 0 {
		t.Error("BSP fast path never reused an input plan")
	}
}

func equalPairs(a, b []kvio.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i].Key) != string(b[i].Key) || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}
