package core

import (
	"sync"

	"repro/internal/obs"
)

// DefaultResidentBudget is the resident-cache byte budget when a
// positive budget is requested without an explicit size.
const DefaultResidentBudget = 256 << 20

// ResidentKey identifies one cached input split: the consuming job, the
// dataset the split belongs to, and the split index. Every iteration of
// an iterative program consumes the same invariant dataset under the
// same key, which is what makes the cache useful across supersteps.
type ResidentKey struct {
	Job     JobID
	Dataset int
	Split   int
}

// residentEntry is one cached split: the raw fetched bucket payloads in
// InputURLs order, plus the URL list itself so a plan change (different
// producers after recovery, say) invalidates the entry instead of
// serving stale bytes.
type residentEntry struct {
	key      ResidentKey
	urls     []string
	payloads [][]byte
	bytes    int64
	// LRU chain (most-recent at head).
	prev, next *residentEntry
}

// ResidentCache is the worker-local resident dataset tier: invariant
// input splits, marked with OpOpts.Resident, are fetched once and then
// served from memory on every later iteration. Entries are evicted in
// LRU order under a byte budget, and DropJob releases a job's entries
// when the master's GC broadcast retires it. All methods are safe for
// concurrent use and nil-safe (a nil cache never hits, never stores).
type ResidentCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	items  map[ResidentKey]*residentEntry
	head   *residentEntry // most recently used
	tail   *residentEntry // least recently used
	m      *obs.Metrics
}

// NewResidentCache returns a cache bounded by budget bytes of cached
// payload. A non-positive budget returns nil: the disabled cache.
func NewResidentCache(budget int64) *ResidentCache {
	if budget <= 0 {
		return nil
	}
	return &ResidentCache{
		budget: budget,
		items:  make(map[ResidentKey]*residentEntry),
	}
}

// SetMetrics directs eviction and byte accounting to m
// (mrs_resident_evictions_total, inserted/reclaimed byte counters).
// Hit/miss counters are charged by the task engine, which knows the
// per-task context.
func (c *ResidentCache) SetMetrics(m *obs.Metrics) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m = m
	c.mu.Unlock()
}

// Get returns the cached payloads for key if present AND the cached
// fetch plan matches urls exactly; any mismatch is a miss (and drops
// the stale entry). The returned slices are shared — callers must treat
// them as read-only.
func (c *ResidentCache) Get(key ResidentKey, urls []string) ([][]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	if !sameURLs(e.urls, urls) {
		c.removeLocked(e, obs.MetricResidentInvalidations)
		return nil, false
	}
	c.touchLocked(e)
	return e.payloads, true
}

// Put caches the payloads fetched for key under the fetch plan urls,
// evicting least-recently-used entries until the budget holds. An entry
// larger than the whole budget is not cached at all (it would only
// flush everything else for a single-use tenancy).
func (c *ResidentCache) Put(key ResidentKey, urls []string, payloads [][]byte) {
	if c == nil {
		return
	}
	var size int64
	for _, p := range payloads {
		size += int64(len(p))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	if old, ok := c.items[key]; ok {
		c.removeLocked(old, "")
	}
	e := &residentEntry{
		key:      key,
		urls:     append([]string(nil), urls...),
		payloads: payloads,
		bytes:    size,
	}
	c.items[key] = e
	c.pushFrontLocked(e)
	c.used += size
	c.m.Add(obs.MetricResidentInsertedBytes, size)
	for c.used > c.budget && c.tail != nil && c.tail != e {
		c.removeLocked(c.tail, obs.MetricResidentEvictions)
	}
}

// DropJob releases every entry belonging to job (the per-job GC hook)
// and returns the bytes reclaimed.
func (c *ResidentCache) DropJob(job JobID) int64 {
	return c.drop(func(k ResidentKey) bool { return k.Job == job })
}

// DropDataset releases the entries caching splits of one of job's
// datasets and returns the bytes reclaimed. A freed dataset is never
// read again, so its entries are dead weight: a superstep chain whose
// every step consumes a fresh dataset would otherwise pin all of them
// until the job ends.
func (c *ResidentCache) DropDataset(job JobID, dataset int) int64 {
	return c.drop(func(k ResidentKey) bool { return k.Job == job && k.Dataset == dataset })
}

func (c *ResidentCache) drop(match func(ResidentKey) bool) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for k, e := range c.items {
		if match(k) {
			freed += e.bytes
			c.removeLocked(e, "")
		}
	}
	return freed
}

// Bytes reports the cached payload bytes currently pinned.
func (c *ResidentCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len reports the number of cached splits.
func (c *ResidentCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// removeLocked unlinks e, releases its bytes, and charges metric (when
// non-empty) plus the reclaimed-bytes counter.
func (c *ResidentCache) removeLocked(e *residentEntry, metric string) {
	delete(c.items, e.key)
	c.unlinkLocked(e)
	c.used -= e.bytes
	if metric != "" {
		c.m.Add(metric, 1)
	}
	c.m.Add(obs.MetricResidentReclaimedBytes, e.bytes)
}

func (c *ResidentCache) touchLocked(e *residentEntry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

func (c *ResidentCache) pushFrontLocked(e *residentEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *ResidentCache) unlinkLocked(e *residentEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func sameURLs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
