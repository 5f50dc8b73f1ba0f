// Package shuffle implements the sort-and-group stage between map and
// reduce: records are accumulated, sorted by key, optionally combined
// (the "local reduce" optimization from the original MapReduce paper,
// used by both the Mrs and Hadoop WordCount measurements in §V), and
// delivered as (key, values) groups. Buffers that exceed a spill
// threshold are sorted and written to temporary run files, which are
// k-way merged on read — the classic external sort, so a reduce split
// can exceed memory.
//
// Records are grouped by key in a hash table as they arrive, and the
// comparison sort runs over the distinct keys only; values within a key
// keep insertion order, so the delivered groups are exactly those of a
// stable sort of every record. Record bytes either alias an adopted
// block (AddBlock, AddColumnar) or are copied into a chunked arena
// (Add): buffering n records costs O(n · recordSize / chunkSize)
// allocations instead of 2n, and a spill releases the whole slab at
// once.
package shuffle

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/kvio"
)

// CombineFunc merges the values of a single key into (usually fewer)
// values. It must be associative and commutative in the values for the
// final answer to be independent of spill boundaries; this mirrors the
// requirement on MapReduce combiners.
type CombineFunc func(key []byte, values [][]byte) ([][]byte, error)

// Options configures a Sorter.
type Options struct {
	// SpillBytes is the approximate in-memory payload limit before a
	// sorted run is spilled to disk. Zero means never spill.
	SpillBytes int64
	// TempDir is where run files are created. Empty means os.TempDir().
	TempDir string
	// Combine, if non-nil, is applied to each key group as runs are
	// spilled and again during the final merge.
	Combine CombineFunc
}

// arenaChunk is the slab size for record storage. Large enough that
// chunk allocations are rare against typical record sizes, small enough
// that a mostly-empty final chunk wastes little.
const arenaChunk = 256 << 10

// arena is a chunked bump allocator for record bytes. Old chunks stay
// alive only while slices returned by copy reference them; reset reuses
// the current chunk for the next fill.
type arena struct {
	buf []byte // current chunk: len = bytes used, cap = chunk size
}

// copy appends b to the arena and returns the arena-owned copy.
func (a *arena) copy(b []byte) []byte {
	if len(b) > cap(a.buf)-len(a.buf) {
		size := arenaChunk
		if len(b) > size {
			size = len(b) // oversized records get a dedicated chunk
		}
		a.buf = make([]byte, 0, size)
	}
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n:len(a.buf):len(a.buf)]
}

// reset forgets everything allocated, reusing the current chunk. The
// caller must have dropped every slice copy returned since the last
// reset.
func (a *arena) reset() { a.buf = a.buf[:0] }

// hashGroup is one distinct key and its values in insertion order.
type hashGroup struct {
	key    []byte
	values [][]byte
}

// Sorter accumulates pairs and then yields key groups in sorted order.
// Usage: Add/AddBlock/AddColumnar, then Groups (exactly once), then
// Close.
type Sorter struct {
	opts    Options
	ar      arena
	groups  []hashGroup    // one entry per distinct key, in first-seen order
	idx     map[string]int // key -> index into groups
	bufSize int64
	runs    []string // spilled run file paths
	closed  bool

	// stats
	added   int64
	spills  int
	spilled int64
}

// NewSorter returns an empty Sorter.
func NewSorter(opts Options) *Sorter {
	return &Sorter{opts: opts}
}

// Add buffers one record, spilling if the memory threshold is crossed.
// The pair's bytes are copied into the sorter's arena, so the caller
// may reuse the slices immediately (e.g. from kvio.Reader.ReadShared).
func (s *Sorter) Add(p kvio.Pair) error {
	if s.closed {
		return fmt.Errorf("shuffle: Add after Close")
	}
	s.addHash(p, false)
	s.added++
	return s.maybeSpill()
}

// AddBlock adopts a decoded record block whose ownership has been
// transferred to the sorter (kvio.BlockReader.NextBlock's contract) and
// buffers every record in it by aliasing into the block buffer — the
// zero-copy handoff from the block data plane: one decode, no
// per-record arena copies. The block is retained until the next spill
// or Close drops the references. recs is the block header's record
// count and is verified against the scan; pass -1 to skip the check.
// Returns the summed key+value payload bytes the block contributed,
// which is what callers charge to their raw-byte input accounting.
func (s *Sorter) AddBlock(block []byte, recs int) (int64, error) {
	if s.closed {
		return 0, fmt.Errorf("shuffle: AddBlock after Close")
	}
	var payload int64
	n, err := kvio.ScanRecords(block, func(key, value []byte) error {
		payload += int64(len(key) + len(value))
		s.addHash(kvio.Pair{Key: key, Value: value}, true)
		s.added++
		return nil
	})
	if err != nil {
		return payload, err
	}
	if recs >= 0 && n != recs {
		return payload, fmt.Errorf("shuffle: block scanned %d records, header said %d", n, recs)
	}
	return payload, s.maybeSpill()
}

// AddColumnar adopts a decoded columnar block (ownership transferred by
// kvio.BlockReader.NextAny) and buffers every record by aliasing the
// block's column buffers, exactly as AddBlock does for a row block.
// Returns the summed key+value payload bytes the block contributed.
func (s *Sorter) AddColumnar(cb *kvio.ColumnarBlock) (int64, error) {
	if s.closed {
		return 0, fmt.Errorf("shuffle: AddColumnar after Close")
	}
	n := cb.Len()
	for i := 0; i < n; i++ {
		s.addHash(kvio.Pair{Key: cb.Key(i), Value: cb.Value(i)}, true)
	}
	s.added += int64(n)
	return cb.PayloadBytes(), s.maybeSpill()
}

// maybeSpill spills the in-memory buffer when it crosses the threshold.
func (s *Sorter) maybeSpill() error {
	if s.opts.SpillBytes > 0 && s.bufSize >= s.opts.SpillBytes {
		return s.spill()
	}
	return nil
}

// groupIndex returns the index of key's hash group, creating an empty
// one on first sight. The map lookup with a string(key) conversion is
// allocation free for existing keys; only the first record of a
// distinct key pays for the map entry. owned means the key bytes
// already belong to the sorter (an adopted block) and need no arena
// copy.
func (s *Sorter) groupIndex(key []byte, owned bool) int {
	if s.idx == nil {
		s.idx = map[string]int{}
	}
	if i, ok := s.idx[string(key)]; ok {
		return i
	}
	if !owned {
		key = s.ar.copy(key)
	}
	s.groups = append(s.groups, hashGroup{key: key})
	s.idx[string(key)] = len(s.groups) - 1
	s.bufSize += int64(len(key))
	return len(s.groups) - 1
}

// addHash appends p's value to its key's group. owned means p's bytes
// already belong to the sorter (an adopted block).
func (s *Sorter) addHash(p kvio.Pair, owned bool) {
	i := s.groupIndex(p.Key, owned)
	value := p.Value
	if !owned {
		value = s.ar.copy(value)
	}
	g := &s.groups[i]
	g.values = append(g.values, value)
	s.bufSize += int64(len(value))
}

// AddStream drains a record stream into the sorter. Records are read
// through the reader's shared buffer — Add copies them anyway.
func (s *Sorter) AddStream(r *kvio.Reader) error {
	for {
		p, err := r.ReadShared()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := s.Add(p); err != nil {
			return err
		}
	}
}

// Added returns the number of records added.
func (s *Sorter) Added() int64 { return s.added }

// Spills returns how many run files were written.
func (s *Sorter) Spills() int { return s.spills }

// forEachMemGroup yields the in-memory content as combined key groups
// in ascending key order. It does not disturb the hash index: it sorts
// an index permutation, not the groups themselves.
func (s *Sorter) forEachMemGroup(fn func(key []byte, values [][]byte) error) error {
	order := make([]int, len(s.groups))
	for i := range order {
		order[i] = i
	}
	// Keys are distinct by construction, so the unstable sort is
	// deterministic.
	slices.SortFunc(order, func(a, b int) int {
		return bytes.Compare(s.groups[a].key, s.groups[b].key)
	})
	for _, i := range order {
		g := &s.groups[i]
		vals, err := s.combine(g.key, g.values)
		if err != nil {
			return err
		}
		if err := fn(g.key, vals); err != nil {
			return err
		}
	}
	return nil
}

// spill sorts, combines, and writes the current buffer as a run file.
func (s *Sorter) spill() error {
	if len(s.groups) == 0 {
		return nil
	}
	f, err := os.CreateTemp(s.opts.TempDir, "mrs-spill-*.run")
	if err != nil {
		return fmt.Errorf("shuffle: creating spill file: %w", err)
	}
	w := kvio.NewWriter(f)
	err = s.forEachMemGroup(func(key []byte, values [][]byte) error {
		for _, v := range values {
			if werr := w.Write(kvio.Pair{Key: key, Value: v}); werr != nil {
				return werr
			}
		}
		return nil
	})
	if err == nil {
		err = w.Flush()
	}
	w.Release()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	s.runs = append(s.runs, f.Name())
	s.spills++
	s.spilled += s.bufSize
	// Drop every reference into the arena before reusing it.
	clear(s.groups)
	s.groups = s.groups[:0]
	if s.idx != nil {
		clear(s.idx)
	}
	s.ar.reset()
	s.bufSize = 0
	return nil
}

func (s *Sorter) combine(key []byte, values [][]byte) ([][]byte, error) {
	if s.opts.Combine == nil {
		return values, nil
	}
	return s.opts.Combine(key, values)
}

// Groups yields each key with all of its values, keys in ascending
// order, by calling fn. Returning a non-nil error from fn aborts the
// iteration. The key and value slices are only valid during the call.
func (s *Sorter) Groups(fn func(key []byte, values [][]byte) error) error {
	if s.closed {
		return fmt.Errorf("shuffle: Groups after Close")
	}
	if len(s.runs) == 0 {
		return s.forEachMemGroup(fn)
	}
	// Spill the remainder so everything is in sorted runs, then merge.
	if err := s.spill(); err != nil {
		return err
	}
	return s.mergeRuns(fn)
}

// Close removes any spill files and releases buffers. It is safe to
// call multiple times.
func (s *Sorter) Close() error {
	s.closed = true
	var first error
	for _, path := range s.runs {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	s.runs = nil
	s.groups = nil
	s.idx = nil
	s.ar = arena{}
	return first
}

// ---------------------------------------------------------------------------
// k-way merge of run files

type runHead struct {
	pair kvio.Pair
	r    *kvio.Reader
	f    *os.File
	seq  int // tie-break: earlier runs first, preserving stability
}

func (rh *runHead) close() {
	rh.r.Release()
	rh.f.Close()
}

type runHeap []*runHead

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].pair.Key, h[j].pair.Key)
	if c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runHead)) }
func (h *runHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h runHeap) top() *runHead { return h[0] }
func (h *runHeap) closeAll() {
	for _, rh := range *h {
		rh.close()
	}
}

func (s *Sorter) mergeRuns(fn func(key []byte, values [][]byte) error) error {
	var h runHeap
	defer h.closeAll()
	for seq, path := range s.runs {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("shuffle: opening run: %w", err)
		}
		rh := &runHead{r: kvio.NewReader(f), f: f, seq: seq}
		p, err := rh.r.Read()
		if err == io.EOF {
			rh.close()
			continue
		}
		if err != nil {
			rh.close()
			return err
		}
		rh.pair = p
		h = append(h, rh)
	}
	heap.Init(&h)

	var (
		curKey  []byte
		haveKey bool // distinguishes "no current group" from the empty key
		values  [][]byte
	)
	flush := func() error {
		if !haveKey {
			return nil
		}
		vals, err := s.combine(curKey, values)
		if err != nil {
			return err
		}
		if err := fn(curKey, vals); err != nil {
			return err
		}
		haveKey = false
		values = values[:0]
		return nil
	}
	for h.Len() > 0 {
		rh := h.top()
		if haveKey && !bytes.Equal(rh.pair.Key, curKey) {
			if err := flush(); err != nil {
				return err
			}
		}
		if !haveKey {
			curKey = append(curKey[:0], rh.pair.Key...)
			haveKey = true
		}
		values = append(values, rh.pair.Value)
		p, err := rh.r.Read()
		if err == io.EOF {
			rh.close()
			heap.Pop(&h) // exhausted runs leave the heap, so closeAll skips them
			continue
		} else if err != nil {
			return err
		} else {
			rh.pair = p
			heap.Fix(&h, 0)
		}
	}
	return flush()
}
