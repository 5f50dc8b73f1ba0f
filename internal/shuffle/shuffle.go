// Package shuffle implements the sort-and-group stage between map and
// reduce: records are accumulated, sorted by key, optionally combined
// (the "local reduce" optimization from the original MapReduce paper,
// used by both the Mrs and Hadoop WordCount measurements in §V), and
// delivered as (key, values) groups. Buffers that exceed a spill
// threshold are sorted and written to temporary run files, which are
// k-way merged on read — the classic external sort, so a reduce split
// can exceed memory.
//
// One sort kernel, a stable radix sort of pointer-free entries on each
// key's 8-byte prefix, sits under two grouping front-ends. Without a
// combiner every record gets an entry (the prefix index) and adjacent
// equal keys form a group after the sort. With a combiner, heavy key
// repeats favour grouping records in a hash table as they arrive, and
// the kernel sorts one entry per distinct key. Either way the groups
// are those of a stable sort of every record. Record bytes alias an
// adopted block (AddBlock) or are copied into a chunked arena, so a
// spill releases the whole slab at once.
package shuffle

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"unsafe"

	"repro/internal/kvio"
)

// CombineFunc merges the values of a single key into (usually fewer)
// values. It must be associative and commutative in the values for the
// final answer to be independent of spill boundaries; this mirrors the
// requirement on MapReduce combiners.
type CombineFunc func(key []byte, values [][]byte) ([][]byte, error)

// Options configures a Sorter.
type Options struct {
	// SpillBytes is the approximate in-memory limit before a sorted run
	// is spilled to disk: record payload plus per-record bookkeeping.
	// Zero means never spill.
	SpillBytes int64
	// TempDir is where run files are created. Empty means os.TempDir().
	TempDir string
	// Combine, if non-nil, is applied to each key group as runs are
	// spilled and again during the final merge. It also selects the
	// hash-grouped in-memory form; nil selects the prefix index.
	Combine CombineFunc
}

// arenaChunk is the largest slab for record storage. Large enough that
// chunk allocations are rare against typical record sizes, small enough
// that a mostly-empty final chunk wastes little.
const arenaChunk = 256 << 10

// arenaFirst is the first chunk's size. Chunks double from it up to
// arenaChunk, so a sorter that sees a few KB (a small reduce of an
// iterative chain) allocates a few KB, not a whole slab.
const arenaFirst = 4 << 10

// arena is a chunked bump allocator for record bytes. Old chunks stay
// alive only while something references them; reset reuses the current
// chunk for the next fill.
type arena struct {
	buf  []byte // current chunk: len = bytes used, cap = chunk size
	next int    // size of the next chunk; 0 means arenaFirst
}

// grow makes room for n more bytes in the current chunk, starting a new
// one if they do not fit, and reports whether it did.
func (a *arena) grow(n int) bool {
	if n <= cap(a.buf)-len(a.buf) {
		return false
	}
	size := max(a.next, arenaFirst, n) // oversized records get a dedicated chunk
	a.buf = make([]byte, 0, size)
	a.next = min(2*size, arenaChunk)
	return true
}

// copy appends b to the arena and returns the arena-owned copy.
func (a *arena) copy(b []byte) []byte {
	a.grow(len(b))
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n:len(a.buf):len(a.buf)]
}

// reset forgets everything allocated, reusing the current chunk. The
// caller must have dropped every reference into the arena since the
// last reset.
func (a *arena) reset() { a.buf = a.buf[:0] }

// entry is one record of the prefix index, or one distinct key of the
// hash form: the key's first eight bytes, big-endian and zero-padded,
// and where the key and value live. Index entries locate both in
// Sorter.bufs; hash-form entries name their group in buf. An entry
// holds no pointers, so the collector never scans the index.
type entry struct {
	prefix     uint64
	buf        uint32
	koff, klen uint32
	voff, vlen uint32
}

// Per-record bookkeeping charged against SpillBytes on top of the
// payload: an index entry, or a hash group's value slice header.
const entryBytes, headerBytes = int64(unsafe.Sizeof(entry{})), int64(unsafe.Sizeof([]byte(nil)))

func keyPrefix(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// radixSort orders es by full key, stably, and returns the sorted
// entries, which may be es itself. An LSD byte radix sort over the
// prefixes, skipping every pass whose digit is the same for all
// entries, does the bulk of the work; within a run of equal prefixes
// ("a" and "a\x00" pad alike) a stable compare of key(e) finishes it.
func radixSort(es []entry, key func(entry) []byte) []entry {
	if len(es) < 2 {
		return es
	}
	var counts [8][256]int
	for _, e := range es {
		for d := range counts {
			counts[d][byte(e.prefix>>(8*d))]++
		}
	}
	src, dst := es, make([]entry, len(es))
	for d := range counts {
		shift := 8 * d
		c := &counts[d]
		if c[byte(src[0].prefix>>shift)] == len(src) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, e := range src {
			b := byte(e.prefix >> shift)
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	for i := 0; i < len(src); {
		j, same := i+1, true
		for ; j < len(src) && src[j].prefix == src[i].prefix; j++ {
			same = same && equalKeys(src[i], src[j], key)
		}
		if !same {
			slices.SortStableFunc(src[i:j], func(a, b entry) int { return bytes.Compare(key(a), key(b)) })
		}
		i = j
	}
	return src
}

// equalKeys reports whether a and b have equal keys, reading key bytes
// only when the prefix cannot tell: past eight bytes of equal prefix.
func equalKeys(a, b entry, key func(entry) []byte) bool {
	return a.prefix == b.prefix && a.klen == b.klen &&
		(a.klen <= 8 || bytes.Equal(key(a)[8:], key(b)[8:]))
}

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
	bufs    [][]byte // adopted blocks, and the arena chunks index entries point into
	bufSize int64    // buffered payload plus bookkeeping, against SpillBytes
	runs    []string // spilled run file paths
	closed  bool
	added   int64
	spills  int

	// The prefix index (no combiner).
	arBuf int     // bufs slot of the current arena chunk, or -1
	index []entry // one per record, in insertion order

	// The hash form (a combiner).
	groups []hashGroup    // one entry per distinct key, in first-seen order
	idx    map[string]int // key -> index into groups
}

// NewSorter returns an empty Sorter.
func NewSorter(opts Options) *Sorter {
	return &Sorter{opts: opts, arBuf: -1}
}

// Indexed reports whether the sorter buffers records in the prefix
// index (no combiner) rather than grouping them in a hash table.
func (s *Sorter) Indexed() bool { return s.opts.Combine == nil }

// Add buffers one record, spilling if the memory threshold is crossed.
// The pair's bytes are copied into the sorter's arena, so the caller
// may reuse the slices immediately (e.g. from kvio.Reader.ReadShared).
func (s *Sorter) Add(p kvio.Pair) error {
	if s.closed {
		return fmt.Errorf("shuffle: Add after Close")
	}
	s.addCopy(p.Key, p.Value)
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
	bi, end := len(s.bufs), cap(block)
	s.bufs = append(s.bufs, block)
	n, err := kvio.ScanRecords(block, func(key, value []byte) error {
		payload += int64(len(key) + len(value))
		if s.Indexed() {
			// key and value are subslices of block, so each one's
			// offset is the capacity it lost.
			s.push(key, bi, end-cap(key), end-cap(value), len(value))
		} else {
			s.addHash(key, value, true)
		}
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

// AddColumnar buffers every record of a decoded columnar block, copying
// it into the arena as Add does. Returns the summed key+value payload
// bytes the block contributed.
func (s *Sorter) AddColumnar(cb *kvio.ColumnarBlock) (int64, error) {
	if s.closed {
		return 0, fmt.Errorf("shuffle: AddColumnar after Close")
	}
	n := cb.Len()
	for i := 0; i < n; i++ {
		s.addCopy(cb.Key(i), cb.Value(i))
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

// addCopy buffers a record the sorter does not own, copying its bytes
// into the arena: key and value side by side for the index.
func (s *Sorter) addCopy(key, value []byte) {
	if !s.Indexed() {
		s.addHash(key, value, false)
		return
	}
	if s.ar.grow(len(key)+len(value)) || s.arBuf < 0 {
		s.arBuf = len(s.bufs)
		s.bufs = append(s.bufs, s.ar.buf[:cap(s.ar.buf)])
	}
	off := len(s.ar.buf)
	s.ar.buf = append(append(s.ar.buf, key...), value...)
	s.push(key, s.arBuf, off, off+len(key), len(value))
}

// push appends an index entry for a record whose key starts at koff and
// whose value starts at voff in s.bufs[buf].
func (s *Sorter) push(key []byte, buf, koff, voff, vlen int) {
	s.index = append(s.index, entry{
		prefix: keyPrefix(key),
		buf:    uint32(buf),
		koff:   uint32(koff), klen: uint32(len(key)),
		voff: uint32(voff), vlen: uint32(vlen),
	})
	s.bufSize += int64(len(key)+vlen) + entryBytes
}

func (s *Sorter) indexKey(e entry) []byte {
	return s.bufs[e.buf][e.koff : e.koff+e.klen : e.koff+e.klen]
}
func (s *Sorter) indexValue(e entry) []byte {
	return s.bufs[e.buf][e.voff : e.voff+e.vlen : e.voff+e.vlen]
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

// addHash appends value to key's group. owned means the bytes already
// belong to the sorter (an adopted block).
func (s *Sorter) addHash(key, value []byte, owned bool) {
	i := s.groupIndex(key, owned)
	if !owned {
		value = s.ar.copy(value)
	}
	g := &s.groups[i]
	g.values = append(g.values, value)
	s.bufSize += int64(len(value)) + headerBytes
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
// in ascending key order.
func (s *Sorter) forEachMemGroup(fn func(key []byte, values [][]byte) error) error {
	if !s.Indexed() {
		return s.forEachHashGroup(fn)
	}
	key := s.indexKey
	es := radixSort(s.index, key)
	var vals [][]byte
	for i := 0; i < len(es); {
		first := es[i]
		vals = append(vals[:0], s.indexValue(first))
		for i++; i < len(es) && equalKeys(first, es[i], key); i++ {
			vals = append(vals, s.indexValue(es[i]))
		}
		if err := fn(key(first), vals); err != nil {
			return err
		}
	}
	return nil
}

// forEachHashGroup sorts one entry per distinct key, its buffer number
// naming its group; the hash index itself is left undisturbed.
func (s *Sorter) forEachHashGroup(fn func(key []byte, values [][]byte) error) error {
	es := make([]entry, len(s.groups))
	for i, g := range s.groups {
		es[i] = entry{prefix: keyPrefix(g.key), buf: uint32(i), klen: uint32(len(g.key))}
	}
	for _, e := range radixSort(es, func(e entry) []byte { return s.groups[e.buf].key }) {
		g := &s.groups[e.buf]
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
	if len(s.index) == 0 && len(s.groups) == 0 {
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
	// Drop every reference into the arena and adopted blocks before
	// reusing the arena.
	clear(s.groups)
	clear(s.idx)
	clear(s.bufs)
	s.groups, s.bufs, s.index = s.groups[:0], s.bufs[:0], s.index[:0]
	s.arBuf, s.bufSize = -1, 0
	s.ar.reset()
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
	s.bufs, s.index = nil, nil
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
