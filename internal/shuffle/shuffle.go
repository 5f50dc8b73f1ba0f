// Package shuffle implements the sort-and-group stage between map and
// reduce: records are accumulated, sorted by key, optionally combined
// (the "local reduce" optimization from the original MapReduce paper,
// used by both the Mrs and Hadoop WordCount measurements in §V), and
// delivered as (key, values) groups. Buffers that exceed a spill
// threshold are sorted and written to temporary run files, which are
// k-way merged on read — the classic external sort, so a reduce split
// can exceed memory.
//
// One sort kernel, a stable MSD radix sort of pointer-free entries on
// each key's 8-byte prefix, sits under two grouping front-ends. Without a
// combiner every record gets an entry (the prefix index) and adjacent
// equal keys form a group after the sort. With a combiner, heavy key
// repeats favour grouping records in a hash table as they arrive, and
// the kernel sorts one entry per distinct key. Either way the groups
// are those of a stable sort of every record. The index's record bytes
// alias an adopted run, a fetched bucket or block (AddBlock), or are
// copied into a chunked arena, so a spill releases the whole slab.
//
// The hash form holds no pointers between calls: an open-addressed
// table of hash tags and group numbers, groups that locate their key
// and folded values by offset, and pending values copied, block or no
// block, into one reused buffer. It folds as it goes: once the pending
// values reach foldBytes, every group touched since the last fold is
// combined over its values in arrival order and the result appended to
// a fold arena, compacted when its dead bytes pass its live ones. So a
// combining sorter holds about one value per distinct key, not one per
// record, and a warm one allocates nothing.
package shuffle

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"repro/internal/kvio"
)

// CombineFunc merges the values of a single key into (usually fewer)
// values. The sorter may apply it any number of times to a key, each
// time over values in arrival order: earlier results first, then the
// values that came after them. It must be associative for the final
// answer to be independent of fold and spill boundaries; this mirrors
// the requirement on MapReduce combiners. The returned values may alias
// the input values, or buffers of the combiner's own that its next call
// reuses: the sorter copies what it keeps before combining again. The
// key and values are read-only and valid for the call.
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

// foldBytes bounds the hash form's unfolded values, payload plus
// headerBytes each, before it folds them through the combiner.
const foldBytes = 256 << 10

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
// payload: an index entry, or for a hash-form value the slice header
// it once cost, kept as the budget unit so fold and spill points hold.
const entryBytes, headerBytes = int64(unsafe.Sizeof(entry{})), int64(unsafe.Sizeof([]byte(nil)))

func keyPrefix(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// radixSort orders es by full key, stably, and returns the sorted
// entries. A most-significant-digit byte radix sort over the prefixes
// does the bulk of the work; within a run of equal prefixes ("a" and
// "a\x00" pad alike) a stable compare of key(e) finishes it.
func radixSort(es []entry, key func(entry) []byte) []entry {
	msdSort(es, make([]entry, len(es)), 56)
	for i := 0; i < len(es); {
		j, same := i+1, true
		for ; j < len(es) && es[j].prefix == es[i].prefix; j++ {
			same = same && equalKeys(es[i], es[j], key)
		}
		if !same {
			slices.SortStableFunc(es[i:j], func(a, b entry) int { return bytes.Compare(key(a), key(b)) })
		}
		i = j
	}
	return es
}

// insertionMax is the bucket size msdSort finishes by insertion sort.
const insertionMax = 32

// msdSort stably sorts es by the prefix bytes at shift and below, with
// tmp, as long as es, as scratch: it distributes es by the byte at
// shift, unless every entry shares it, and descends into the buckets
// holding more than one entry. Small runs it insertion-sorts.
func msdSort(es, tmp []entry, shift uint) {
	if len(es) <= insertionMax {
		for i := 1; i < len(es); i++ {
			e, j := es[i], i
			for ; j > 0 && es[j-1].prefix > e.prefix; j-- {
				es[j] = es[j-1]
			}
			es[j] = e
		}
		return
	}
	var ends [256]int
	for _, e := range es {
		ends[byte(e.prefix>>shift)]++
	}
	if ends[byte(es[0].prefix>>shift)] == len(es) {
		if shift > 0 {
			msdSort(es, tmp, shift-8)
		}
		return
	}
	for b, sum := 0, 0; b < len(ends); b++ {
		sum, ends[b] = sum+ends[b], sum // bucket b's start; the scatter moves it to its end
	}
	for _, e := range es {
		b := byte(e.prefix >> shift)
		tmp[ends[b]] = e
		ends[b]++
	}
	copy(es, tmp)
	for lo, b := 0, 0; shift > 0 && b < len(ends); lo, b = ends[b], b+1 {
		if ends[b]-lo > 1 {
			msdSort(es[lo:ends[b]], tmp[lo:ends[b]], shift-8)
		}
	}
}

// equalKeys reports whether a and b have equal keys, reading key bytes
// only when the prefix cannot tell: past eight bytes of equal prefix.
func equalKeys(a, b entry, key func(entry) []byte) bool {
	return a.prefix == b.prefix && a.klen == b.klen &&
		(a.klen <= 8 || bytes.Equal(key(a)[8:], key(b)[8:]))
}

// hashGroup is one distinct key of the hash form, held as offsets: its
// key in Sorter.keys and its folded values in Sorter.foldAr. Its values
// are the folded ones, then its entries in Sorter.pend in arrival order.
type hashGroup struct {
	koff, klen uint32
	foff, flen uint32 // earlier folds' output, or a lone value: uvarint length, then bytes, each
	nf         uint32 // how many values foldAr holds for the group
	lo, hi     uint32 // during a gather, its values in Sorter.gathered; hi == 0 otherwise
}

// pendingValue is a value of group that arrived since the last fold,
// copied to Sorter.pendBuf[off:off+len].
type pendingValue struct {
	group, off, len uint32
}

// hashSeed seeds the group table's hash. Only the table's probe order
// depends on it; groups keep first-seen order and leave sorted.
var hashSeed = maphash.MakeSeed()

// errBufferFull fails an add that would take one of the hash form's
// buffers past what a uint32 offset addresses.
var errBufferFull = errors.New("shuffle: combining sorter buffer would pass 4 GiB; set SpillBytes")

// fits reports errBufferFull if more bytes would take a buffer of used
// bytes past 4 GiB.
func fits(used int, more int64) error {
	if int64(used)+more > math.MaxUint32 {
		return errBufferFull
	}
	return nil
}

// Sorter accumulates pairs and then yields key groups in sorted order.
// Usage: Add/AddBlock, then Groups (exactly once), then Close.
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

	// The hash form (a combiner). Nothing in it points into record
	// bytes between calls: groups, pending values and the table are
	// offsets into the three byte buffers.
	table       []uint64       // open-addressed: hash tag<<32 | group+1; 0 is free
	groups      []hashGroup    // one entry per distinct key, in first-seen order
	keys        []byte         // the groups' keys, back to back
	pend        []pendingValue // values since the last fold, in arrival order
	pendBuf     []byte         // the pending values' bytes, reused after a fold
	pendBytes   int64          // pending payload plus headerBytes each, against foldBytes
	foldAr      []byte         // folds append here; compaction rewrites it
	spare       []byte         // compaction's target, swapped with foldAr
	foldLive    int            // bytes of foldAr some group still spans
	touched     []uint32       // gather: the groups with pending values
	gathered    [][]byte       // gather: each touched group's values, contiguous; cleared after
	folds       int64
	compactions int
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
// It returns the combiner's error if the record set off a fold.
func (s *Sorter) Add(p kvio.Pair) error {
	if s.closed {
		return fmt.Errorf("shuffle: Add after Close")
	}
	if err := s.addCopy(p.Key, p.Value); err != nil {
		return err
	}
	s.added++
	return s.maybeSpill()
}

// AddBlock buffers every record of a block's run in the per-record
// framing, shared read-only: kvio.WalkRuns hands each run of a fetched
// or cached bucket over where it lies. The prefix index adopts the run,
// never writing it, and points into it until the next spill or Close;
// the hash form copies keys and values as Add does. recs is the block
// header's record count, which presizes the index and is checked
// against the scan. Returns the summed key+value payload bytes of the
// run, which callers charge to their raw-byte input accounting.
func (s *Sorter) AddBlock(block []byte, recs int) (int64, error) {
	if s.closed {
		return 0, fmt.Errorf("shuffle: AddBlock after Close")
	}
	var payload int64
	bi, end := len(s.bufs), cap(block)
	// An entry's uint32 offsets cannot address a run past 4 GiB, so the
	// index copies such a run into its arena.
	adopt := s.Indexed() && int64(end) <= math.MaxUint32
	if adopt {
		s.bufs = append(s.bufs, block)
		s.reserve(recs)
	}
	n, err := kvio.ScanRecords(block, func(key, value []byte) error {
		payload += int64(len(key) + len(value))
		s.added++
		if !adopt {
			return s.addCopy(key, value)
		}
		// key and value are subslices of block, so each one's offset
		// is the capacity it lost.
		s.push(key, bi, end-cap(key), end-cap(value), len(value))
		return nil
	})
	if err != nil {
		return payload, err
	}
	if n != recs {
		return payload, fmt.Errorf("shuffle: block scanned %d records, header said %d", n, recs)
	}
	return payload, s.maybeSpill()
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
func (s *Sorter) addCopy(key, value []byte) error {
	if !s.Indexed() {
		return s.addHash(key, value)
	}
	if s.ar.grow(len(key)+len(value)) || s.arBuf < 0 {
		s.arBuf = len(s.bufs)
		s.bufs = append(s.bufs, s.ar.buf[:cap(s.ar.buf)])
	}
	off := len(s.ar.buf)
	s.ar.buf = append(append(s.ar.buf, key...), value...)
	s.push(key, s.arBuf, off, off+len(key), len(value))
	return nil
}

// reserve makes room in the index for n more entries, at least
// doubling it from 16, where append's smaller steps would allocate
// several times its final size in all; a few-record sort stays small.
func (s *Sorter) reserve(n int) {
	if need := len(s.index) + n; need > cap(s.index) {
		s.index = append(make([]entry, 0, max(need, 2*cap(s.index), 16)), s.index...)
	}
}

// push appends an index entry for a record whose key starts at koff and
// whose value starts at voff in s.bufs[buf].
func (s *Sorter) push(key []byte, buf, koff, voff, vlen int) {
	s.reserve(1)
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

func (s *Sorter) groupKey(g *hashGroup) []byte {
	return s.keys[g.koff : g.koff+g.klen : g.koff+g.klen]
}

// groupIndex returns the index of key's hash group, creating an empty
// one on first sight. The table is probed linearly from the hash's low
// bits; its high 32 bits, kept in the slot, spare most key compares.
func (s *Sorter) groupIndex(key []byte) (uint32, error) {
	if 4*(len(s.groups)+1) > 3*len(s.table) {
		s.growTable()
	}
	h := maphash.Bytes(hashSeed, key)
	mask := uint64(len(s.table) - 1)
	i := h & mask
	for ; s.table[i] != 0; i = (i + 1) & mask {
		if slot := s.table[i]; slot>>32 == h>>32 && bytes.Equal(s.groupKey(&s.groups[uint32(slot)-1]), key) {
			return uint32(slot) - 1, nil
		}
	}
	if err := fits(len(s.keys), int64(len(key))); err != nil {
		return 0, err
	}
	g := uint32(len(s.groups))
	s.table[i] = h>>32<<32 | uint64(g+1)
	s.groups = append(s.groups, hashGroup{koff: uint32(len(s.keys)), klen: uint32(len(key))})
	s.keys = append(s.keys, key...)
	s.bufSize += int64(len(key))
	return g, nil
}

// growTable doubles the group table and re-inserts every group.
func (s *Sorter) growTable() {
	s.table = make([]uint64, max(2*len(s.table), 8))
	mask := uint64(len(s.table) - 1)
	for g := range s.groups {
		h := maphash.Bytes(hashSeed, s.groupKey(&s.groups[g]))
		i := h & mask
		for ; s.table[i] != 0; i = (i + 1) & mask {
		}
		s.table[i] = h>>32<<32 | uint64(g+1)
	}
}

// addHash queues a copy of value for key's group, first folding what is
// pending if the value would take it past foldBytes.
func (s *Sorter) addHash(key, value []byte) error {
	n := int64(len(value)) + headerBytes
	if s.pendBytes > 0 && s.pendBytes+n > foldBytes {
		if err := s.fold(); err != nil {
			return err
		}
	}
	if err := fits(len(s.pendBuf), int64(len(value))); err != nil {
		return err
	}
	i, err := s.groupIndex(key)
	if err != nil {
		return err
	}
	s.pend = append(s.pend, pendingValue{group: i, off: uint32(len(s.pendBuf)), len: uint32(len(value))})
	s.pendBuf = append(s.pendBuf, value...)
	s.pendBytes += n
	s.bufSize += n
	return nil
}

// gather lays out in s.gathered the values of every group with pending
// ones, or of every group if all, each group's folded values then its
// pending ones in arrival order, and lists those groups in s.touched.
func (s *Sorter) gather(all bool) {
	s.touched = s.touched[:0]
	for _, p := range s.pend {
		g := &s.groups[p.group]
		if g.hi == 0 && !all {
			s.touched = append(s.touched, p.group)
		}
		g.hi++
	}
	if all {
		for i := range s.groups {
			s.touched = append(s.touched, uint32(i))
		}
	}
	total := uint32(0)
	for _, i := range s.touched {
		g := &s.groups[i]
		g.lo = total
		total += g.nf + g.hi
	}
	s.gathered = slices.Grow(s.gathered[:0], int(total))[:total]
	for _, i := range s.touched {
		g := &s.groups[i]
		g.hi = g.lo
		for v := s.foldAr[g.foff : g.foff+g.flen]; len(v) > 0; g.hi++ {
			n, k := binary.Uvarint(v)
			end := k + int(n)
			s.gathered[g.hi] = v[k:end:end]
			v = v[end:]
		}
	}
	for _, p := range s.pend {
		g := &s.groups[p.group]
		s.gathered[g.hi] = s.pendBuf[p.off : p.off+p.len : p.off+p.len]
		g.hi++
	}
}

// fold combines the values of every group touched since the last fold
// and appends the result to the fold arena, so the pending values'
// buffer can be reused. A lone value is copied, not combined.
func (s *Sorter) fold() error {
	s.gather(false)
	var err error
	for _, i := range s.touched {
		g := &s.groups[i]
		vals := s.gathered[g.lo:g.hi]
		g.hi = 0 // every touched group leaves the gather, even after an error
		if err == nil {
			err = s.foldGroup(g, vals)
		}
	}
	if err != nil {
		return err
	}
	s.bufSize -= s.pendBytes
	clear(s.gathered)
	s.pend, s.pendBuf, s.pendBytes = s.pend[:0], s.pendBuf[:0], 0
	s.folds++
	if len(s.foldAr)-s.foldLive > s.foldLive {
		s.compact()
	}
	return nil
}

// foldGroup replaces g's folded values with vals combined, or with vals
// itself if it is a lone value, appended to the fold arena. vals starts
// with g's folded values, which the combiner's output may alias: the
// append writes only past them, or copies them into a larger arena.
func (s *Sorter) foldGroup(g *hashGroup, vals [][]byte) error {
	old := liveBytes(vals[:g.nf])
	if len(vals) > 1 {
		var err error
		if vals, err = s.opts.Combine(s.groupKey(g), vals); err != nil {
			return err
		}
	}
	live := liveBytes(vals)
	if err := fits(len(s.foldAr), live); err != nil { // a length prefix is shorter than headerBytes
		return err
	}
	s.bufSize += live - old
	off := len(s.foldAr)
	for _, v := range vals {
		s.foldAr = append(binary.AppendUvarint(s.foldAr, uint64(len(v))), v...)
	}
	s.foldLive += len(s.foldAr) - off - int(g.flen)
	g.foff, g.flen, g.nf = uint32(off), uint32(len(s.foldAr)-off), uint32(len(vals))
	return nil
}

// compact copies every group's folded values, in group order, to the
// spare arena and swaps the two, dropping the spans earlier folds left
// behind.
func (s *Sorter) compact() {
	buf := s.spare[:0]
	for i := range s.groups {
		g := &s.groups[i]
		off := len(buf)
		buf = append(buf, s.foldAr[g.foff:g.foff+g.flen]...)
		g.foff = uint32(off)
	}
	s.foldAr, s.spare = buf, s.foldAr[:0]
	s.compactions++
}

// liveBytes is what vals charge against SpillBytes.
func liveBytes(vals [][]byte) int64 {
	n := int64(len(vals)) * headerBytes
	for _, v := range vals {
		n += int64(len(v))
	}
	return n
}

// Added returns the number of records added.
func (s *Sorter) Added() int64 { return s.added }

// Spills returns how many run files were written.
func (s *Sorter) Spills() int { return s.spills }

// Folds returns how many times the hash form folded its pending values
// through the combiner before Groups.
func (s *Sorter) Folds() int64 { return s.folds }

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
// naming its group, and combines each group's folded and pending
// values once more; the group table itself is left undisturbed.
func (s *Sorter) forEachHashGroup(fn func(key []byte, values [][]byte) error) error {
	s.gather(true)
	es := make([]entry, len(s.groups))
	for i := range s.groups {
		g := &s.groups[i]
		es[i] = entry{prefix: keyPrefix(s.groupKey(g)), buf: uint32(i), klen: g.klen}
	}
	for _, e := range radixSort(es, func(e entry) []byte { return s.groupKey(&s.groups[e.buf]) }) {
		g := &s.groups[e.buf]
		key := s.groupKey(g)
		vals, err := s.combine(key, s.gathered[g.lo:g.hi])
		g.hi = 0
		if err != nil {
			return err
		}
		if err := fn(key, vals); err != nil {
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
	clear(s.bufs)
	clear(s.gathered)
	clear(s.table)
	s.bufs, s.index, s.groups, s.pend = s.bufs[:0], s.index[:0], s.groups[:0], s.pend[:0]
	s.keys, s.pendBuf, s.foldAr = s.keys[:0], s.pendBuf[:0], s.foldAr[:0]
	s.arBuf, s.bufSize, s.pendBytes, s.foldLive = -1, 0, 0, 0
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
	s.bufs, s.index = nil, nil
	s.table, s.groups, s.keys, s.pend, s.pendBuf = nil, nil, nil, nil, nil
	s.foldAr, s.spare, s.touched, s.gathered = nil, nil, nil, nil
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
