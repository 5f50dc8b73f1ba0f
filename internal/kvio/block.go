package kvio

// Block framing: the batched record format every bucket is written in.
// A block stream is
//
//	magic | block*
//
// where each block is
//
//	uvarint records      record count (0 allowed)
//	uvarint rawLen       payload bytes
//	uvarint nameLen|name payload form; always "identity"
//	uvarint payloadLen   stored payload bytes (= rawLen)
//	crc32   (4 bytes LE) IEEE CRC of the payload
//	payload              record run
//
// and the payload holds `records` records in the classic per-record
// framing (uvarint keyLen|key|uvarint valueLen|value). Integrity
// checking runs once per ~BlockSize bytes instead of once per record,
// and a block can be handed to the shuffle sorter as one arena slab
// (Sorter.AddBlock) without copying record bytes again. A reader
// refuses a block naming any payload form but "identity" (such as the
// retired "deflate" and "lz") as corrupt rather than guess at its bytes.
//
// Every bucket opens with the magic, and its readers (Walk, WalkRuns,
// NewAnyReader) refuse a stream without it as corrupt: a bare
// per-record stream, the sorter's spill-run format, is never a bucket.
// The magic's first five bytes decode as a uvarint key length far above
// MaxRecordLen, so the per-record Reader refuses a block stream too.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// BlockMagic prefixes every block-framed stream.
var BlockMagic = [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x1F, 0x01}

// DefaultBlockSize is the target payload per block. 64 KiB amortizes
// CRC setup over many records while keeping the decode working set
// inside L2.
const DefaultBlockSize = 64 << 10

// MaxBlockLen bounds a single block's raw and stored payload,
// protecting readers from corrupted or adversarial headers.
const MaxBlockLen = 1 << 27

// identityName is the payload-form name every block header carries.
const identityName = "identity"

// Block-framing errors. ErrBlockChecksum means the stored payload did
// not match its header CRC; ErrBlockCorrupt covers every other
// malformed-header or malformed-payload case.
var (
	ErrBlockChecksum = errors.New("kvio: block checksum mismatch")
	ErrBlockCorrupt  = errors.New("kvio: corrupt block")
)

// ---------------------------------------------------------------------------
// BlockWriter

// blockHdrMax bounds an encoded block header: three uvarints, the name
// and the CRC.
const blockHdrMax = 3*binary.MaxVarintLen64 + 1 + len(identityName) + 4

// headroom is the room a pending buffer keeps ahead of its records for
// the stream magic and the block header, so a block leaves in one Write.
const headroom = len(BlockMagic) + blockHdrMax

// pendingPool recycles BlockWriter pending buffers, as writerPool does
// the per-record Writer's bufio: a bucket per task output split would
// otherwise allocate a whole block's buffer each.
var pendingPool = sync.Pool{New: func() any {
	b := make([]byte, headroom, headroom+DefaultBlockSize+1024)
	return &b
}}

// maxPooledPending is the largest pending buffer returned to the pool;
// one grown past it by an oversized record is left to the GC.
const maxPooledPending = 4 * DefaultBlockSize

// BlockWriter serializes pairs into a block-framed stream. Records
// accumulate until the target block size is reached, then the run is
// checksummed and emitted, magic and header included, as one Write.
// Close (or Flush) emits the final partial block.
type BlockWriter struct {
	w         io.Writer
	blockSize int

	pending *[]byte // pooled: headroom, then the pending records
	recs    int     // records pending
	wrote   bool    // magic emitted

	n     int64 // records written (total)
	bytes int64 // payload bytes written (keys+values, no framing)
	err   error
}

// NewBlockWriter returns a BlockWriter on w. blockSize <= 0 selects
// DefaultBlockSize.
func NewBlockWriter(w io.Writer, blockSize int) *BlockWriter {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &BlockWriter{w: w, blockSize: blockSize, pending: pendingPool.Get().(*[]byte)}
}

// Write appends one record to the pending block, emitting a block when
// the target size is reached.
func (w *BlockWriter) Write(p Pair) error {
	if w.err != nil {
		return w.err
	}
	raw := binary.AppendUvarint(*w.pending, uint64(len(p.Key)))
	raw = append(raw, p.Key...)
	raw = binary.AppendUvarint(raw, uint64(len(p.Value)))
	*w.pending = append(raw, p.Value...)
	w.recs++
	w.n++
	w.bytes += int64(len(p.Key) + len(p.Value))
	if len(*w.pending)-headroom >= w.blockSize {
		w.err = w.emitBlock()
	}
	return w.err
}

// emitBlock writes the pending records as one block, preceded by the
// stream magic if it has not gone out yet, in a single Write.
func (w *BlockWriter) emitBlock() error {
	buf := *w.pending
	start := headroom
	if w.recs > 0 {
		payload := buf[headroom:]
		var hdr [blockHdrMax]byte
		n := binary.PutUvarint(hdr[:], uint64(w.recs))
		n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
		n += binary.PutUvarint(hdr[n:], uint64(len(identityName)))
		n += copy(hdr[n:], identityName)
		n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
		binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(payload))
		n += 4
		start -= copy(buf[start-n:], hdr[:n])
	}
	if !w.wrote {
		w.wrote = true
		start -= copy(buf[start-len(BlockMagic):], BlockMagic[:])
	}
	*w.pending = buf[:headroom]
	w.recs = 0
	if start == headroom {
		return nil
	}
	_, err := w.w.Write(buf[start:])
	return err
}

// Flush emits the pending partial block (and the stream magic, so even
// an empty stream is well-formed block framing).
func (w *BlockWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.emitBlock()
	return w.err
}

// Close flushes and returns the pending buffer to its pool; the writer
// must not be used afterwards.
func (w *BlockWriter) Close() error {
	err := w.Flush()
	if w.pending != nil {
		if cap(*w.pending) <= maxPooledPending {
			pendingPool.Put(w.pending)
		}
		w.pending = nil
	}
	if w.err == nil {
		w.err = ErrReleased
	}
	return err
}

// Count returns the number of records written so far.
func (w *BlockWriter) Count() int64 { return w.n }

// Bytes returns the payload bytes written so far.
func (w *BlockWriter) Bytes() int64 { return w.bytes }

// ---------------------------------------------------------------------------
// BlockReader

// BlockReader serves the records of a block stream it holds whole, one
// at a time, through Walk's run cursor: it checks and refuses what Walk
// does, and its errors are sticky.
type BlockReader struct {
	rest []byte // the stream after the current run
	run  []byte // the current run's unread records
	recs int    // records the current run's header still owes
	n    int64
	err  error
}

// NewAnyReader reads r to the end and returns a BlockReader on its
// bytes, read in one exact-size allocation when r reports its length
// (a bytes.Reader does). A read error, or a stream without BlockMagic
// (ErrBlockCorrupt), is the reader's first result.
func NewAnyReader(r io.Reader) *BlockReader {
	data, err := readWhole(r)
	if err == nil {
		data, err = blocks(data)
	}
	return &BlockReader{rest: data, err: err}
}

// readWhole reads r to the end: in one exact-size allocation when r
// reports its length, by io.ReadAll otherwise.
func readWhole(r io.Reader) ([]byte, error) {
	l, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	data := make([]byte, l.Len())
	_, err := io.ReadFull(r, data)
	return data, err
}

// Release drops the stream. Safe to call more than once.
func (r *BlockReader) Release() {
	r.rest, r.run = nil, nil
	if r.err == nil {
		r.err = ErrReleased
	}
}

// Count returns the number of records read so far.
func (r *BlockReader) Count() int64 { return r.n }

// blockHdr is one parsed block header.
type blockHdr struct {
	recs       int
	rawLen     int
	payloadLen int
	crc        uint32
}

// uvarintAt reads the header uvarint at data[n:], bounded by
// MaxBlockLen, and returns it with the offset past it.
func uvarintAt(data []byte, n int) (int, int, error) {
	v, k := binary.Uvarint(data[n:])
	switch {
	case k == 0:
		return 0, 0, io.ErrUnexpectedEOF
	case k < 0:
		return 0, 0, fmt.Errorf("%w: header uvarint overflows 64 bits", ErrBlockCorrupt)
	case v > MaxBlockLen:
		return 0, 0, fmt.Errorf("%w: length %d exceeds MaxBlockLen", ErrBlockCorrupt, v)
	}
	return int(v), n + k, nil
}

// readHeader parses the block header at the head of data and returns
// it with its encoded length. An empty data is the clean end of stream
// (io.EOF); one that ends inside the header tore mid-block
// (io.ErrUnexpectedEOF). A header naming any payload form but identity
// (a retired codec's, or a future one's) is corrupt.
func readHeader(data []byte) (h blockHdr, n int, err error) {
	if len(data) == 0 {
		return h, 0, io.EOF
	}
	var nameLen int
	if h.recs, n, err = uvarintAt(data, 0); err != nil {
		return
	}
	if h.rawLen, n, err = uvarintAt(data, n); err != nil {
		return
	}
	if nameLen, n, err = uvarintAt(data, n); err != nil {
		return
	}
	if nameLen > 64 {
		err = fmt.Errorf("%w: codec name length %d", ErrBlockCorrupt, nameLen)
		return
	}
	if len(data)-n < nameLen {
		err = io.ErrUnexpectedEOF
		return
	}
	if name := data[n : n+nameLen]; string(name) != identityName {
		err = fmt.Errorf("%w: unknown codec %q", ErrBlockCorrupt, name)
		return
	}
	if h.payloadLen, n, err = uvarintAt(data, n+nameLen); err != nil {
		return
	}
	if len(data)-n < 4 {
		err = io.ErrUnexpectedEOF
		return
	}
	h.crc = binary.LittleEndian.Uint32(data[n:])
	n += 4
	if h.payloadLen != h.rawLen {
		err = fmt.Errorf("%w: identity payload %d != raw %d", ErrBlockCorrupt, h.payloadLen, h.rawLen)
	}
	return
}

// verify checks a block's payload against the header CRC.
func (h blockHdr) verify(payload []byte) error {
	if crc32.ChecksumIEEE(payload) != h.crc {
		return ErrBlockChecksum
	}
	return nil
}

// next returns the next record as subslices of the stream, moving to
// the next run when the current one has given its header's count.
func (r *BlockReader) next() (Pair, error) {
	for r.err == nil && r.recs == 0 {
		if r.err = beyondLast(r.run); r.err == nil {
			r.run, r.recs, r.rest, r.err = nextRun(r.rest, true)
		}
	}
	if r.err != nil {
		return Pair{}, r.err
	}
	key, value, used, err := scanOne(r.run)
	if err != nil {
		r.err = err
		return Pair{}, err
	}
	r.run = r.run[used:]
	r.recs--
	r.n++
	return Pair{Key: key, Value: value}, nil
}

// ReadShared returns the next record; the slices alias the reader's
// copy of the stream, which it never writes.
func (r *BlockReader) ReadShared() (Pair, error) { return r.next() }

// Read returns the next record as freshly allocated slices.
func (r *BlockReader) Read() (Pair, error) {
	p, err := r.next()
	if err != nil {
		return Pair{}, err
	}
	return p.Clone(), nil
}

// ReadAll drains the stream into a slice.
func (r *BlockReader) ReadAll() ([]Pair, error) {
	var out []Pair
	for {
		p, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// ---------------------------------------------------------------------------
// Record scanning within a block

// scanOne parses one framed record at the head of data, returning
// subslices (no copies) and the bytes consumed.
func scanOne(data []byte) (key, value []byte, used int, err error) {
	klen, n := binary.Uvarint(data)
	if n <= 0 || klen > MaxRecordLen {
		return nil, nil, 0, fmt.Errorf("%w: bad key length", ErrBlockCorrupt)
	}
	used = n
	if uint64(len(data)-used) < klen {
		return nil, nil, 0, fmt.Errorf("%w: truncated key", ErrBlockCorrupt)
	}
	key = data[used : used+int(klen)]
	used += int(klen)
	vlen, n := binary.Uvarint(data[used:])
	if n <= 0 || vlen > MaxRecordLen {
		return nil, nil, 0, fmt.Errorf("%w: bad value length", ErrBlockCorrupt)
	}
	used += n
	if uint64(len(data)-used) < vlen {
		return nil, nil, 0, fmt.Errorf("%w: truncated value", ErrBlockCorrupt)
	}
	value = data[used : used+int(vlen)]
	used += int(vlen)
	return key, value, used, nil
}

// ScanRecords walks every record in a block payload, passing
// subslices of data to fn (no copies). It is the parse half of the
// zero-copy handoff: shuffle.Sorter.AddBlock adopts the block buffer
// and scans pairs out of it in place.
func ScanRecords(data []byte, fn func(key, value []byte) error) (int, error) {
	recs := 0
	for len(data) > 0 {
		key, value, used, err := scanOne(data)
		if err != nil {
			return recs, err
		}
		data = data[used:]
		recs++
		if err := fn(key, value); err != nil {
			return recs, err
		}
	}
	return recs, nil
}
