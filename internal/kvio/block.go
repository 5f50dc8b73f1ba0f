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
// The magic is chosen so no valid legacy stream can begin with it: its
// first five bytes decode as a uvarint key length far above
// MaxRecordLen, which legacy writers never produce and legacy readers
// reject. NewAnyReader uses this to take byte streams of either framing
// and pick the right reader, so legacy and block buckets read alike.

import (
	"bufio"
	"bytes"
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
// the legacy Writer's bufio: a bucket per task output split would
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

// BlockReader parses a block-framed stream. It verifies each block's
// CRC and serves records either one at a time (Read / ReadShared) or a
// whole block at once (NextBlock, the zero-copy path into the shuffle
// sorter).
type BlockReader struct {
	br       *bufio.Reader
	ownsBuf  bool // br came from the shared pool
	block    []byte
	off      int
	recsLeft int
	n        int64
	rawBytes int64
	err      error
}

// NewBlockReader returns a BlockReader on r, consuming and verifying
// the stream magic.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	got, err := br.Peek(len(BlockMagic))
	if err != nil || !bytes.Equal(got, BlockMagic[:]) {
		br.Reset(nil)
		readerPool.Put(br)
		if err != nil && err != io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("%w: missing block magic", ErrBlockCorrupt)
	}
	br.Discard(len(BlockMagic))
	return &BlockReader{br: br, ownsBuf: true}, nil
}

// newBlockReaderAt wraps an existing bufio whose magic has already been
// consumed; used by NewAnyReader after sniffing.
func newBlockReaderAt(br *bufio.Reader, ownsBuf bool) *BlockReader {
	return &BlockReader{br: br, ownsBuf: ownsBuf}
}

// Release returns pooled state. Safe to call more than once.
func (r *BlockReader) Release() {
	if r.br != nil && r.ownsBuf {
		r.br.Reset(nil)
		readerPool.Put(r.br)
	}
	r.br = nil
	r.block = nil
	if r.err == nil {
		r.err = ErrReleased
	}
}

// Count returns the number of records read so far.
func (r *BlockReader) Count() int64 { return r.n }

// RawBytes returns the payload bytes consumed so far, including blocks
// handed off via NextBlock.
func (r *BlockReader) RawBytes() int64 { return r.rawBytes }

// blockHdr is one parsed block header.
type blockHdr struct {
	recs       int
	rawLen     int
	payloadLen int
	crc        uint32
}

// byteReader is what header parsing reads from: the BlockReader's
// bufio.Reader, or a bytes.Reader over a whole payload (Walk).
type byteReader interface {
	io.Reader
	io.ByteReader
}

// u reads one bounds-checked header uvarint. An io.EOF at a block start
// is the clean end of stream; anywhere else the stream tore mid-header.
func u(r byteReader, atStart bool) (int, error) {
	v, uerr := binary.ReadUvarint(r)
	if uerr != nil {
		if uerr == io.EOF && !atStart {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, uerr
	}
	if v > MaxBlockLen {
		return 0, fmt.Errorf("%w: length %d exceeds MaxBlockLen", ErrBlockCorrupt, v)
	}
	return int(v), nil
}

// readHeader parses one block header. Its first uvarint is the record
// count, bounded by MaxBlockLen; an io.EOF before that first byte is
// the clean end of stream. A header naming any payload form but
// identity (a retired codec's, or a future one's) is corrupt.
func readHeader(r byteReader) (h blockHdr, err error) {
	if h.recs, err = u(r, true); err != nil {
		return
	}
	if h.rawLen, err = u(r, false); err != nil {
		return
	}
	nameLen, err := u(r, false)
	if err != nil {
		return
	}
	if nameLen > 64 {
		err = fmt.Errorf("%w: codec name length %d", ErrBlockCorrupt, nameLen)
		return
	}
	var nameBuf [64]byte
	if _, err = io.ReadFull(r, nameBuf[:nameLen]); err != nil {
		err = noEOF(err)
		return
	}
	if name := nameBuf[:nameLen]; string(name) != identityName {
		err = fmt.Errorf("%w: unknown codec %q", ErrBlockCorrupt, name)
		return
	}
	if h.payloadLen, err = u(r, false); err != nil {
		return
	}
	var crcBuf [4]byte
	if _, err = io.ReadFull(r, crcBuf[:]); err != nil {
		err = noEOF(err)
		return
	}
	h.crc = binary.LittleEndian.Uint32(crcBuf[:])
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

// readPayload reads a block's payload into dst (grown as needed; nil
// for a fresh, caller-owned allocation) and checks it in place.
func (r *BlockReader) readPayload(h blockHdr, dst []byte) ([]byte, error) {
	if cap(dst) < h.payloadLen {
		dst = make([]byte, h.payloadLen)
	}
	payload := dst[:h.payloadLen]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, noEOF(err)
	}
	return payload, h.verify(payload)
}

// nextRaw reads the next non-empty block and returns its legacy-framed
// record run (read into dst, grown as needed) without record parsing.
// io.EOF means a clean end of stream.
func (r *BlockReader) nextRaw(dst []byte) ([]byte, int, error) {
	for {
		h, err := readHeader(r.br)
		if err != nil {
			return nil, 0, err
		}
		if h.recs == 0 && h.rawLen == 0 && h.payloadLen == 0 {
			continue // empty block: legal, carries nothing
		}
		if dst, err = r.readPayload(h, dst); err != nil {
			return nil, 0, err
		}
		r.rawBytes += int64(h.rawLen)
		return dst, h.recs, nil
	}
}

// NextBlock returns the next block as its legacy-framed record run
// and its record count, transferring ownership of the returned slice to
// the caller (it is never reused by the reader) — the zero-copy handoff
// into the shuffle sorter's AddBlock. It must not be mixed with
// Read/ReadShared on a partially consumed block. io.EOF signals a clean
// end of stream.
func (r *BlockReader) NextBlock() ([]byte, int, error) {
	if r.err != nil {
		return nil, 0, r.err
	}
	if r.off != len(r.block) {
		return nil, 0, fmt.Errorf("kvio: NextBlock mid-block")
	}
	rows, recs, err := r.nextRaw(nil)
	if err != nil {
		r.err = err
		return nil, 0, err
	}
	r.n += int64(recs)
	return rows, recs, nil
}

// advance ensures the current block has at least one unread record.
func (r *BlockReader) advance() error {
	for r.recsLeft == 0 {
		if r.off != len(r.block) {
			return fmt.Errorf("%w: %d payload bytes beyond last record", ErrBlockCorrupt, len(r.block)-r.off)
		}
		block, recs, err := r.nextRaw(r.block)
		if err != nil {
			return err
		}
		r.block, r.recsLeft, r.off = block, recs, 0
	}
	return nil
}

// next parses one record out of the current block, returning slices
// into the block buffer (valid until the next read call).
func (r *BlockReader) next() (Pair, error) {
	if r.err != nil {
		return Pair{}, r.err
	}
	if err := r.advance(); err != nil {
		r.err = err
		return Pair{}, err
	}
	rest := r.block[r.off:]
	key, value, used, err := scanOne(rest)
	if err != nil {
		r.err = err
		return Pair{}, err
	}
	r.off += used
	r.recsLeft--
	r.n++
	return Pair{Key: key, Value: value}, nil
}

// ReadShared returns the next record; the slices alias the reader's
// block buffer and are valid only until the next read call.
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

// noEOF maps io.EOF to io.ErrUnexpectedEOF (the stream tore mid-block).
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
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

// ---------------------------------------------------------------------------
// Framing-agnostic reading

// RecordReader is the read interface shared by the legacy per-record
// Reader and the BlockReader, so consumers can take streams of either
// framing.
type RecordReader interface {
	// Read returns the next record as retainable fresh allocations.
	Read() (Pair, error)
	// ReadShared returns the next record in internal buffers valid only
	// until the next read call.
	ReadShared() (Pair, error)
	// ReadAll drains the stream.
	ReadAll() ([]Pair, error)
	// Count returns records read so far.
	Count() int64
	// Release recycles pooled state; the reader is unusable afterwards.
	Release()
}

// NewAnyReader sniffs the stream's framing and returns the matching
// reader: block framing if the stream opens with BlockMagic (which no
// valid legacy stream can), the legacy per-record reader otherwise.
// This is how every consumer reads both at-rest forms.
func NewAnyReader(r io.Reader) RecordReader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	got, err := br.Peek(len(BlockMagic))
	if err == nil && bytes.Equal(got, BlockMagic[:]) {
		br.Discard(len(BlockMagic))
		return newBlockReaderAt(br, true)
	}
	return &Reader{r: br}
}
