// Package kvio defines the key-value pair type and the record framing
// of all intermediate data in mrs-go. A record is
//
//	uvarint keyLen | keyLen bytes | uvarint valueLen | valueLen bytes
//
// independent of the key/value codecs (which live in internal/codec).
// Every bucket is a block stream of record runs (BlockWriter); tasks
// read a whole fetched bucket in place (Walk, WalkRuns), and a stream
// without the block magic is refused. A bare sequence of records ended
// by EOF is the shuffle sorter's spill-run format, written by Writer
// and read back by Reader.
package kvio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxRecordLen bounds a single key or value, protecting readers from
// corrupted or adversarial streams.
const MaxRecordLen = 1 << 30

// ErrRecordTooLarge is returned when a stream declares a key or value
// larger than MaxRecordLen.
var ErrRecordTooLarge = errors.New("kvio: record exceeds MaxRecordLen")

// ErrReleased is returned by operations on a released Reader or Writer.
var ErrReleased = errors.New("kvio: use after Release")

// bufSize is the bufio buffer size shared by readers and writers. 64 KiB
// amortizes syscall and HTTP-body read costs over many small records.
const bufSize = 64 << 10

// Readers and writers churn through the sorter at one per spill run,
// and each carries a 64 KiB bufio buffer; pooling the buffers keeps the
// shuffle's steady-state allocation rate independent of run count.
// Release returns a buffer to its pool.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, bufSize) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, bufSize) }}
)

// Pair is one key-value record. Key and Value are raw encoded bytes.
type Pair struct {
	Key   []byte
	Value []byte
}

// String renders a pair for debugging.
func (p Pair) String() string {
	return fmt.Sprintf("(%q, %q)", p.Key, p.Value)
}

// Clone returns a deep copy of p.
func (p Pair) Clone() Pair {
	return Pair{Key: append([]byte(nil), p.Key...), Value: append([]byte(nil), p.Value...)}
}

// KeyLess reports whether a's key sorts before b's key.
func KeyLess(a, b Pair) bool { return bytes.Compare(a.Key, b.Key) < 0 }

// StrPair builds a Pair from strings; a convenience for text workloads.
func StrPair(key, value string) Pair {
	return Pair{Key: []byte(key), Value: []byte(value)}
}

// ---------------------------------------------------------------------------
// Writer

// Writer serializes pairs to an io.Writer in record-stream format.
type Writer struct {
	w     *bufio.Writer
	n     int64 // records written
	bytes int64 // payload bytes written (keys+values, not framing)
	err   error
	// hdr is Write's varint scratch. It lives here because a local
	// array escapes through bufio.Writer.Write, costing an allocation
	// per record.
	hdr [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer on w. Its buffer comes from a shared pool;
// call Release (after Flush) when done with the Writer to recycle it.
func NewWriter(w io.Writer) *Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return &Writer{w: bw}
}

// Release returns the Writer's buffer to the pool. The Writer must not
// be used afterwards; buffered but unflushed records are lost, so call
// Flush first. Safe to call more than once.
func (w *Writer) Release() {
	if w.w == nil {
		return
	}
	w.w.Reset(nil)
	writerPool.Put(w.w)
	w.w = nil
	if w.err == nil {
		w.err = ErrReleased
	}
}

// Write appends one record.
func (w *Writer) Write(p Pair) error {
	if w.err != nil {
		return w.err
	}
	n := binary.PutUvarint(w.hdr[:], uint64(len(p.Key)))
	if _, err := w.w.Write(w.hdr[:n]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(p.Key); err != nil {
		w.err = err
		return err
	}
	n = binary.PutUvarint(w.hdr[:], uint64(len(p.Value)))
	if _, err := w.w.Write(w.hdr[:n]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(p.Value); err != nil {
		w.err = err
		return err
	}
	w.n++
	w.bytes += int64(len(p.Key) + len(p.Value))
	return nil
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.n }

// Bytes returns the payload bytes written so far.
func (w *Writer) Bytes() int64 { return w.bytes }

// ---------------------------------------------------------------------------
// Reader

// Reader parses a record stream. Read returns io.EOF at a clean end of
// stream and io.ErrUnexpectedEOF if the stream ends mid-record.
type Reader struct {
	r      *bufio.Reader
	n      int64
	err    error
	shared []byte // ReadShared's reused record buffer
}

// NewReader returns a Reader on r. Its buffer comes from a shared pool;
// call Release when done with the Reader to recycle it.
func NewReader(r io.Reader) *Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return &Reader{r: br}
}

// Release returns the Reader's buffer to the pool. The Reader must not
// be used afterwards. Safe to call more than once.
func (r *Reader) Release() {
	if r.r == nil {
		return
	}
	r.r.Reset(nil)
	readerPool.Put(r.r)
	r.r = nil
	r.shared = nil
	if r.err == nil {
		r.err = ErrReleased
	}
}

// Read returns the next record. The returned slices are freshly
// allocated and safe to retain.
func (r *Reader) Read() (Pair, error) {
	if r.err != nil {
		return Pair{}, r.err
	}
	key, err := r.readChunk(true)
	if err != nil {
		r.err = err
		return Pair{}, err
	}
	value, err := r.readChunk(false)
	if err != nil {
		r.err = err
		return Pair{}, err
	}
	r.n++
	return Pair{Key: key, Value: value}, nil
}

// ReadShared returns the next record using an internal buffer that is
// reused across calls: the returned slices are valid only until the
// next Read/ReadShared call. Steady-state it allocates nothing, which
// makes it the right call for consumers that copy or immediately
// serialize what they read (the sorter, bucket writers).
func (r *Reader) ReadShared() (Pair, error) {
	if r.err != nil {
		return Pair{}, r.err
	}
	klen, err := r.readLen(true)
	if err != nil {
		r.err = err
		return Pair{}, err
	}
	if cap(r.shared) < klen {
		r.shared = make([]byte, 0, max(klen, 1<<10))
	}
	key := r.shared[:klen]
	if err := r.fill(key); err != nil {
		r.err = err
		return Pair{}, err
	}
	vlen, err := r.readLen(false)
	if err != nil {
		r.err = err
		return Pair{}, err
	}
	if cap(r.shared) < klen+vlen {
		grown := make([]byte, 0, max(klen+vlen, 2*cap(r.shared)))
		grown = append(grown, key...)
		r.shared = grown[:cap(grown)]
		key = r.shared[:klen]
	}
	value := r.shared[klen : klen+vlen]
	if err := r.fill(value); err != nil {
		r.err = err
		return Pair{}, err
	}
	r.n++
	return Pair{Key: key, Value: value}, nil
}

// readChunk reads one uvarint-prefixed chunk into a fresh allocation.
// atRecordStart selects whether EOF is clean (between records) or
// unexpected (mid-record).
func (r *Reader) readChunk(atRecordStart bool) ([]byte, error) {
	size, err := r.readLen(atRecordStart)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if err := r.fill(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readLen reads one uvarint length prefix and bounds-checks it.
func (r *Reader) readLen(atRecordStart bool) (int, error) {
	size, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF && !atRecordStart {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, err
	}
	if size > MaxRecordLen {
		return 0, ErrRecordTooLarge
	}
	return int(size), nil
}

// fill reads exactly len(buf) bytes, mapping a short read to
// io.ErrUnexpectedEOF (the stream ended mid-record).
func (r *Reader) fill(buf []byte) error {
	if _, err := io.ReadFull(r.r, buf); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// Count returns the number of records read so far.
func (r *Reader) Count() int64 { return r.n }

// ReadAll drains the stream into a slice.
func (r *Reader) ReadAll() ([]Pair, error) {
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
// In-memory helpers

// Marshal encodes pairs into a single record-stream buffer.
func Marshal(pairs []Pair) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			// bytes.Buffer writes cannot fail.
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	w.Release()
	return buf.Bytes()
}

// Unmarshal decodes a record-stream buffer produced by Marshal.
func Unmarshal(data []byte) ([]Pair, error) {
	r := NewReader(bytes.NewReader(data))
	defer r.Release()
	return r.ReadAll()
}

// ---------------------------------------------------------------------------
// Emitters and sinks

// Emitter receives the output records of a map or reduce call. Emit
// copies what it keeps, so the caller may reuse or overwrite key and
// value as soon as it returns: a kernel can emit from one scratch
// buffer per task. FuncEmitter and CountingEmitter pass the slices on
// and keep the promise of what they wrap.
type Emitter interface {
	Emit(key, value []byte) error
}

// SliceEmitter accumulates emitted pairs in memory.
type SliceEmitter struct {
	Pairs []Pair
}

// Emit appends a deep copy of (key, value).
func (e *SliceEmitter) Emit(key, value []byte) error {
	e.Pairs = append(e.Pairs, Pair{
		Key:   append([]byte(nil), key...),
		Value: append([]byte(nil), value...),
	})
	return nil
}

// FuncEmitter adapts a function to the Emitter interface.
type FuncEmitter func(key, value []byte) error

// Emit calls the wrapped function.
func (f FuncEmitter) Emit(key, value []byte) error { return f(key, value) }

// CountingEmitter forwards to Next and counts records and bytes;
// used for progress accounting and bench instrumentation.
type CountingEmitter struct {
	Next    Emitter
	Records int64
	Bytes   int64
}

// Emit forwards one record and updates counters.
func (c *CountingEmitter) Emit(key, value []byte) error {
	c.Records++
	c.Bytes += int64(len(key) + len(value))
	if c.Next == nil {
		return nil
	}
	return c.Next.Emit(key, value)
}
