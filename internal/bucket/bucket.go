// Package bucket manages intermediate data between tasks. Each task
// writes its output partitioned into buckets (one per destination
// split); each bucket is addressable by URL so a consumer task can read
// it later, possibly from another machine.
//
// Three URL schemes mirror the data paths in §IV-B of the Mrs paper:
//
//	mem:<store>/<name>   in-memory, single-process execution modes
//	file://<path>        shared-filesystem staging (the fault-tolerant path)
//	http://host/data/<…> direct slave-to-slave serving via the built-in
//	                     HTTP server (the high-performance path)
//
// A Store owns buckets created locally. Opening a URL resolves mem and
// file buckets locally, and http buckets under the store's own base URL
// too; other http buckets are fetched over the network.
//
// An HTTP-serving store (NewFileStore with a base URL) has two backings
// behind one lookup: a bucket stays in RAM until it passes MemBucketMax
// or the store's RAM total would pass MemStoreBudget, and only then
// spills to a file in the store directory. Either way it is published
// under the same http URL with the same at-rest bytes.
//
// A file-backed store indexes the bucket files it publishes (flat name
// to exact at-rest path), so removing a RAM bucket or a name it never
// wrote costs no syscall and removing one of its files costs one unlink.
package bucket

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/hash"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// CompressExt marks a bucket file stored whole-stream flate-compressed
// in the legacy (pre-block) at-rest form. The suffix makes compressed
// buckets self-describing: any reader that sees it (local open, file://
// URL, the data server) knows to decompress, so producers and consumers
// need not agree on configuration.
const CompressExt = ".fz"

// BlockExt marks a bucket file stored in kvio block framing. The full
// at-rest suffix is BlockExt plus the block codec's extension —
// ".mrb" (identity blocks), ".mrb.fz" (deflate blocks), ".mrb.lz" —
// so the data server knows the at-rest codec without opening the file
// and can serve it verbatim to a client that accepts that codec.
const BlockExt = ".mrb"

// MemBucketMax is the largest bucket an HTTP-serving store keeps in RAM.
// A writer that passes it spills to a file and continues there.
const MemBucketMax = 64 << 10

// MemStoreBudget bounds the bytes an HTTP-serving store holds in RAM. A
// bucket that would push the total past it is published as a file. It
// is sized for the iterative case: a superstep chain frees its datasets
// as it goes, so its live buckets fit many times over, while a job that
// keeps hundreds of small buckets live (word count) mostly spills
// instead of growing the heap.
const MemStoreBudget = 256 << 10

// Descriptor identifies a finished bucket.
type Descriptor struct {
	// Name is the store-relative bucket name, e.g. "ds3/t2/s1".
	Name string
	// URL locates the bucket for consumers ("mem:", "file://", "http://").
	URL string
	// Records and Bytes describe the contents (framing excluded).
	Records int64
	Bytes   int64
}

// storeSeq distinguishes mem: URLs of different stores in one process.
var (
	storeSeqMu sync.Mutex
	storeSeq   int
)

// serving maps the directory of every open HTTP-serving store to the
// store, so ServeBucket, which gets only a path from ServeName, finds the
// store's RAM buckets before its files. ServeBucket's path-only
// signature is what existing data servers call, hence a table rather
// than a parameter; each store's directory is its own, and Close
// unregisters it.
var (
	servingMu sync.Mutex
	serving   = map[string]*Store{}
)

// Store creates and resolves buckets.
type Store struct {
	id      int
	dir     string // if non-empty, buckets may be files under dir
	baseURL string // if non-empty, buckets advertise baseURL/<name>

	mu        sync.Mutex
	mem       map[string]atRest // RAM buckets by flat name
	memBytes  int64             // total payload of mem
	files     map[string]string // file buckets by flat name: exact at-rest path
	client    *http.Client      // overrides the shared fetch client (fault injection)
	compress  bool              // write new file buckets legacy flate-compressed
	codec     wirecodec.Codec   // if set, write new file buckets block-framed with this codec
	blockSize int               // target uncompressed bytes per block (0 = kvio default)
	metrics   *obs.Metrics      // wire-byte counters (nil-safe)
}

// NewMemStore returns a Store that keeps buckets in memory. Its
// descriptors are only meaningful within this process.
func NewMemStore() *Store {
	storeSeqMu.Lock()
	storeSeq++
	id := storeSeq
	storeSeqMu.Unlock()
	return &Store{id: id, mem: map[string]atRest{}}
}

// NewFileStore returns a Store rooted at dir. If baseURL is non-empty
// (e.g. "http://10.0.0.7:9123/data"), finished buckets advertise
// baseURL/<name> and small ones are held in RAM (see MemBucketMax);
// otherwise every bucket is a file advertised by a file:// URL, which is
// correct when dir is on a shared filesystem that peers open directly.
// Bucket files already in dir (a restarted node's) are indexed as the
// store's own, so Remove deletes them.
func NewFileStore(dir, baseURL string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bucket: creating store dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("bucket: reading store dir: %w", err)
	}
	s := &Store{dir: dir, baseURL: strings.TrimRight(baseURL, "/"),
		mem: map[string]atRest{}, files: map[string]string{}}
	for _, e := range entries {
		// Temp files of unfinished writes are hidden and never published.
		if name := e.Name(); !e.IsDir() && !strings.HasPrefix(name, ".") {
			s.files[flatName(name)] = filepath.Join(dir, name)
		}
	}
	if s.baseURL != "" {
		servingMu.Lock()
		serving[filepath.Clean(dir)] = s
		servingMu.Unlock()
	}
	return s, nil
}

// Close drops the store's RAM buckets and stops ServeBucket from finding
// them; bucket files stay on disk. Call it when the owning node stops:
// its RAM buckets are then exactly as lost as its process would make
// them.
func (s *Store) Close() {
	if s.baseURL != "" {
		servingMu.Lock()
		if serving[filepath.Clean(s.dir)] == s {
			delete(serving, filepath.Clean(s.dir))
		}
		servingMu.Unlock()
	}
	s.mu.Lock()
	for flat := range s.mem {
		s.dropMem(flat)
	}
	s.mu.Unlock()
}

// Dir returns the store's directory ("" for memory stores).
func (s *Store) Dir() string { return s.dir }

// SetHTTPClient overrides the HTTP client used for remote bucket
// fetches — the hook internal/fault uses to perturb the data path.
func (s *Store) SetHTTPClient(c *http.Client) {
	s.mu.Lock()
	s.client = c
	s.mu.Unlock()
}

func (s *Store) fetchClient() *http.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client != nil {
		return s.client
	}
	return httpClient
}

// CloseIdle closes the fetch client's idle keep-alive connections.
// Call it when a node shuts down: a pooled (or dial-racing) connection
// that never carries another request otherwise counts as active on the
// peer's server until the net/http new-connection grace period expires,
// stalling its graceful Shutdown.
func (s *Store) CloseIdle() {
	s.fetchClient().CloseIdleConnections()
}

// SetCompress controls whether new file buckets are written in the
// legacy whole-stream flate form (mem buckets never are — they never
// leave the process). Already-written buckets are unaffected; readers
// handle every at-rest form regardless of this setting. SetCodec
// supersedes this: when a block codec is set it wins.
func (s *Store) SetCompress(on bool) {
	s.mu.Lock()
	s.compress = on
	s.mu.Unlock()
}

// SetCodec switches new file buckets to kvio block framing with the
// named registered codec ("identity", "deflate", "lz"). An empty name
// reverts to the legacy per-record forms. Mem buckets are unaffected:
// they never leave the process, so framing buys them nothing.
func (s *Store) SetCodec(name string) error {
	if name == "" {
		s.mu.Lock()
		s.codec = nil
		s.mu.Unlock()
		return nil
	}
	c, ok := wirecodec.Lookup(name)
	if !ok {
		return fmt.Errorf("bucket: unknown codec %q (have %s)", name, strings.Join(wirecodec.Names(), ", "))
	}
	s.mu.Lock()
	s.codec = c
	s.mu.Unlock()
	return nil
}

// SetBlockSize sets the target uncompressed payload per block for new
// block-framed buckets; 0 restores the kvio default.
func (s *Store) SetBlockSize(n int) {
	s.mu.Lock()
	s.blockSize = n
	s.mu.Unlock()
}

func (s *Store) codecOn() (wirecodec.Codec, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.codec, s.blockSize
}

// SetMetrics wires the registry that receives the store's wire-byte and
// publish counters. A nil registry (the default) discards them.
func (s *Store) SetMetrics(m *obs.Metrics) {
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
	obs.RegisterBucketMemGauge(m)
}

func (s *Store) compressOn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compress
}

// counter returns the named counter of the wired registry (nil, a no-op,
// when metrics are not wired).
func (s *Store) counter(metric string) *obs.Counter {
	s.mu.Lock()
	m := s.metrics
	s.mu.Unlock()
	return m.Counter(metric)
}

// counting wraps rc so every wire byte lands in the per-path counter
// and the per-codec counter for codecName.
func (s *Store) counting(rc io.ReadCloser, pathMetric, codecName string) io.ReadCloser {
	return &countingReadCloser{
		rc: rc,
		c:  s.counter(pathMetric),
		c2: s.counter(obs.MetricWireBytesCodec(codecName)),
	}
}

// fileCodecName classifies an at-rest file path by the codec its wire
// bytes are compressed with, for the per-codec counters.
func fileCodecName(path string) string {
	if i := strings.Index(path, BlockExt); i >= 0 {
		ext := path[i+len(BlockExt):]
		for _, name := range wirecodec.Names() {
			if c, _ := wirecodec.Lookup(name); c.Ext() == ext {
				return name
			}
		}
		return wirecodec.IdentityName
	}
	if strings.HasSuffix(path, CompressExt) {
		return wirecodec.DeflateName
	}
	return wirecodec.IdentityName
}

// InMemory reports whether this store keeps buckets in memory.
func (s *Store) InMemory() bool { return s.dir == "" }

// deflateCodec returns the registry's deflate codec, which owns the
// pooled flate state the legacy ".fz" at-rest form is built on.
func deflateCodec() wirecodec.Codec {
	c, ok := wirecodec.Lookup(wirecodec.DeflateName)
	if !ok {
		panic("wirecodec: deflate not registered")
	}
	return c
}

// Writer accumulates one bucket's records. The encoded bytes land in a
// RAM buffer or a temp file, whichever backing the store gives the
// bucket (see sink), and Close publishes them.
type Writer struct {
	store *Store
	name  string
	form  atRest // at-rest form: file path (with suffix) and block form
	sink  sink
	cw    io.WriteCloser // legacy compression layer between records and sink, if on

	w      *kvio.Writer      // legacy per-record framing
	bw     *kvio.BlockWriter // block framing (when the store has a codec)
	closed bool
}

// bufPool recycles the RAM backing of writers. Only buffers whose bytes
// were copied out (published) or spilled return here, so a published
// bucket's slice is never reused.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// sink is a bucket's backing while it is written: buf until the bucket
// passes MemBucketMax (memory stores never leave buf), then a temp file
// in the store directory. A file is renamed into place on Close, so a
// bucket is only ever observed complete. Duplicate task attempts
// (reassignment races, lease requeues) then cannot expose a half-written
// bucket to a concurrent reader — the last publish wins and both
// attempts produced identical content.
type sink struct {
	store *Store
	flat  string
	buf   *bytes.Buffer // RAM backing; nil once spilled, or for shared-dir stores
	f     *os.File
	tmp   string
}

func (k *sink) Write(p []byte) (int, error) {
	if k.buf != nil {
		if k.store.keepsInRAM(k.buf.Len() + len(p)) {
			return k.buf.Write(p)
		}
		if err := k.spill(); err != nil {
			return 0, err
		}
	}
	return k.f.Write(p)
}

// keepsInRAM reports whether a bucket of n bytes stays in RAM: always in
// a memory store, and in an HTTP-serving store while it is within
// MemBucketMax and the store's RAM budget has room for it. A bucket that
// will be a file anyway then goes there without first filling a buffer.
func (s *Store) keepsInRAM(n int) bool {
	if s.dir == "" {
		return true
	}
	if n > MemBucketMax {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memBytes+int64(n) <= MemStoreBudget
}

// openFile creates the temp file the bucket continues in.
func (k *sink) openFile() error {
	f, err := os.CreateTemp(k.store.dir, "."+k.flat+".tmp-*")
	if err != nil {
		return fmt.Errorf("bucket: creating %s: %w", filepath.Join(k.store.dir, k.flat), err)
	}
	k.f, k.tmp = f, f.Name()
	return nil
}

// spill moves the RAM buffer into a fresh temp file.
func (k *sink) spill() error {
	if err := k.openFile(); err != nil {
		return err
	}
	_, err := k.f.Write(k.buf.Bytes())
	k.releaseBuf()
	k.store.counter(obs.MetricBucketSpilled).Add(1)
	return err
}

func (k *sink) releaseBuf() {
	if k.buf != nil {
		k.buf.Reset()
		bufPool.Put(k.buf)
		k.buf = nil
	}
}

// abort discards whatever the sink holds.
func (k *sink) abort() {
	k.releaseBuf()
	if k.f != nil {
		k.f.Close()
		os.Remove(k.tmp)
		k.f = nil
	}
}

// CreateOpts carries per-bucket overrides of the store's data-plane
// defaults; zero values inherit the store settings. This is how a
// per-dataset codec pin (core.OpOpts) reaches the buckets a task
// writes.
type CreateOpts struct {
	// Codec overrides the store's block codec by registered name.
	Codec string
}

// Create starts a new bucket with the given store-relative name. Name
// components are sanitized into a flat, safe file name. With a block
// codec set the bucket is written block-framed and published with the
// BlockExt+codec suffix; with
// legacy compression on it is written through whole-stream flate under
// CompressExt. A RAM bucket holds exactly the bytes its file would.
// Record counts and payload bytes in the descriptor are always
// pre-compression.
func (s *Store) Create(name string) (*Writer, error) {
	return s.CreateOpts(name, CreateOpts{})
}

// CreateOpts is Create with per-bucket data-plane overrides.
func (s *Store) CreateOpts(name string, opts CreateOpts) (*Writer, error) {
	if name == "" {
		return nil, fmt.Errorf("bucket: empty bucket name")
	}
	flat := flatten(name)
	w := &Writer{store: s, name: name, sink: sink{store: s, flat: flat}}
	if s.dir == "" {
		w.sink.buf = new(bytes.Buffer)
		w.w = kvio.NewWriter(&w.sink)
		return w, nil
	}
	c, blockSize := s.codecOn()
	if opts.Codec != "" {
		oc, ok := wirecodec.Lookup(opts.Codec)
		if !ok {
			return nil, fmt.Errorf("bucket: unknown codec %q (have %s)", opts.Codec, strings.Join(wirecodec.Names(), ", "))
		}
		c = oc
	}
	if s.baseURL != "" {
		w.sink.buf = bufPool.Get().(*bytes.Buffer)
	} else if err := w.sink.openFile(); err != nil {
		return nil, err
	}
	w.form.path = filepath.Join(s.dir, flat)
	if c != nil {
		w.form.blockCodec = c
		w.form.path += BlockExt + c.Ext()
		w.bw = kvio.NewBlockWriter(&w.sink, c, blockSize)
	} else if s.compressOn() {
		w.form.legacyFlate = true
		w.form.path += CompressExt
		w.cw = deflateCodec().NewWriter(&w.sink)
		w.w = kvio.NewWriter(w.cw)
	} else {
		w.w = kvio.NewWriter(&w.sink)
	}
	return w, nil
}

// Write appends one record to the bucket.
func (w *Writer) Write(p kvio.Pair) error {
	if w.closed {
		return fmt.Errorf("bucket: write after close")
	}
	if w.bw != nil {
		return w.bw.Write(p)
	}
	return w.w.Write(p)
}

// Emit implements kvio.Emitter.
func (w *Writer) Emit(key, value []byte) error {
	return w.Write(kvio.Pair{Key: key, Value: value})
}

// Close finalizes the bucket and returns its descriptor.
func (w *Writer) Close() (Descriptor, error) {
	if w.closed {
		return Descriptor{}, fmt.Errorf("bucket: double close")
	}
	w.closed = true
	var (
		d   Descriptor
		err error
	)
	if w.bw != nil {
		d = Descriptor{Name: w.name, Records: w.bw.Count(), Bytes: w.bw.Bytes()}
		err = w.bw.Close()
	} else {
		d = Descriptor{Name: w.name, Records: w.w.Count(), Bytes: w.w.Bytes()}
		err = w.w.Flush()
		w.w.Release()
		if w.cw != nil {
			if cerr := w.cw.Close(); err == nil {
				err = cerr // flushes the final flate block, recycles pooled state
			}
			w.cw = nil
		}
	}
	if err == nil {
		err = w.publish()
	}
	if err != nil {
		w.sink.abort()
		return Descriptor{}, err
	}
	s := w.store
	switch {
	case s.dir == "":
		d.URL = fmt.Sprintf("mem:%d/%s", s.id, w.name)
	case s.baseURL != "":
		// http URLs never carry the at-rest suffix: the data server
		// resolves the at-rest form and negotiates the wire encoding.
		d.URL = s.baseURL + "/" + url.PathEscape(w.sink.flat)
	default:
		d.URL = "file://" + w.form.path
	}
	return d, nil
}

// publish makes the finished bucket visible: a map insert for a RAM
// bucket the budget has room for, a rename of the temp file otherwise.
func (w *Writer) publish() error {
	s, k := w.store, &w.sink
	if s.dir == "" {
		// A memory store's bucket: publish the buffer itself, unpooled.
		data := k.buf.Bytes()
		if data == nil {
			data = []byte{} // non-nil marks a RAM bucket
		}
		s.insertMem(k.flat, w.form, data)
		k.buf = nil
		return nil
	}
	if k.buf != nil {
		if s.insertMem(k.flat, w.form, k.buf.Bytes()) {
			k.releaseBuf()
			return nil
		}
		if err := k.spill(); err != nil {
			return err
		}
	}
	if err := k.f.Close(); err != nil {
		return err
	}
	k.f = nil
	if err := os.Rename(k.tmp, w.form.path); err != nil {
		os.Remove(k.tmp)
		return fmt.Errorf("bucket: publishing %s: %w", w.form.path, err)
	}
	// The file is now the last publish of this name; a RAM copy or an
	// other-form file from an earlier attempt must not shadow it.
	s.mu.Lock()
	s.dropMem(k.flat)
	old := s.files[k.flat]
	s.files[k.flat] = w.form.path
	s.mu.Unlock()
	s.counter(obs.MetricBucketPublishedFile).Add(1)
	if old != "" && old != w.form.path {
		_ = s.unlink(old) // the new file is published either way; GC retries
	}
	return nil
}

// insertMem publishes data as the RAM bucket flat, replacing any earlier
// one, and unlinks an earlier attempt's file of the same name, which
// lookup would otherwise keep finding after the RAM copy goes. It
// refuses (returning false) when an HTTP-serving store's RAM total would
// pass MemStoreBudget; otherwise such a store publishes an exact-size
// copy, since its data is a pooled buffer's.
func (s *Store) insertMem(flat string, form atRest, data []byte) bool {
	s.mu.Lock()
	if s.dir != "" {
		if s.memBytes-int64(len(s.mem[flat].data))+int64(len(data)) > MemStoreBudget {
			s.mu.Unlock()
			return false
		}
		data = append([]byte{}, data...)
	}
	s.dropMem(flat)
	stale, ok := s.files[flat]
	delete(s.files, flat)
	form.data = data
	s.mem[flat] = form
	s.memBytes += int64(len(data))
	s.metrics.Counter(obs.MetricBucketMemInsertedBytes).Add(int64(len(data)))
	s.metrics.Counter(obs.MetricBucketPublishedMem).Add(1)
	s.mu.Unlock()
	if ok {
		_ = s.unlink(stale) // the RAM bucket is published either way; GC retries
	}
	return true
}

// dropMem forgets the RAM bucket flat, if any. Caller holds s.mu.
func (s *Store) dropMem(flat string) bool {
	ar, ok := s.mem[flat]
	if !ok {
		return false
	}
	delete(s.mem, flat)
	s.memBytes -= int64(len(ar.data))
	s.metrics.Counter(obs.MetricBucketMemReleasedBytes).Add(int64(len(ar.data)))
	return true
}

// Put stores a complete pair slice as a bucket in one call.
func (s *Store) Put(name string, pairs []kvio.Pair) (Descriptor, error) {
	w, err := s.Create(name)
	if err != nil {
		return Descriptor{}, err
	}
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			return Descriptor{}, err
		}
	}
	return w.Close()
}

// Remove deletes a local bucket by name from both backings; used when
// datasets are freed between iterations to bound storage. It touches
// the filesystem only for a bucket file the store indexed: a RAM bucket,
// or a name the store never wrote (a freed bucket some other node
// owns), costs no syscall, and an indexed file one unlink.
func (s *Store) Remove(name string) error {
	flat := flatten(name)
	s.mu.Lock()
	s.dropMem(flat)
	path, ok := s.files[flat]
	delete(s.files, flat)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return s.unlink(path)
}

// RemoveFile deletes the bucket file at its exact at-rest path, as a
// file:// URL carries it: one unlink, whichever store in a shared
// directory published it.
func (s *Store) RemoveFile(path string) error {
	flat := flatName(filepath.Base(path))
	s.mu.Lock()
	if s.files[flat] == path {
		delete(s.files, flat)
	}
	s.mu.Unlock()
	return s.unlink(path)
}

// unlink deletes one bucket file, counting the syscall. A file already
// gone is not an error: removal is idempotent.
func (s *Store) unlink(path string) error {
	s.counter(obs.MetricBucketUnlinks).Add(1)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// flatName strips the at-rest suffix from a bucket file name, leaving
// the flat bucket name it was published under.
func flatName(file string) string {
	if i := strings.Index(file, BlockExt); i >= 0 {
		return file[:i]
	}
	return strings.TrimSuffix(file, CompressExt)
}

// jobPrefix is the flat-name prefix of one job's buckets (names
// prefixed "j<job>/"); the separator keeps "j1_" from matching "j10_".
func jobPrefix(job int64) string { return fmt.Sprintf("j%d_", job) }

// jobFiles lists the at-rest files of one job's buckets.
func (s *Store) jobFiles(job int64) ([]string, error) {
	if s.dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	prefix := jobPrefix(job)
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), prefix) {
			out = append(out, filepath.Join(s.dir, e.Name()))
		}
	}
	return out, nil
}

// RemoveJob deletes every local bucket in one job's namespace, from
// both backings and in every at-rest form. This is the slave- and
// master-side reclaim that runs when a job completes. The files are
// listed from the directory, not the index: in a shared directory they
// include the job's buckets every other node wrote. Returns how many
// buckets were removed.
func (s *Store) RemoveJob(job int64) (int, error) {
	n, prefix := 0, jobPrefix(job)
	s.mu.Lock()
	for flat := range s.mem {
		if strings.HasPrefix(flat, prefix) && s.dropMem(flat) {
			n++
		}
	}
	for flat := range s.files {
		if strings.HasPrefix(flat, prefix) {
			delete(s.files, flat)
		}
	}
	s.mu.Unlock()
	files, err := s.jobFiles(job)
	for _, path := range files {
		if rerr := s.unlink(path); rerr != nil {
			if err == nil {
				err = rerr
			}
			continue
		}
		n++
	}
	return n, err
}

// JobBuckets counts the buckets of one job the store holds, in RAM and
// as files.
func (s *Store) JobBuckets(job int64) (int, error) {
	n := 0
	s.mu.Lock()
	for flat := range s.mem {
		if strings.HasPrefix(flat, jobPrefix(job)) {
			n++
		}
	}
	s.mu.Unlock()
	files, err := s.jobFiles(job)
	return n + len(files), err
}

// atRest describes one resolved bucket: its bytes in RAM (data) or in
// the file at path, and the form those bytes take.
type atRest struct {
	path        string
	data        []byte          // non-nil: a RAM bucket holding these bytes
	blockCodec  wirecodec.Codec // non-nil: block-framed, blocks under this codec
	legacyFlate bool            // legacy whole-stream flate
}

// open returns the bucket's at-rest bytes.
func (a atRest) open() (readSeekCloser, error) {
	if a.data != nil {
		return nopCloser{bytes.NewReader(a.data)}, nil
	}
	return os.Open(a.path)
}

type readSeekCloser interface {
	io.ReadSeeker
	io.Closer
}

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

// resolveAtRest finds which at-rest form exists for the plain path:
// the plain legacy file, a block file (any registered codec's suffix),
// or the legacy flate file.
func resolveAtRest(path string) (atRest, error) {
	if _, err := os.Stat(path); err == nil {
		return atRest{path: path}, nil
	}
	for _, name := range wirecodec.Names() {
		c, _ := wirecodec.Lookup(name)
		if p := path + BlockExt + c.Ext(); statOK(p) {
			return atRest{path: p, blockCodec: c}, nil
		}
	}
	if _, err := os.Stat(path + CompressExt); err == nil {
		return atRest{path: path + CompressExt, legacyFlate: true}, nil
	}
	return atRest{}, fmt.Errorf("bucket: %s: %w", path, os.ErrNotExist)
}

func statOK(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// lookup resolves a flat bucket name: RAM first, then the at-rest file.
// It is the one resolution every reader of the store goes through.
func (s *Store) lookup(flat string) (atRest, error) {
	s.mu.Lock()
	ar, ok := s.mem[flat]
	s.mu.Unlock()
	if ok {
		return ar, nil
	}
	if s.dir == "" {
		return atRest{}, fmt.Errorf("bucket: no mem bucket %q", flat)
	}
	return resolveAtRest(filepath.Join(s.dir, flat))
}

// lookupPath resolves a path from ServeName through its store's lookup,
// or straight to the at-rest file when no open store serves its
// directory.
func lookupPath(path string) (atRest, error) {
	servingMu.Lock()
	s := serving[filepath.Dir(path)]
	servingMu.Unlock()
	if s != nil {
		return s.lookup(filepath.Base(path))
	}
	return resolveAtRest(path)
}

// OpenLocal returns a reader for a bucket created by this store,
// undoing any whole-stream compression. Block-framed buckets come back
// verbatim — block compression lives inside the framing and the stream
// is self-describing, so record consumers go through kvio.NewAnyReader.
func (s *Store) OpenLocal(name string) (io.ReadCloser, error) {
	ar, err := s.lookup(flatten(name))
	if err != nil {
		return nil, err
	}
	rc, err := ar.open()
	if err != nil {
		return nil, err
	}
	if ar.legacyFlate {
		return &drainReadCloser{r: deflateCodec().NewReader(rc), under: rc}, nil
	}
	return rc, nil
}

// checkName unescapes a bucket file name as it appears in an http URL
// path and rejects anything that could leave the store directory.
func checkName(escaped string) (string, error) {
	name, err := url.PathUnescape(escaped)
	if err != nil {
		return "", err
	}
	if strings.ContainsAny(name, "/\\") || name == "" || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("bucket: illegal bucket name %q", name)
	}
	return name, nil
}

// ServeName maps an escaped bucket file name (as it appears in an http
// URL path) to the path ServeBucket takes, for use by the data server.
func (s *Store) ServeName(escaped string) (string, error) {
	name, err := checkName(escaped)
	if err != nil {
		return "", err
	}
	if s.dir == "" {
		return "", fmt.Errorf("bucket: memory store cannot serve files")
	}
	return filepath.Join(s.dir, name), nil
}

// Local reports whether rawURL names a bucket of this store that Open
// reads in-process: a mem: URL, or an http URL under the store's own
// base URL.
func (s *Store) Local(rawURL string) bool {
	if strings.HasPrefix(rawURL, "mem:") {
		return true
	}
	_, ok := s.localName(rawURL)
	return ok
}

// localName returns the flat bucket name of an http URL under the
// store's own base URL.
func (s *Store) localName(rawURL string) (string, bool) {
	if s.baseURL == "" {
		return "", false
	}
	rest, ok := strings.CutPrefix(rawURL, s.baseURL+"/")
	if !ok {
		return "", false
	}
	name, err := checkName(rest)
	return name, err == nil
}

// flattener maps the separators of hierarchical bucket names to "_".
var flattener = strings.NewReplacer("/", "_", "\\", "_", "..", "_", ":", "_")

// flatten converts a hierarchical bucket name into a safe flat file name.
func flatten(name string) string { return flattener.Replace(name) }

// ---------------------------------------------------------------------------
// Opening by URL

// HTTPTimeout bounds a single bucket fetch.
const HTTPTimeout = 30 * time.Second

// DefaultTransport is the tuned transport behind the shared bucket
// fetch client. net/http's default of 2 idle connections per host
// serializes connection reuse as soon as fetches run in parallel: with
// prefetch width k, k−2 of the concurrent fetches to one slave would
// tear down and redial on every bucket. Fault-injection wrappers should
// use this as their base RoundTripper so chaos runs keep the same
// connection behavior.
var DefaultTransport = &http.Transport{
	MaxIdleConns:        64,
	MaxIdleConnsPerHost: 16,
	IdleConnTimeout:     90 * time.Second,
}

// httpClient is shared so connections are reused between fetches.
var httpClient = &http.Client{Timeout: HTTPTimeout, Transport: DefaultTransport}

// Open resolves a bucket URL. mem: URLs must belong to this store;
// file:// URLs are opened directly; http:// URLs are fetched with
// bounded retries (transient fetch failures are expected during slave
// churn and must not kill a reduce task immediately). Whole-stream
// compression (a legacy CompressExt suffix or a deflate
// Content-Encoding) is transparently undone; block-framed streams come
// back verbatim — their compression lives inside the framing, which
// kvio.NewAnyReader decodes — so wire-byte counters see the compressed
// size either way and record consumers the decoded size.
func (s *Store) Open(rawURL string) (io.ReadCloser, error) {
	switch {
	case strings.HasPrefix(rawURL, "mem:"):
		rest := strings.TrimPrefix(rawURL, "mem:")
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return nil, fmt.Errorf("bucket: malformed mem URL %q", rawURL)
		}
		if fmt.Sprintf("%d", s.id) != rest[:slash] {
			return nil, fmt.Errorf("bucket: mem URL %q belongs to another store", rawURL)
		}
		return s.OpenLocal(rest[slash+1:])
	case strings.HasPrefix(rawURL, "file://"):
		path := strings.TrimPrefix(rawURL, "file://")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rc := s.counting(f, obs.MetricWireBytesShared, fileCodecName(path))
		// ".mrb.fz" ends in ".fz" too, but block files carry no outer
		// compression layer — only a bare CompressExt means legacy flate.
		if !strings.Contains(path, BlockExt) && strings.HasSuffix(path, CompressExt) {
			return &drainReadCloser{r: deflateCodec().NewReader(rc), under: rc}, nil
		}
		return rc, nil
	case strings.HasPrefix(rawURL, "http://"), strings.HasPrefix(rawURL, "https://"):
		if name, ok := s.localName(rawURL); ok {
			// Our own bucket: no loopback round trip, and no wire bytes.
			s.counter(obs.MetricBucketLocalOpens).Add(1)
			return s.OpenLocal(name)
		}
		return s.openHTTP(rawURL)
	}
	return nil, fmt.Errorf("bucket: unsupported URL %q", rawURL)
}

// FetchRetries is how many times an http bucket fetch is attempted.
const FetchRetries = 5

func (s *Store) openHTTP(rawURL string) (io.ReadCloser, error) {
	// Jitter is seeded from the URL so a given fetch's retry schedule is
	// reproducible while distinct fetches desynchronize (no retry storms
	// hammering a recovering slave in lockstep).
	retry := fault.NewBackoff(hash.FNV1a64String(rawURL))
	client := s.fetchClient()
	var lastErr error
	for attempt := 1; attempt <= FetchRetries; attempt++ {
		if attempt > 1 {
			time.Sleep(retry.Delay(attempt - 1))
		}
		req, err := http.NewRequest(http.MethodGet, rawURL, nil)
		if err != nil {
			return nil, err
		}
		// Advertise every registered block codec so a block-serving peer
		// can send (or cheaply transcode to) the best mutual one, and
		// deflate so a legacy compressing server can send its at-rest
		// bytes verbatim. Servers that know neither header ignore both
		// and serve identity — the mixed-version fallback.
		req.Header.Set(wirecodec.RequestHeader, wirecodec.AcceptHeader())
		req.Header.Set("Accept-Encoding", "deflate")
		resp, err := client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			lastErr = fmt.Errorf("bucket: GET %s: %s", rawURL, resp.Status)
			if resp.StatusCode == http.StatusNotFound {
				// The bucket is gone (slave died and restarted); no
				// point hammering.
				return nil, lastErr
			}
			continue
		}
		// Per-codec accounting: a block response names its codec in
		// CodecHeader; a legacy response is deflate or identity per
		// Content-Encoding.
		codecName := resp.Header.Get(wirecodec.CodecHeader)
		deflated := resp.Header.Get("Content-Encoding") == "deflate"
		if codecName == "" {
			codecName = wirecodec.IdentityName
			if deflated {
				codecName = wirecodec.DeflateName
			}
		}
		rc := s.counting(resp.Body, obs.MetricWireBytesDirect, codecName)
		if deflated {
			return &drainReadCloser{r: deflateCodec().NewReader(rc), under: rc}, nil
		}
		return rc, nil
	}
	return nil, lastErr
}

// countingReadCloser adds every byte read to the wire counters: the
// per-path total and the per-codec split.
type countingReadCloser struct {
	rc io.ReadCloser
	c  *obs.Counter
	c2 *obs.Counter
}

func (c *countingReadCloser) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	if n > 0 {
		c.c.Add(int64(n))
		c.c2.Add(int64(n))
	}
	return n, err
}

func (c *countingReadCloser) Close() error { return c.rc.Close() }

// drainReadCloser decompresses a whole-stream codec layer and closes
// both layers.
type drainReadCloser struct {
	r     io.ReadCloser // the codec layer
	under io.ReadCloser
}

func (f *drainReadCloser) Read(p []byte) (int, error) { return f.r.Read(p) }

func (f *drainReadCloser) Close() error {
	// flate knows the stream ended from the final-block bit without ever
	// observing the underlying reader's EOF, so an HTTP response body
	// would look partially read and the connection would be torn down
	// instead of returned to the keep-alive pool. Drain the (normally
	// zero) remainder so the transport sees EOF and reuses the socket.
	io.CopyN(io.Discard, f.under, 512)
	if f.r != nil {
		f.r.Close() // recycles the codec's pooled state
		f.r = nil
	}
	return f.under.Close()
}

// remote reports whether Open fetches rawURL over the network.
func (s *Store) remote(rawURL string) bool {
	return (strings.HasPrefix(rawURL, "http://") || strings.HasPrefix(rawURL, "https://")) && !s.Local(rawURL)
}

// Fetch reads an entire bucket into memory. Unlike Open, a remote fetch
// that dies mid-stream is retried whole — the caller gets either the
// complete payload or an error, which is what the parallel prefetcher
// needs (a half-delivered bucket cannot be resumed).
//
// The returned slice is freshly allocated and owned by the caller: it is
// never pooled or reused by the store, so callers may retain it
// indefinitely (the resident dataset cache depends on this).
func (s *Store) Fetch(rawURL string) ([]byte, error) {
	remote := s.remote(rawURL)
	retry := fault.NewBackoff(hash.FNV1a64String(rawURL) + 2)
	var lastErr error
	for attempt := 1; attempt <= FetchRetries; attempt++ {
		if attempt > 1 {
			time.Sleep(retry.Delay(attempt - 1))
		}
		rc, err := s.Open(rawURL)
		if err != nil {
			return nil, err // Open already retried transport errors
		}
		data, err := readAll(rc)
		rc.Close()
		if err == nil {
			return data, nil
		}
		lastErr = fmt.Errorf("bucket: fetching %s: %w", rawURL, err)
		if !remote {
			return nil, lastErr // local reads don't heal by retrying
		}
	}
	return nil, lastErr
}

// readAll reads r to the end in one exact-size allocation when r knows
// its length (a RAM bucket opened locally), and by io.ReadAll otherwise.
func readAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		data := make([]byte, l.Len())
		_, err := io.ReadFull(r, data)
		return data, err
	}
	return io.ReadAll(r)
}

// acceptsDeflate reports whether the request allows a deflate response.
func acceptsDeflate(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if enc == "deflate" {
			return true
		}
	}
	return false
}

// ServeBucket writes the bucket at path (as resolved by ServeName) to an
// HTTP response. The path resolves through the serving store's lookup,
// so a RAM bucket and a file bucket take the same arms with the same
// bytes. The wire form is negotiated per at-rest variant:
//
//   - plain legacy bucket: served verbatim (every client reads it).
//   - legacy flate bucket: verbatim with Content-Encoding: deflate when
//     the client accepts deflate (zero-CPU wire compression), otherwise
//     decompressed into the response.
//   - block bucket: verbatim with CodecHeader set when the client's
//     advertised codec list (RequestHeader) includes the at-rest codec;
//     transcoded block-to-block to the best mutual codec otherwise
//     (identity fallback — a client advertising only unknown codecs
//     still gets blocks it can decode); flattened to a legacy record
//     stream for clients that sent no codec advertisement at all,
//     deflate-wrapped when they accept it. Mixed-version fleets always
//     land on a form both sides speak.
//
// A re-encoding arm that hits a read or decode error mid-body aborts
// the response (see abortOn), so the client never mistakes a prefix of
// the bucket for all of it.
func ServeBucket(w http.ResponseWriter, r *http.Request, path string) {
	ar, err := lookupPath(path)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	rs, err := ar.open()
	if err != nil {
		http.NotFound(w, r)
		return
	}
	defer rs.Close()
	switch {
	case ar.blockCodec != nil:
		serveBlockBucket(w, r, ar, rs)
	case !ar.legacyFlate:
		http.ServeContent(w, r, "", time.Time{}, rs)
	case acceptsDeflate(r):
		w.Header().Set("Content-Encoding", "deflate")
		setContentLength(w, rs)
		io.Copy(w, rs)
	default:
		fr := deflateCodec().NewReader(rs)
		_, err := io.Copy(w, fr)
		fr.Close()
		abortOn(err)
	}
}

// setContentLength announces the size of an at-rest body sent verbatim.
func setContentLength(w http.ResponseWriter, rs io.Seeker) {
	n, err := rs.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = rs.Seek(0, io.SeekStart)
	}
	if err == nil {
		w.Header().Set("Content-Length", fmt.Sprint(n))
	}
}

// serveBlockBucket serves one block-framed bucket in the wire form the
// client's codec advertisement (RequestHeader) lets it decode.
func serveBlockBucket(w http.ResponseWriter, r *http.Request, ar atRest, rs io.ReadSeeker) {
	accepted := wirecodec.ParseAccept(r.Header.Get(wirecodec.RequestHeader))
	switch {
	case wirecodec.Accepts(accepted, ar.blockCodec.Name()):
		// Best case: the at-rest bytes are already in a codec the client
		// decodes — send them verbatim, zero CPU. The client checks each
		// block's CRC.
		w.Header().Set(wirecodec.CodecHeader, ar.blockCodec.Name())
		setContentLength(w, rs)
		io.Copy(w, rs)
	case len(accepted) > 0:
		// A block-capable client that can't decode the at-rest codec:
		// transcode block-to-block into the best mutual codec. Unknown
		// advertised names fall through to identity inside Negotiate, so
		// this arm is also the forward-compatibility path.
		to := wirecodec.Negotiate(accepted)
		w.Header().Set(wirecodec.CodecHeader, to.Name())
		abortOn(kvio.TranscodeBlocks(w, rs, to))
	case acceptsDeflate(r):
		// Pre-block client that speaks the legacy deflate negotiation:
		// flatten blocks to a record stream under Content-Encoding. On
		// error the flate stream is left unterminated: a final block
		// would let the client's decompressor end cleanly.
		w.Header().Set("Content-Encoding", "deflate")
		cw := deflateCodec().NewWriter(w)
		abortOn(kvio.TranscodeToRecords(cw, rs))
		cw.Close()
	default:
		// Identity legacy client.
		abortOn(kvio.TranscodeToRecords(w, rs))
	}
}

// abortOn aborts the response when re-encoding an at-rest bucket failed
// (a corrupt block, a short read). Headers and part of the body may
// already be sent, so an error status is impossible; panicking with
// http.ErrAbortHandler drops the connection without the response's
// clean end, and the client's read fails instead of seeing a bucket
// silently truncated at the bad block.
func abortOn(err error) {
	if err != nil {
		panic(http.ErrAbortHandler)
	}
}

// ReadAll opens a URL and decodes every record. Remote fetches that die
// mid-stream (connection dropped partway through the body) are retried
// whole, since a partial record stream is useless to the caller.
func (s *Store) ReadAll(rawURL string) ([]kvio.Pair, error) {
	remote := s.remote(rawURL)
	retry := fault.NewBackoff(hash.FNV1a64String(rawURL) + 1)
	var lastErr error
	for attempt := 1; attempt <= FetchRetries; attempt++ {
		if attempt > 1 {
			time.Sleep(retry.Delay(attempt - 1))
		}
		rc, err := s.Open(rawURL)
		if err != nil {
			return nil, err // Open already retried transport errors
		}
		// Sniffing reader: the stream may be either framing depending on
		// the producer's codec setting and the server's negotiation.
		r := kvio.NewAnyReader(rc)
		pairs, err := r.ReadAll()
		r.Release()
		rc.Close()
		if err == nil {
			return pairs, nil
		}
		lastErr = fmt.Errorf("bucket: reading %s: %w", rawURL, err)
		if !remote {
			return nil, lastErr // local reads don't heal by retrying
		}
	}
	return nil, lastErr
}

// ReadAllMulti concatenates the records of several buckets in order.
func (s *Store) ReadAllMulti(urls []string) ([]kvio.Pair, error) {
	var out []kvio.Pair
	for _, u := range urls {
		pairs, err := s.ReadAll(u)
		if err != nil {
			return nil, err
		}
		out = append(out, pairs...)
	}
	return out, nil
}
