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
//
// Every store writes a bucket in one form, kvio identity row blocks,
// and a bucket crosses the wire exactly as it rests: the data server
// sends its at-rest bytes verbatim and the reader checks each block's
// CRC. A bucket is read in that form only; bytes without the block
// magic are refused. Fetch reads a bucket whole: an own RAM bucket as
// its read-only published bytes, a file in one read of its size, an
// http body of known length exactly.
package bucket

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/hash"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// BlockExt is the at-rest suffix of a bucket file, which holds kvio
// block framing, the one form every store writes. A store publishes,
// indexes and resolves only files with it.
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

	mu       sync.Mutex
	mem      map[string]atRest // RAM buckets by flat name
	memBytes int64             // total payload of mem
	files    map[string]string // file buckets by flat name: exact at-rest path
	client   *http.Client      // overrides the shared fetch client (fault injection)
	metrics  *obs.Metrics      // wire-byte counters (nil-safe)
	// sleep waits between fetch retries (nil = time.Sleep); tests set
	// it to observe retry delays.
	sleep func(time.Duration)
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
		name := e.Name()
		if flat, ok := strings.CutSuffix(name, BlockExt); ok && !e.IsDir() && !strings.HasPrefix(name, ".") {
			s.files[flat] = filepath.Join(dir, name)
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

// SetMetrics wires the registry that receives the store's wire-byte and
// publish counters. A nil registry (the default) discards them.
func (s *Store) SetMetrics(m *obs.Metrics) {
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
	obs.RegisterBucketMemGauge(m)
}

// counter returns the named counter of the wired registry (nil, a no-op,
// when metrics are not wired).
func (s *Store) counter(metric string) *obs.Counter {
	s.mu.Lock()
	m := s.metrics
	s.mu.Unlock()
	return m.Counter(metric)
}

// counting wraps rc so every wire byte lands in the per-path counter.
func (s *Store) counting(rc io.ReadCloser, pathMetric string) io.ReadCloser {
	return &countingReadCloser{rc: rc, c: s.counter(pathMetric)}
}

// InMemory reports whether this store keeps buckets in memory.
func (s *Store) InMemory() bool { return s.dir == "" }

// Writer accumulates one bucket's records. The encoded bytes land in a
// RAM buffer or a temp file, whichever backing the store gives the
// bucket (see sink), and Close publishes them.
type Writer struct {
	store *Store
	name  string
	form  atRest // at-rest form: file path, suffix included
	sink  sink

	bw     *kvio.BlockWriter
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

// Create starts a new bucket with the given store-relative name, in
// block framing. Name components are sanitized into a flat, safe file
// name, published with the BlockExt suffix. Every store writes the
// same bytes for the same records: a memory store's bucket, an
// HTTP-serving store's RAM bucket and a bucket file are identical.
func (s *Store) Create(name string) (*Writer, error) {
	if name == "" {
		return nil, fmt.Errorf("bucket: empty bucket name")
	}
	flat := flatten(name)
	w := &Writer{store: s, name: name, sink: sink{store: s, flat: flat}}
	switch {
	case s.dir == "":
		w.sink.buf = new(bytes.Buffer)
	case s.baseURL != "":
		w.sink.buf = bufPool.Get().(*bytes.Buffer)
	default:
		if err := w.sink.openFile(); err != nil {
			return nil, err
		}
	}
	if s.dir != "" {
		w.form.path = filepath.Join(s.dir, flat) + BlockExt
	}
	w.bw = kvio.NewBlockWriter(&w.sink, kvio.DefaultBlockSize)
	return w, nil
}

// Write appends one record to the bucket.
func (w *Writer) Write(p kvio.Pair) error {
	if w.closed {
		return fmt.Errorf("bucket: write after close")
	}
	return w.bw.Write(p)
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
	d := Descriptor{Name: w.name, Records: w.bw.Count(), Bytes: w.bw.Bytes()}
	err := w.bw.Close()
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
		// adds it.
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
	// The file is now the last publish of this name; a RAM copy from an
	// earlier attempt must not shadow it.
	s.mu.Lock()
	s.dropMem(k.flat)
	s.files[k.flat] = w.form.path
	s.mu.Unlock()
	s.counter(obs.MetricBucketPublishedFile).Add(1)
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
	flat := strings.TrimSuffix(filepath.Base(path), BlockExt)
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
// both backings. This is the slave- and master-side reclaim that runs
// when a job completes. The files are listed from the directory, not
// the index: in a shared directory they include the job's buckets every
// other node wrote, and any file of the job's an older build left under
// another suffix. Returns how many buckets were removed.
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
// the file at path.
type atRest struct {
	path string
	data []byte // non-nil: a RAM bucket holding these bytes
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

// resolveAtRest finds the bucket file, path + BlockExt, of a plain
// bucket path no store has indexed.
func resolveAtRest(path string) (atRest, error) {
	if _, err := os.Stat(path + BlockExt); err != nil {
		return atRest{}, fmt.Errorf("bucket: %s: %w", path, os.ErrNotExist)
	}
	return atRest{path: path + BlockExt}, nil
}

// lookup resolves a flat bucket name: RAM first, then the file the
// store indexed when it published or found it, then a probe of the
// directory for a file it has not indexed. It is the one resolution
// every reader of the store goes through.
func (s *Store) lookup(flat string) (atRest, error) {
	s.mu.Lock()
	ar, ok := s.mem[flat]
	if path, indexed := s.files[flat]; !ok && indexed {
		ar, ok = atRest{path: path}, true
	}
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

// OpenLocal returns the at-rest bytes of a bucket created by this
// store, a kvio block stream that kvio.NewAnyReader decodes.
func (s *Store) OpenLocal(name string) (io.ReadCloser, error) {
	ar, err := s.lookup(flatten(name))
	if err != nil {
		return nil, err
	}
	return ar.open()
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
// tear down and redial on every bucket. Compression is off because
// buckets travel as they rest: net/http would otherwise ask for gzip.
// Fault-injection wrappers should use this as their base RoundTripper
// so chaos runs keep the same connection behavior.
var DefaultTransport = &http.Transport{
	MaxIdleConns:        64,
	MaxIdleConnsPerHost: 16,
	IdleConnTimeout:     90 * time.Second,
	DisableCompression:  true,
}

// httpClient is shared so connections are reused between fetches.
var httpClient = &http.Client{Timeout: HTTPTimeout, Transport: DefaultTransport}

// Open resolves a bucket URL. mem: URLs must belong to this store;
// file:// URLs are opened directly; http:// URLs are fetched with
// bounded retries (transient fetch failures are expected during slave
// churn and must not kill a reduce task immediately). Every stream
// comes back as the bucket rests, a kvio block stream, so wire-byte
// counters see the at-rest size, framing included.
func (s *Store) Open(rawURL string) (io.ReadCloser, error) {
	if ar, ok, err := s.resolveLocal(rawURL); ok {
		if err != nil {
			return nil, err
		}
		return ar.open()
	}
	switch {
	case strings.HasPrefix(rawURL, "file://"):
		f, err := os.Open(strings.TrimPrefix(rawURL, "file://"))
		if err != nil {
			return nil, err
		}
		return s.counting(f, obs.MetricWireBytesShared), nil
	case strings.HasPrefix(rawURL, "http://"), strings.HasPrefix(rawURL, "https://"):
		return s.openHTTP(rawURL)
	}
	return nil, fmt.Errorf("bucket: unsupported URL %q", rawURL)
}

// resolveLocal resolves a URL the store reads in-process: a mem: URL,
// which must be its own, or an http URL under its own base URL, which
// counts as a local open. ok is false for any other URL.
func (s *Store) resolveLocal(rawURL string) (ar atRest, ok bool, err error) {
	if rest, mem := strings.CutPrefix(rawURL, "mem:"); mem {
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return ar, true, fmt.Errorf("bucket: malformed mem URL %q", rawURL)
		}
		if strconv.Itoa(s.id) != rest[:slash] {
			return ar, true, fmt.Errorf("bucket: mem URL %q belongs to another store", rawURL)
		}
		ar, err = s.lookup(flatten(rest[slash+1:]))
		return ar, true, err
	}
	name, ok := s.localName(rawURL)
	if !ok {
		return ar, false, nil
	}
	// Our own bucket: no loopback round trip, and no wire bytes.
	s.counter(obs.MetricBucketLocalOpens).Add(1)
	ar, err = s.lookup(flatten(name))
	return ar, true, err
}

// FetchRetries is how many times an http bucket fetch is attempted.
const FetchRetries = 5

// retrySchedule paces the attempts of one fetch. Jitter is seeded from
// the URL so a given fetch's retry schedule is reproducible while
// distinct fetches desynchronize (no retry storms hammering a
// recovering slave in lockstep). The Backoff, whose generator carries
// 2.5 KB of state, is built at the first retry, so a fetch that
// succeeds first time seeds none.
type retrySchedule struct {
	seed  uint64
	sleep func(time.Duration)
	b     *fault.Backoff
}

// retries returns the retry schedule of one fetch whose jitter is
// seeded by seed.
func (s *Store) retries(seed uint64) retrySchedule {
	sleep := s.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	return retrySchedule{seed: seed, sleep: sleep}
}

// wait sleeps before 1-based attempt; the first attempt does not wait.
func (r *retrySchedule) wait(attempt int) {
	if attempt == 1 {
		return
	}
	if r.b == nil {
		r.b = fault.NewBackoff(r.seed)
	}
	r.sleep(r.b.Delay(attempt - 1))
}

func (s *Store) openHTTP(rawURL string) (io.ReadCloser, error) {
	retry := s.retries(hash.FNV1a64String(rawURL))
	client := s.fetchClient()
	var lastErr error
	for attempt := 1; attempt <= FetchRetries; attempt++ {
		retry.wait(attempt)
		resp, err := client.Get(rawURL)
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
		s.counter(obs.MetricBucketHTTPFetches).Add(1)
		rc := s.counting(resp.Body, obs.MetricWireBytesDirect)
		if resp.ContentLength >= 0 {
			return &sizedBody{ReadCloser: rc, size: resp.ContentLength}, nil
		}
		return rc, nil
	}
	return nil, lastErr
}

// sizedBody is a response body whose Content-Length is known, so
// readAll can read it into one exact-size buffer.
type sizedBody struct {
	io.ReadCloser
	size int64
}

func (b *sizedBody) Size() int64 { return b.size }

// countingReadCloser adds every byte read to a wire counter.
type countingReadCloser struct {
	rc io.ReadCloser
	c  *obs.Counter
}

func (c *countingReadCloser) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	if n > 0 {
		c.c.Add(int64(n))
	}
	return n, err
}

func (c *countingReadCloser) Close() error { return c.rc.Close() }

// Fetch reads an entire bucket into memory. Unlike Open, a remote fetch
// that dies mid-stream is retried whole — the caller gets either the
// complete payload or an error, which is what the parallel prefetcher
// needs (a half-delivered bucket cannot be resumed). A file bucket, the
// store's own or a file:// one, is read in one read of its size.
//
// The returned slice is read-only and may be shared: an own RAM
// bucket's published bytes come back as they are, and a fresh buffer
// may be cached for later tasks (the resident dataset cache does). The
// store never pools, reuses or writes either, so callers may retain
// them indefinitely.
func (s *Store) Fetch(rawURL string) ([]byte, error) {
	data, _, err := s.fetch(rawURL)
	return data, err
}

// fetch is Fetch, also reporting whether data are an own RAM bucket's
// published bytes rather than a buffer of the caller's.
func (s *Store) fetch(rawURL string) (data []byte, shared bool, err error) {
	var path string
	ar, local, err := s.resolveLocal(rawURL)
	switch {
	case local && (err != nil || ar.data != nil):
		return ar.data, true, err
	case local:
		path = ar.path
	case strings.HasPrefix(rawURL, "file://"):
		path = strings.TrimPrefix(rawURL, "file://")
	}
	if path != "" {
		if data, err = readFile(path); err != nil {
			return nil, false, fmt.Errorf("bucket: fetching %s: %w", rawURL, err)
		}
		if !local {
			s.counter(obs.MetricWireBytesShared).Add(int64(len(data)))
		}
		return data, false, nil
	}
	retry := s.retries(hash.FNV1a64String(rawURL) + 2)
	for attempt := 1; attempt <= FetchRetries; attempt++ {
		retry.wait(attempt)
		rc, oerr := s.Open(rawURL)
		if oerr != nil {
			return nil, false, oerr // Open already retried transport errors
		}
		data, err = readAll(rc)
		rc.Close()
		if err == nil {
			return data, false, nil
		}
		err = fmt.Errorf("bucket: fetching %s: %w", rawURL, err)
	}
	return nil, false, err
}

// readFile reads a bucket file in one read of the size Stat reports.
func readFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}

// readAll reads a fetched HTTP body to the end, in one exact-size
// allocation when it has a Content-Length and by io.ReadAll otherwise.
func readAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Size() int64 }); ok {
		data := make([]byte, l.Size())
		_, err := io.ReadFull(r, data)
		return data, err
	}
	return io.ReadAll(r)
}

// ServeBucket writes the bucket at path (as resolved by ServeName) to an
// HTTP response: its at-rest bytes verbatim, with Content-Length, in
// whichever backing the serving store's lookup finds it; no request
// header changes the response. Integrity is the client's to check: the
// block CRCs and lengths catch a corrupt or truncated body when it is
// decoded.
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
	n, err := rs.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = rs.Seek(0, io.SeekStart)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	// CopyN, not Copy: net/http sends a size-limited *os.File with
	// sendfile, while io.Copy would go through os.File.WriteTo, which
	// hides the file from it.
	io.CopyN(w, rs, n)
}

// ReadAll fetches a bucket whole and decodes every record; on an error
// it returns no records. It is AppendAll(nil, rawURL).
func (s *Store) ReadAll(rawURL string) ([]kvio.Pair, error) {
	return s.AppendAll(nil, rawURL)
}

// AppendAll fetches a bucket whole and appends every record to dst,
// returning the extended slice; on an error it returns dst unextended.
// The pairs alias one buffer per bucket, which the caller owns: the
// fetched one, or a copy of an own RAM bucket's published bytes.
func (s *Store) AppendAll(dst []kvio.Pair, rawURL string) ([]kvio.Pair, error) {
	data, shared, err := s.fetch(rawURL)
	if err != nil {
		return dst, err
	}
	if shared {
		data = bytes.Clone(data)
	}
	out := dst
	err = kvio.Walk(data, func(k, v []byte) error {
		out = append(out, kvio.Pair{Key: k[:len(k):len(k)], Value: v[:len(v):len(v)]})
		return nil
	})
	if err != nil {
		return dst, fmt.Errorf("bucket: reading %s: %w", rawURL, err)
	}
	return out, nil
}
