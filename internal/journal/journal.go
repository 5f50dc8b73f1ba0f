// Package journal is the master's write-ahead log of job lifecycle
// state — the piece that turns the runtime into a durable job service.
// Everything a restarted master needs to pick a job back up is recorded
// as it happens: job submissions (with a hash of the submitted program
// so a resume cannot silently attach a different driver), task
// completions with their output bucket manifests, job completion and
// failure, and tenant fair-share weight changes.
//
// The on-disk format is deliberately boring. The log is an append-only
// file of length-prefixed, checksummed records:
//
//	8-byte magic "MRSJRNL1"
//	repeated { uint32 LE payload length | uint32 LE CRC-32C | JSON payload }
//
// Periodically the journal compacts: the folded State is written to a
// checkpoint file (same magic, one record) via the classic
// tmp+fsync+rename dance, and the log is truncated back to its header.
// Replay therefore applies the checkpoint (if intact) and then re-plays
// the log tail; Apply is idempotent, so the crash window between
// checkpoint rename and log truncation — where the log still holds
// events the checkpoint already folded in — replays harmlessly.
//
// Corruption never panics and never loses the intact prefix: a torn
// final record (the normal shape of a crash mid-append), a flipped
// checksum byte, or garbage simply ends replay at the last record that
// framed and checksummed correctly, and Open truncates the tear away so
// new appends start from a clean boundary. A corrupt checkpoint is
// ignored entirely and replay falls back to whatever the log holds.
//
// A lock file (flock) makes double-recovery fail fast: two live masters
// replaying one directory would both believe they own the fleet. A
// crashed process releases the lock with its file descriptors, so
// recovery after a real crash needs no manual unlocking.
//
// Timestamps and the periodic checkpoint ticker come from the
// injectable clock (internal/clock), keeping recovery tests fully
// deterministic.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/bucket"
	"repro/internal/clock"
	"repro/internal/hash"
	"repro/internal/obs"
)

// File names inside a journal directory.
const (
	LogName        = "journal.log"
	CheckpointName = "checkpoint"
	LockName       = "LOCK"
)

// magic identifies journal files (log and checkpoint alike).
var magic = []byte("MRSJRNL1")

// maxRecordLen bounds one record's payload, guarding replay against a
// corrupt length prefix claiming gigabytes.
const maxRecordLen = 64 << 20

// DefaultCheckpointRecords is how many appended records trigger a
// compaction when Options.CheckpointRecords is zero.
const DefaultCheckpointRecords = 1024

// castagnoli is the CRC-32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Event kinds.
const (
	EvJobSubmitted = "job_submitted"
	EvTaskDone     = "task_done"
	EvJobDone      = "job_done"
	EvJobFailed    = "job_failed"
	EvJobWeight    = "job_weight"
	// EvMasterStarted numbers a master start on this journal.
	EvMasterStarted = "master_started"
)

// Job lifecycle states as folded into a JobRecord.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Manifest describes one output bucket of a journaled task completion —
// exactly a bucket.Descriptor, kept as its own type so the wire format
// of the journal is explicit and fuzzable in isolation.
type Manifest struct {
	Name    string `json:"name,omitempty"`
	URL     string `json:"url"`
	Records int64  `json:"records,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// Descriptor converts the manifest back to the store's descriptor type.
func (m Manifest) Descriptor() bucket.Descriptor {
	return bucket.Descriptor{Name: m.Name, URL: m.URL, Records: m.Records, Bytes: m.Bytes}
}

// FromDescriptors converts task outputs into journal manifests.
func FromDescriptors(descs []bucket.Descriptor) []Manifest {
	out := make([]Manifest, len(descs))
	for i, d := range descs {
		out[i] = Manifest{Name: d.Name, URL: d.URL, Records: d.Records, Bytes: d.Bytes}
	}
	return out
}

// Event is one journal record. Only the fields relevant to the Kind are
// set; unknown kinds replay as no-ops so older masters can read logs
// written by newer ones.
type Event struct {
	Kind string `json:"kind"`
	// Job is the managed job the event belongs to.
	Job int64 `json:"job,omitempty"`
	// Name and SpecHash identify the submitted program (EvJobSubmitted).
	Name     string `json:"name,omitempty"`
	SpecHash string `json:"spec_hash,omitempty"`
	// Dataset/Task key a completion; Outputs are its bucket manifests and
	// InBytes its consumed input bytes (EvTaskDone).
	Dataset int        `json:"dataset,omitempty"`
	Task    int        `json:"task,omitempty"`
	Outputs []Manifest `json:"outputs,omitempty"`
	InBytes int64      `json:"in_bytes,omitempty"`
	// Node is the control-plane node that reported the completion
	// (EvTaskDone; "" in logs from pre-hierarchy masters).
	Node string `json:"node,omitempty"`
	// Weight is the job's new fair-share weight (EvJobWeight).
	Weight int `json:"weight,omitempty"`
	// Error is the failure message (EvJobFailed).
	Error string `json:"error,omitempty"`
	// Incarnation is the number of the master start (EvMasterStarted).
	Incarnation int64 `json:"incarnation,omitempty"`
	// UnixNano is the clock stamp assigned at append time.
	UnixNano int64 `json:"t,omitempty"`
}

// SpecHash fingerprints a job submission: resuming a journaled job
// requires presenting the same name and driver shape, so a client
// cannot silently reattach a different program to a half-finished job.
func SpecHash(name string, pipeline bool) string {
	s := name
	if pipeline {
		s += "|pipelined"
	}
	return fmt.Sprintf("%016x", hash.FNV1a64String(s))
}

// TaskKey names a task within a job's record map: dataset (queue
// position, deterministic across re-drives of the same program) and
// task index within the operation.
func TaskKey(dataset, task int) string {
	return fmt.Sprintf("d%d.t%d", dataset, task)
}

// JobRecord is the folded state of one journaled job.
type JobRecord struct {
	ID       int64  `json:"id"`
	Name     string `json:"name,omitempty"`
	SpecHash string `json:"spec_hash,omitempty"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	// Weight is the job's last journaled fair-share weight (0 = default).
	Weight int `json:"weight,omitempty"`
	// TasksDone and ShuffleBytes restore the job's control-plane stats
	// on recovery, so a recovered master reports the same JobStats a
	// never-crashed one would.
	TasksDone    int64 `json:"tasks_done,omitempty"`
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
	// NodeTasks counts completions per reporting node (slave or
	// sub-master), so mrs-submit -list-jobs can show how work spread
	// over the fleet; empty for logs from pre-hierarchy masters.
	NodeTasks map[string]int64 `json:"node_tasks,omitempty"`
	// Tasks maps TaskKey(dataset, task) to the completion's output
	// bucket manifests; cleared once the job finishes (its data is
	// reclaimed fleet-wide then, so the manifests dangle).
	Tasks map[string][]Manifest `json:"tasks,omitempty"`
}

// TaskOutputs returns the journaled manifests for one completed task
// (nil if the task never completed).
func (jr *JobRecord) TaskOutputs(dataset, task int) []Manifest {
	if jr == nil {
		return nil
	}
	return jr.Tasks[TaskKey(dataset, task)]
}

// State is the compacted view of a journal: every job it has seen and
// the highest job id issued, which seeds the restarted manager's id
// counter so resumed and fresh jobs never collide.
type State struct {
	MaxJobID int64                `json:"max_job_id,omitempty"`
	Jobs     map[int64]*JobRecord `json:"jobs,omitempty"`
	// Incarnation is the highest master start recorded: a restarted
	// master numbers itself one past it, so no two masters of one
	// journal hand out the same node ids.
	Incarnation int64 `json:"incarnation,omitempty"`
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Jobs: map[int64]*JobRecord{}}
}

// Job returns the record for a job id (nil if unknown).
func (s *State) Job(id int64) *JobRecord {
	if s == nil {
		return nil
	}
	return s.Jobs[id]
}

func (s *State) jobRecord(id int64) *JobRecord {
	jr, ok := s.Jobs[id]
	if !ok {
		jr = &JobRecord{ID: id, State: JobRunning, Tasks: map[string][]Manifest{}}
		s.Jobs[id] = jr
	}
	if id > s.MaxJobID {
		s.MaxJobID = id
	}
	return jr
}

// Apply folds one event into the state. Apply is idempotent — replaying
// any prefix of the log on top of a checkpoint that already contains it
// converges to the same state — and tolerant: events for unknown kinds
// or out-of-order jobs never error, they just contribute what they can.
func (s *State) Apply(ev Event) {
	if ev.Kind == EvMasterStarted {
		if ev.Incarnation > s.Incarnation {
			s.Incarnation = ev.Incarnation
		}
		return
	}
	if ev.Job == 0 && ev.Kind != "" {
		// Job 0 is the unmanaged single-job namespace; it is never
		// journaled (nothing can resume it), so nothing to fold.
		return
	}
	switch ev.Kind {
	case EvJobSubmitted:
		jr := s.jobRecord(ev.Job)
		if jr.Name == "" {
			jr.Name = ev.Name
		}
		if jr.SpecHash == "" {
			jr.SpecHash = ev.SpecHash
		}
	case EvTaskDone:
		jr := s.jobRecord(ev.Job)
		if jr.State != JobRunning {
			// The job already finished (and its buckets were reclaimed);
			// a replayed pre-checkpoint completion must not resurrect
			// dangling manifests.
			return
		}
		key := TaskKey(ev.Dataset, ev.Task)
		if _, dup := jr.Tasks[key]; !dup {
			jr.TasksDone++
			jr.ShuffleBytes += ev.InBytes
			if ev.Node != "" {
				if jr.NodeTasks == nil {
					jr.NodeTasks = map[string]int64{}
				}
				jr.NodeTasks[ev.Node]++
			}
		}
		jr.Tasks[key] = append([]Manifest(nil), ev.Outputs...)
	case EvJobDone:
		jr := s.jobRecord(ev.Job)
		jr.State = JobDone
		jr.Tasks = nil
	case EvJobFailed:
		jr := s.jobRecord(ev.Job)
		jr.State = JobFailed
		jr.Error = ev.Error
		jr.Tasks = nil
	case EvJobWeight:
		s.jobRecord(ev.Job).Weight = ev.Weight
	}
}

// Clone deep-copies the state (JSON round trip: the state is small and
// this cannot drift from the serialized form).
func (s *State) Clone() *State {
	blob, err := json.Marshal(s)
	if err != nil {
		return NewState()
	}
	out := NewState()
	if err := json.Unmarshal(blob, out); err != nil {
		return NewState()
	}
	if out.Jobs == nil {
		out.Jobs = map[int64]*JobRecord{}
	}
	return out
}

// Options tunes a journal.
type Options struct {
	// Clock stamps events and drives the periodic checkpoint (nil = wall
	// clock).
	Clock clock.Clock
	// Metrics receives mrs_journal_records_total and
	// mrs_journal_truncations_total (nil disables).
	Metrics *obs.Metrics
	// CheckpointEvery compacts on a clock ticker (0 disables the timer;
	// record-count compaction still applies).
	CheckpointEvery time.Duration
	// CheckpointRecords compacts after this many appended records
	// (0 selects DefaultCheckpointRecords, negative disables).
	CheckpointRecords int
}

// Journal is an open, locked journal directory.
type Journal struct {
	dir  string
	opts Options
	clk  clock.Clock

	mu              sync.Mutex
	log             *os.File
	lock            *os.File
	state           *State
	sinceCheckpoint int
	closed          bool

	ticker   clock.Ticker
	tickStop chan struct{}
}

// Open locks dir, replays checkpoint + log tail into the returned
// recovered State (a snapshot; the journal keeps its own copy current),
// truncates any torn tail so appends restart from a clean record
// boundary, and begins accepting appends. Opening a directory another
// live journal holds fails fast with a lock error.
func Open(dir string, opts Options) (*Journal, *State, error) {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.CheckpointRecords == 0 {
		opts.CheckpointRecords = DefaultCheckpointRecords
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	lock, err := acquireLock(filepath.Join(dir, LockName))
	if err != nil {
		return nil, nil, err
	}

	st := NewState()
	if cp, ok := readCheckpoint(filepath.Join(dir, CheckpointName)); ok {
		st = cp
	}
	events, validLen := readLog(filepath.Join(dir, LogName))
	for _, ev := range events {
		st.Apply(ev)
	}

	log, err := os.OpenFile(filepath.Join(dir, LogName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lock.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if validLen < int64(len(magic)) {
		// Fresh (or hopelessly mangled) log: restart it.
		validLen = int64(len(magic))
		if err := log.Truncate(0); err == nil {
			_, err = log.Write(magic)
		}
		if err != nil {
			log.Close()
			lock.Close()
			return nil, nil, fmt.Errorf("journal: writing log header: %w", err)
		}
	} else if err := log.Truncate(validLen); err != nil {
		log.Close()
		lock.Close()
		return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
	}
	if _, err := log.Seek(validLen, 0); err != nil {
		log.Close()
		lock.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}

	j := &Journal{dir: dir, opts: opts, clk: opts.Clock, log: log, lock: lock, state: st}
	if opts.CheckpointEvery > 0 {
		ticker := opts.Clock.NewTicker(opts.CheckpointEvery)
		stop := make(chan struct{})
		j.ticker, j.tickStop = ticker, stop
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-ticker.Chan():
					_ = j.Checkpoint()
				}
			}
		}()
	}
	return j, st.Clone(), nil
}

// Inspect replays a journal directory read-only, without taking the
// lock — how tooling lists resumable jobs (possibly while a master is
// live on the same directory).
func Inspect(dir string) (*State, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	st := NewState()
	if cp, ok := readCheckpoint(filepath.Join(dir, CheckpointName)); ok {
		st = cp
	}
	events, _ := readLog(filepath.Join(dir, LogName))
	for _, ev := range events {
		st.Apply(ev)
	}
	return st, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// State returns a snapshot of the folded state.
func (j *Journal) State() *State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Clone()
}

// Append folds the event into the state and writes it to the log. The
// event is stamped with the journal's clock unless already stamped.
// Appends are not individually fsynced — the OS page cache rides out
// process crashes, and Sync/Close/Checkpoint flush for machine-level
// durability points.
func (j *Journal) Append(ev Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if ev.UnixNano == 0 {
		ev.UnixNano = j.clk.Now().UnixNano()
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("journal: encoding event: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	if _, err := j.log.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.state.Apply(ev)
	j.sinceCheckpoint++
	j.opts.Metrics.Add(obs.MetricJournalRecords, 1)
	if j.opts.CheckpointRecords > 0 && j.sinceCheckpoint >= j.opts.CheckpointRecords {
		return j.checkpointLocked()
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.log.Sync()
}

// Checkpoint writes the compacted state atomically and truncates the
// log back to its header.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	return j.checkpointLocked()
}

func (j *Journal) checkpointLocked() error {
	payload, err := json.Marshal(j.state)
	if err != nil {
		return fmt.Errorf("journal: encoding checkpoint: %w", err)
	}
	tmp := filepath.Join(j.dir, CheckpointName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	frame := make([]byte, len(magic)+8+len(payload))
	copy(frame, magic)
	binary.LittleEndian.PutUint32(frame[len(magic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[len(magic)+4:], crc32.Checksum(payload, castagnoli))
	copy(frame[len(magic)+8:], payload)
	if _, err := f.Write(frame); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, CheckpointName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	// Make the rename durable before dropping the log records it folds.
	if d, err := os.Open(j.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	if err := j.log.Truncate(int64(len(magic))); err != nil {
		return fmt.Errorf("journal: truncating log: %w", err)
	}
	if _, err := j.log.Seek(int64(len(magic)), 0); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.sinceCheckpoint = 0
	j.opts.Metrics.Add(obs.MetricJournalTruncations, 1)
	return nil
}

// Close compacts one final time, fsyncs, closes the files, and releases
// the directory lock — the clean-shutdown path. It is safe to call
// twice.
func (j *Journal) Close() error {
	j.stopTicker()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.checkpointLocked()
	if serr := j.log.Sync(); err == nil {
		err = serr
	}
	j.closeFilesLocked()
	return err
}

// Abandon drops the journal exactly as a killed process would: no final
// checkpoint, no fsync — whatever the OS has is what recovery gets. The
// lock releases with the file descriptor, as it would on process death.
// Tests use this to simulate master crashes.
func (j *Journal) Abandon() {
	j.stopTicker()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closeFilesLocked()
}

func (j *Journal) stopTicker() {
	j.mu.Lock()
	ticker, stop := j.ticker, j.tickStop
	j.ticker, j.tickStop = nil, nil
	j.mu.Unlock()
	if ticker != nil {
		ticker.Stop()
		close(stop)
	}
}

func (j *Journal) closeFilesLocked() {
	j.closed = true
	j.log.Close()
	// Closing the fd releases the flock.
	j.lock.Close()
}

// ---------------------------------------------------------------------------
// Decoding (shared by replay, Inspect, and the fuzz targets)

// DecodeRecords parses framed records from raw bytes (no magic header)
// and returns every intact prefix record plus the offset where the
// intact prefix ends. It never panics: a bad length, checksum, or JSON
// body simply ends the prefix.
func DecodeRecords(data []byte) ([]Event, int64) {
	var events []Event
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < 8 {
			return events, off
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxRecordLen || int64(n) > int64(len(rest)-8) {
			return events, off
		}
		payload := rest[8 : 8+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return events, off
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return events, off
		}
		events = append(events, ev)
		off += 8 + int64(n)
	}
}

// readLog returns the intact prefix events of a log file and the byte
// length of that prefix (including the magic header). A missing file or
// bad header yields no events and length 0.
func readLog(path string) ([]Event, int64) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, 0
	}
	events, off := DecodeRecords(data[len(magic):])
	return events, int64(len(magic)) + off
}

// readCheckpoint parses a checkpoint file: magic plus exactly one
// framed State record. Any corruption ignores the checkpoint entirely
// (replay then falls back to the log).
func readCheckpoint(path string) (*State, bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < len(magic)+8 || string(data[:len(magic)]) != string(magic) {
		return nil, false
	}
	body := data[len(magic):]
	n := binary.LittleEndian.Uint32(body[0:4])
	if n > maxRecordLen || int64(n) != int64(len(body)-8) {
		return nil, false
	}
	payload := body[8:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(body[4:8]) {
		return nil, false
	}
	st := NewState()
	if err := json.Unmarshal(payload, st); err != nil {
		return nil, false
	}
	if st.Jobs == nil {
		st.Jobs = map[int64]*JobRecord{}
	}
	return st, true
}

// acquireLock takes an exclusive, non-blocking flock on path. The lock
// outlives nothing: process death (or Journal close) releases it.
func acquireLock(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %s is locked by another live master: %w", path, err)
	}
	return f, nil
}
