// Package core implements the Mrs programming model: programs queue
// map and reduce operations over lazy datasets, and pluggable executors
// (serial, mock-parallel, in-process parallel, or the distributed
// master/slave runtime in internal/master and internal/slave) run them.
//
// The model follows §IV-A of the paper:
//
//   - A Program's Run method receives a *Job and queues operations.
//   - Operations form a linear queue; each produces a Dataset.
//   - Queueing never blocks, so an iterative program can queue the next
//     iteration (and a convergence check) while earlier operations are
//     still executing — the low per-iteration overhead that the paper's
//     PSO results depend on.
//   - All executors must produce identical results for the same
//     program; differences indicate a bug (the paper's debugging story).
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/kvio"
)

// MapFunc is a map function: called once per input record; emits any
// number of output records.
type MapFunc func(key, value []byte, emit kvio.Emitter) error

// ReduceFunc is a reduce function: called once per key with all values;
// emits any number of output records (commonly one).
type ReduceFunc func(key []byte, values [][]byte, emit kvio.Emitter) error

// ErrNotRegistered reports a map/reduce name that the registry lacks.
var ErrNotRegistered = errors.New("core: function not registered")

// MapFactory builds a map function from per-operation parameters; the
// framework's broadcast mechanism for state that changes between
// iterations (e.g. k-means centroids). Params travel with the task
// over RPC, so every slave builds an identical function.
type MapFactory func(params []byte) (MapFunc, error)

// ReduceFactory is the reduce-side analogue of MapFactory.
type ReduceFactory func(params []byte) (ReduceFunc, error)

// Registry maps function names to implementations. A program registers
// its functions under stable names so that slave processes (which hold
// their own instance of the same program) can resolve tasks received
// over RPC — the same mechanism Mrs gets from Python introspection.
type Registry struct {
	mu          sync.RWMutex
	maps        map[string]MapFunc
	reduces     map[string]ReduceFunc
	mapFacts    map[string]MapFactory
	reduceFacts map[string]ReduceFactory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		maps:        map[string]MapFunc{},
		reduces:     map[string]ReduceFunc{},
		mapFacts:    map[string]MapFactory{},
		reduceFacts: map[string]ReduceFactory{},
	}
}

// RegisterMap adds a named map function.
func (r *Registry) RegisterMap(name string, fn MapFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maps[name] = fn
}

// RegisterReduce adds a named reduce function. Reduce functions also
// serve as combiners when referenced by an operation's CombineName.
func (r *Registry) RegisterReduce(name string, fn ReduceFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reduces[name] = fn
}

// RegisterMapFactory adds a named parameterized map constructor.
func (r *Registry) RegisterMapFactory(name string, f MapFactory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mapFacts[name] = f
}

// RegisterReduceFactory adds a named parameterized reduce constructor.
func (r *Registry) RegisterReduceFactory(name string, f ReduceFactory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reduceFacts[name] = f
}

// Map resolves a map function with optional per-operation parameters.
// Plain registrations win; otherwise a factory is consulted.
func (r *Registry) Map(name string, params []byte) (MapFunc, error) {
	r.mu.RLock()
	fn, ok := r.maps[name]
	fact, fok := r.mapFacts[name]
	r.mu.RUnlock()
	if ok {
		return fn, nil
	}
	if fok {
		return fact(params)
	}
	return nil, fmt.Errorf("%w: map %q", ErrNotRegistered, name)
}

// Reduce resolves a reduce function with optional parameters.
func (r *Registry) Reduce(name string, params []byte) (ReduceFunc, error) {
	r.mu.RLock()
	fn, ok := r.reduces[name]
	fact, fok := r.reduceFacts[name]
	r.mu.RUnlock()
	if ok {
		return fn, nil
	}
	if fok {
		return fact(params)
	}
	return nil, fmt.Errorf("%w: reduce %q", ErrNotRegistered, name)
}

// Names returns the sorted registered map and reduce names (diagnostics).
func (r *Registry) Names() (maps, reduces []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n := range r.maps {
		maps = append(maps, n)
	}
	for n := range r.reduces {
		reduces = append(reduces, n)
	}
	sort.Strings(maps)
	sort.Strings(reduces)
	return maps, reduces
}

// OpKind discriminates operation types.
type OpKind int

// Operation kinds.
const (
	// OpLocal materializes literal pairs supplied by the program.
	OpLocal OpKind = iota
	// OpFile declares text files as a source dataset (whole files
	// packed into splits of up to FileSplitBytes; records are (line
	// number, line), numbered within each file).
	OpFile
	// OpMap applies a map function to every record of the input.
	OpMap
	// OpReduce groups each input split by key and applies a reduce
	// function.
	OpReduce
)

// String names the kind for logs.
func (k OpKind) String() string {
	switch k {
	case OpLocal:
		return "local"
	case OpFile:
		return "file"
	case OpMap:
		return "map"
	case OpReduce:
		return "reduce"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Operation describes one queued step. Operations are immutable once
// queued and fully serializable (functions travel by name), so the same
// struct drives both local executors and the RPC protocol.
type Operation struct {
	// Dataset is the id of the dataset this operation produces; it
	// equals the operation's index in the job queue.
	Dataset int
	// Kind selects the behaviour.
	Kind OpKind
	// Input is the id of the input dataset (sources use -1).
	Input int
	// FuncName is the map or reduce function name (OpMap/OpReduce).
	FuncName string
	// CombineName optionally names a reduce function applied as a
	// combiner on the producing side (map-side combine for OpMap).
	CombineName string
	// Splits is the number of output splits.
	Splits int
	// Partition names the partitioner routing output records to splits.
	Partition string
	// Paths lists input files (OpFile only).
	Paths []string
	// LocalPairs carries literal data (OpLocal only).
	LocalPairs []kvio.Pair
	// Params is opaque per-operation state handed to map/reduce
	// factories (the broadcast channel for iteration-varying state
	// such as k-means centroids). It travels with every task.
	Params []byte

	// KeyAligned is the program's promise that this reduce emits only
	// keys from its own input group (key-preserving output). It is the
	// opt-in half of the "narrow reduce" optimization: combined with a
	// key-pure partitioner shared with the producing operation and an
	// equal split count, output split s depends only on input split s,
	// so downstream tasks may start as soon as task s finishes instead
	// of waiting for the whole shuffle barrier.
	KeyAligned bool
	// Narrow is set by the Job when KeyAligned plus the structural
	// conditions actually hold for this queue. It travels with every
	// task so the task engine can *enforce* the alignment promise: a
	// narrow reduce task errors if an emitted key would route outside
	// the task's own split, instead of silently corrupting downstream
	// reads.
	Narrow bool

	// Resident marks this operation's *input* as an invariant dataset
	// worth pinning in worker-local memory: each task's input split is
	// fetched once, cached under (job, input dataset, split) on the
	// worker that ran it, and served from memory when any later task —
	// typically the same op re-queued by the next iteration — consumes
	// the same split again. The scheduler prefers placing such tasks on
	// the caching worker (cache affinity) but falls back to a re-fetch
	// anywhere, so residency never changes results, only data movement.
	Resident bool

	// Codec pins the wire codec of this operation's output buckets by
	// registered name ("identity", "deflate", "lz"), overriding the
	// executor-wide setting. Empty inherits. Like all data-plane
	// settings it never changes results, only bytes at rest and on the
	// wire.
	Codec string
	// BlockEncoding pins the block encoding of this operation's output
	// buckets ("row", "columnar", "columnar-raw", "columnar-dict",
	// "columnar-delta"), overriding the executor-wide setting. Empty
	// inherits.
	BlockEncoding string

	// rangeFormat marks an OpFile whose Paths are byte-range URLs
	// (TextFileDataSplit). Master-side only; slaves see the range
	// format through the task spec's InputFormat.
	rangeFormat bool
	// fileSplit is TextFileData's packing plan: the split of each path.
	// Master-side only, like rangeFormat.
	fileSplit []int
}

// Validate performs structural checks before an operation is queued.
func (op *Operation) Validate() error {
	if op.Splits <= 0 {
		return fmt.Errorf("core: op %d (%s): splits must be positive, got %d", op.Dataset, op.Kind, op.Splits)
	}
	switch op.Kind {
	case OpLocal:
		// Any pairs, including none, are fine.
	case OpFile:
		if len(op.Paths) == 0 {
			return fmt.Errorf("core: op %d: file op needs at least one path", op.Dataset)
		}
	case OpMap, OpReduce:
		if op.Input < 0 {
			return fmt.Errorf("core: op %d (%s): missing input dataset", op.Dataset, op.Kind)
		}
		if op.FuncName == "" {
			return fmt.Errorf("core: op %d (%s): missing function name", op.Dataset, op.Kind)
		}
	default:
		return fmt.Errorf("core: op %d: unknown kind %d", op.Dataset, int(op.Kind))
	}
	return nil
}

// Format identifies how a split's bytes decode into records.
const (
	// FormatKV is the kvio record-stream format.
	FormatKV = "kv"
	// FormatLines is raw text whose records are (varint line number,
	// line bytes without the trailing newline).
	FormatLines = "lines"
	// FormatLinesRange is raw text addressed by byte range: bucket URLs
	// carry a "#start+length" fragment, records are (varint byte offset
	// of the line start, line bytes). A range owns every line that
	// *starts* inside it, Hadoop's text-split convention, so adjacent
	// ranges neither drop nor duplicate lines.
	FormatLinesRange = "lines-range"
)
