// Package obs is the runtime's zero-dependency observability layer:
// a structured per-task trace recorder that exports Chrome trace-event
// JSON (render a pipelined run as a timeline in chrome://tracing or
// Perfetto), a set of named counters and gauges with a Prometheus-style
// text exposition, and an HTTP /debug surface (status page, metrics,
// pprof). It is threaded through the Job driver, the local executors,
// the scheduler, the master, and the slaves; see docs/OBSERVABILITY.md
// for the operator view.
//
// Everything is nil-safe: a nil *Runtime, *Metrics, *Tracer, or
// *Counter accepts every call as a no-op, so instrumented code needs no
// "is observability on?" branches. Timestamps come from an injectable
// clock (internal/clock), which is what makes trace output
// deterministic under the fake clock in tests.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
)

// Runtime bundles the observability state one process (or one
// in-process cluster) shares: metrics are always present, the tracer
// only when tracing was requested (it retains every span in memory
// until exported).
type Runtime struct {
	// Metrics holds this runtime's counters and gauges.
	Metrics *Metrics
	// Trace records per-task spans when non-nil (see StartTrace).
	Trace *Tracer
	// Clock stamps trace events and task timings. Defaults to the wall
	// clock; tests inject a Fake for deterministic traces.
	Clock clock.Clock
}

// New returns a Runtime with live metrics and no tracer. A nil clk
// selects the wall clock.
func New(clk clock.Clock) *Runtime {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Runtime{Metrics: NewMetrics(), Clock: clk}
}

// StartTrace attaches a fresh Tracer driven by the runtime's clock and
// returns it. No-op (returning nil) on a nil runtime.
func (r *Runtime) StartTrace() *Tracer {
	if r == nil {
		return nil
	}
	r.Trace = NewTracer(r.Clock)
	return r.Trace
}

// M returns the runtime's metrics, nil-safely.
func (r *Runtime) M() *Metrics {
	if r == nil {
		return nil
	}
	return r.Metrics
}

// T returns the runtime's tracer, nil-safely.
func (r *Runtime) T() *Tracer {
	if r == nil {
		return nil
	}
	return r.Trace
}

// Clk returns the runtime's clock, or the wall clock for a nil runtime.
func (r *Runtime) Clk() clock.Clock {
	if r == nil || r.Clock == nil {
		return clock.Real{}
	}
	return r.Clock
}

// ---------------------------------------------------------------------------
// Metrics

// Data-plane metric names. The raw counters measure decoded record
// payload per path (what the task engine consumes); the wire counters
// measure bytes actually moved over the network or shared filesystem,
// which is smaller when compression is on. raw − wire is the
// compression saving, visible in /debug/metrics.
const (
	MetricShuffleBytesDirect = "mrs_shuffle_bytes_direct_total"
	MetricShuffleBytesShared = "mrs_shuffle_bytes_shared_total"
	MetricShuffleBytesLocal  = "mrs_shuffle_bytes_local_total"
	MetricWireBytesDirect    = "mrs_shuffle_wire_bytes_direct_total"
	MetricWireBytesShared    = "mrs_shuffle_wire_bytes_shared_total"
)

// Text-input metric names: files and splits of every whole-file text
// source the driver materializes. files/splits is the packing ratio.
const (
	MetricInputFiles  = "mrs_input_files_total"
	MetricInputSplits = "mrs_input_splits_total"
)

// Sorter-form metric names: records buffered by the sorters a task
// builds, split by in-memory form. A sorter without a combiner sorts a
// prefix index of every record; one with a combiner groups records by
// key in a hash table first.
const (
	MetricSortIndexed = "mrs_sort_records_indexed_total"
	MetricSortGrouped = "mrs_sort_records_grouped_total"
)

// MetricTasksFused counts the map tasks the Job driver attached to a
// narrow reduce task as fused members (core.TaskSpec.Then), each of
// which runs in its head's dispatch instead of one of its own.
const MetricTasksFused = "mrs_tasks_fused_total"

// MetricSortFolds counts the times a combining sorter folded the values
// that arrived since its last fold through the combiner, which bounds
// its memory by distinct keys rather than records. A job with no
// combiner holds it at zero.
const MetricSortFolds = "mrs_sort_folds_total"

// Bucket-store metric names. An HTTP-serving store publishes a bucket
// either into RAM or as a file; spills count buckets that started in
// RAM and went to a file (past the per-bucket threshold or the store
// budget), and local opens count http URLs a store read in-process
// because it serves them itself — those move no wire bytes. The
// inserted/released byte counters are monotonic so they sum across the
// slaves sharing one registry; their difference is the RAM held,
// exported as the MetricBucketMemBytes gauge by RegisterBucketMemGauge.
// Unlinks count every removal syscall a store issues on a bucket file,
// and HTTP fetches every bucket a store opened from a peer over HTTP.
const (
	MetricBucketPublishedMem     = "mrs_bucket_published_mem_total"
	MetricBucketPublishedFile    = "mrs_bucket_published_file_total"
	MetricBucketSpilled          = "mrs_bucket_spilled_total"
	MetricBucketLocalOpens       = "mrs_bucket_local_opens_total"
	MetricBucketHTTPFetches      = "mrs_bucket_http_fetches_total"
	MetricBucketMemInsertedBytes = "mrs_bucket_mem_inserted_bytes_total"
	MetricBucketMemReleasedBytes = "mrs_bucket_mem_released_bytes_total"
	MetricBucketMemBytes         = "mrs_bucket_mem_bytes"
	MetricBucketUnlinks          = "mrs_bucket_unlinks_total"
)

// RegisterBucketMemGauge installs the RAM-held-bytes gauge derived from
// the monotonic inserted/released counters. Idempotent, like
// RegisterResidentGauge.
func RegisterBucketMemGauge(m *Metrics) {
	m.SetGauge(MetricBucketMemBytes, func() int64 {
		return m.Counter(MetricBucketMemInsertedBytes).Value() -
			m.Counter(MetricBucketMemReleasedBytes).Value()
	})
}

// Durability metric names. Journal counters track write-ahead-log
// activity on the master; the recovery counters count master restarts
// that replayed journaled state and the tasks whose journaled outputs
// let the scheduler skip re-execution.
const (
	MetricJournalRecords     = "mrs_journal_records_total"
	MetricJournalTruncations = "mrs_journal_truncations_total"
	MetricMasterRecoveries   = "mrs_master_recoveries_total"
	MetricRecoveredTasks     = "mrs_master_recovered_tasks_total"
)

// Resident-cache metric names. Hits and misses count per-task lookups
// of Resident-marked input splits (the task engine charges them);
// evictions count LRU displacement under the byte budget, and
// invalidations count entries dropped because the fetch plan changed
// (different producer buckets after recovery). The inserted/reclaimed
// byte counters are both monotonic so they sum correctly across the
// slaves sharing one metrics registry; their difference is the live
// pinned footprint, exported as the MetricResidentPinnedBytes gauge by
// RegisterResidentGauge. GC bytes count reclamation specifically driven
// by the per-job GC broadcast, and the scheduler counter tracks how
// often cache-affinity placement sent a task to the slave already
// holding its resident input.
const (
	MetricResidentHits            = "mrs_resident_hits_total"
	MetricResidentMisses          = "mrs_resident_misses_total"
	MetricResidentEvictions       = "mrs_resident_evictions_total"
	MetricResidentInvalidations   = "mrs_resident_invalidations_total"
	MetricResidentInsertedBytes   = "mrs_resident_inserted_bytes_total"
	MetricResidentReclaimedBytes  = "mrs_resident_reclaimed_bytes_total"
	MetricResidentGCBytes         = "mrs_resident_gc_reclaimed_bytes_total"
	MetricResidentPinnedBytes     = "mrs_resident_pinned_bytes"
	MetricSchedResidentPlacements = "mrs_sched_resident_placements_total"
	MetricPlanReuse               = "mrs_job_input_plan_reuse_total"
)

// Hierarchical-control-plane metric names. The sched counters cover
// straggler handling: late reports are task_done/task_failed deliveries
// arriving after the task's outcome was already settled (duplicate,
// stale-assignee, or post-job-completion straggler reports — previously
// dropped silently), speculative counts duplicate attempts launched by
// the quantile trigger, and wins counts tasks whose accepted completion
// came from a speculative attempt. Drain requeues count leases returned
// by nodes leaving the fleet cleanly. The submaster counters measure
// each tree level's aggregation work: tasks fetched from the parent,
// reports forwarded upward, the batches carrying them (reports/batches
// is the fan-in reduction), children signed in, local retries absorbed
// without escalating to the root, and upward re-sign-ins after a parent
// restart.
const (
	MetricSchedLateReports      = "mrs_sched_late_reports_total"
	MetricSchedSpeculative      = "mrs_sched_speculative_total"
	MetricSchedSpeculativeWins  = "mrs_sched_speculative_wins_total"
	MetricSchedDrainRequeued    = "mrs_sched_drain_requeued_total"
	MetricSubmasterFetched      = "mrs_submaster_tasks_fetched_total"
	MetricSubmasterReports      = "mrs_submaster_reports_forwarded_total"
	MetricSubmasterBatches      = "mrs_submaster_report_batches_total"
	MetricSubmasterChildSignins = "mrs_submaster_child_signins_total"
	MetricSubmasterLocalRetries = "mrs_submaster_local_retries_total"
	MetricSubmasterResignins    = "mrs_submaster_resignins_total"
	MetricMasterDrains          = "mrs_master_drains_total"
	MetricMasterBatchReports    = "mrs_master_batch_reports_total"
)

// MetricRPCCalls counts control-plane calls served, one series per
// method (RPCSeries): the master and every sub-master count the calls
// their handlers receive, so the family shows how many round trips
// each task costs.
const MetricRPCCalls = "mrs_rpc_calls_total"

// RPCSeries returns the labeled series of MetricRPCCalls for a method.
func RPCSeries(method string) string {
	return MetricRPCCalls + `{method="` + method + `"}`
}

// CountCalls wraps an RPC handler so every call it serves increments
// the method's MetricRPCCalls series in m (nil m counts nothing).
func CountCalls(m *Metrics, method string, h func([]any) (any, error)) func([]any) (any, error) {
	c := m.Counter(RPCSeries(method))
	return func(args []any) (any, error) {
		c.Add(1)
		return h(args)
	}
}

// RegisterResidentGauge installs the pinned-bytes gauge derived from
// the monotonic inserted/reclaimed counters. Registering is idempotent
// (SetGauge replaces), so every slave sharing the registry may call it.
func RegisterResidentGauge(m *Metrics) {
	m.SetGauge(MetricResidentPinnedBytes, func() int64 {
		return m.Counter(MetricResidentInsertedBytes).Value() -
			m.Counter(MetricResidentReclaimedBytes).Value()
	})
}

// Counter is a monotonically increasing metric. The zero value is
// ready; a nil *Counter discards adds, so hot paths can cache a counter
// pointer without caring whether metrics are wired.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Metrics is a registry of named counters and callback gauges. Names
// follow Prometheus conventions (mrs_tasks_submitted_total and the
// like); WriteProm renders the standard text exposition.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: map[string]*Counter{}, gauges: map[string]func() int64{}}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Add increments the named counter by n (creating it if needed).
func (m *Metrics) Add(name string, n int64) {
	m.Counter(name).Add(n)
}

// SetGauge registers (or replaces) a callback gauge; fn is evaluated at
// snapshot time. No-op on a nil registry.
func (m *Metrics) SetGauge(name string, fn func() int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gauges[name] = fn
}

// Get returns the current value of a counter or gauge (0 if absent).
func (m *Metrics) Get(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	c, cok := m.counters[name]
	g, gok := m.gauges[name]
	m.mu.Unlock()
	if cok {
		return c.Value()
	}
	if gok {
		return g()
	}
	return 0
}

// Snapshot evaluates every counter and gauge into one map.
func (m *Metrics) Snapshot() map[string]int64 {
	out := map[string]int64{}
	if m == nil {
		return out
	}
	m.mu.Lock()
	counters := make(map[string]*Counter, len(m.counters))
	for n, c := range m.counters {
		counters[n] = c
	}
	gauges := make(map[string]func() int64, len(m.gauges))
	for n, g := range m.gauges {
		gauges[n] = g
	}
	m.mu.Unlock()
	for n, c := range counters {
		out[n] = c.Value()
	}
	for n, g := range gauges {
		out[n] = g()
	}
	return out
}

// JobSeries returns the per-job labeled series name for a metric:
// `name{job="N"}` for a managed job, or the bare name for job 0 so
// single-job runs keep their legacy series. Labeled series sort after
// their base name in WriteProm's output, keeping each family together.
func JobSeries(name string, job int64) string {
	if job == 0 {
		return name
	}
	return fmt.Sprintf("%s{job=\"%d\"}", name, job)
}

// WriteProm renders the Prometheus text exposition format, sorted by
// metric name so output is stable. A `# TYPE` header is emitted once
// per metric family (the name up to any label braces), so job-labeled
// series share their family's header.
func (m *Metrics) WriteProm(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	kind := map[string]string{}
	for n := range m.counters {
		kind[n] = "counter"
	}
	for n := range m.gauges {
		kind[n] = "gauge"
	}
	m.mu.Unlock()
	snap := m.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	typed := map[string]bool{}
	for _, n := range names {
		fam := n
		if i := strings.IndexByte(n, '{'); i >= 0 {
			fam = n[:i]
		}
		if !typed[fam] {
			typed[fam] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, kind[n]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, snap[n]); err != nil {
			return err
		}
	}
	return nil
}
