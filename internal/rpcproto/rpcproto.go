// Package rpcproto defines the typed messages exchanged between the
// master and slaves over XML-RPC, and their conversions to and from
// the generic XML-RPC value types.
package rpcproto

import (
	"errors"
	"fmt"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xmlrpc"
)

// Method names served by the master — and, because the master↔slave
// star generalizes to a master↔node tree, by every sub-master: a
// sub-master serves all of these to its children while speaking the
// same methods upward as a client. MethodReportBatch, MethodDrain, and
// MethodListNodes extend the protocol for the hierarchical control
// plane; peers that never send them are unaffected.
const (
	MethodSignin      = "signin"
	MethodGetTask     = "get_task"
	MethodGetTasks    = "get_tasks"
	MethodTaskDone    = "task_done"
	MethodTaskFailed  = "task_failed"
	MethodPing        = "ping"
	MethodReportBatch = "report_batch"
	MethodDrain       = "drain"
	MethodListNodes   = "list_nodes"
)

// Node kinds carried in SigninArgs.
const (
	NodeKindSlave     = "slave"
	NodeKindSubmaster = "submaster"
)

// GetTask response statuses.
const (
	StatusTask     = "task"
	StatusIdle     = "idle"
	StatusShutdown = "shutdown"
)

// FaultUnknownSlave is the XML-RPC fault code the master returns for a
// slave id it no longer recognizes (reaped after silence, or never
// signed in). Slaves react by re-signing in under a fresh id instead of
// retrying blindly, which is how a worker recovers from a hang that
// outlived the heartbeat timeout.
const FaultUnknownSlave = 100

// IsUnknownSlave reports whether an RPC error is the master's
// unknown-slave fault — the signal to re-sign-in. It appears on
// get_task after a reaping, and on task reports delivered to a master
// that restarted from its journal (the restarted master still processes
// the report; the fault just tells the slave to reconcile).
func IsUnknownSlave(err error) bool {
	var f *xmlrpc.Fault
	return errors.As(err, &f) && f.Code == FaultUnknownSlave
}

// SigninReply is the master's answer to a slave's signin.
type SigninReply struct {
	SlaveID         string
	HeartbeatMillis int64
}

// Encode converts the reply to an XML-RPC struct.
func (r SigninReply) Encode() map[string]any {
	return map[string]any{
		"slave_id":         r.SlaveID,
		"heartbeat_millis": r.HeartbeatMillis,
	}
}

// DecodeSigninReply parses a signin reply.
func DecodeSigninReply(v any) (SigninReply, error) {
	st, ok := v.(map[string]any)
	if !ok {
		return SigninReply{}, fmt.Errorf("rpcproto: signin reply is %T", v)
	}
	id, ok := st["slave_id"].(string)
	if !ok || id == "" {
		return SigninReply{}, fmt.Errorf("rpcproto: signin reply missing slave_id")
	}
	hb, _ := st["heartbeat_millis"].(int64)
	if hb <= 0 {
		hb = 500
	}
	return SigninReply{SlaveID: id, HeartbeatMillis: hb}, nil
}

// SigninArgs is the optional first argument of signin: what kind of
// node is joining, where its data plane (or child-facing control
// plane) listens, and how many task slots it offers. Nodes that omit
// it — the original flat protocol — sign in as anonymous slaves, so
// old peers keep working against a tree-aware master.
type SigninArgs struct {
	Kind  string // NodeKindSlave or NodeKindSubmaster ("" = slave)
	Addr  string // advertised address (diagnostics, drain-by-addr)
	Slots int64  // concurrent task slots (aggregated for sub-masters)
}

// Encode converts the args to an XML-RPC struct.
func (a SigninArgs) Encode() map[string]any {
	out := map[string]any{}
	if a.Kind != "" {
		out["kind"] = a.Kind
	}
	if a.Addr != "" {
		out["addr"] = a.Addr
	}
	if a.Slots > 0 {
		out["slots"] = a.Slots
	}
	return out
}

// DecodeSigninArgs parses the optional signin argument; a missing or
// malformed argument decodes as the zero value (an anonymous slave).
func DecodeSigninArgs(args []any) SigninArgs {
	var a SigninArgs
	if len(args) == 0 {
		return a
	}
	st, ok := args[0].(map[string]any)
	if !ok {
		return a
	}
	a.Kind, _ = st["kind"].(string)
	a.Addr, _ = st["addr"].(string)
	a.Slots, _ = st["slots"].(int64)
	return a
}

// Report is one task outcome inside a report_batch: a sub-master
// forwards its children's task_done and task_failed reports upward in
// batches instead of one RPC per task.
type Report struct {
	Done    bool  // true = task_done, false = task_failed
	Job     int64 // the job the task belongs to (batches may span jobs)
	TaskID  int64 // the parent's task id for the assignment
	Outputs []bucket.Descriptor
	Timing  obs.Timing
	// Then holds the fused members' results (Outputs and Timing only),
	// in the order of the assignment's TaskSpec.Then.
	Then []*core.TaskResult
	Err  string // task_failed error message
}

// DoneReport is the report of a successful task and its fused members.
func DoneReport(job, taskID int64, res *core.TaskResult) Report {
	return Report{Done: true, Job: job, TaskID: taskID, Outputs: res.Outputs, Timing: res.Timing, Then: res.Then}
}

// Result is a done report's task result.
func (r Report) Result() *core.TaskResult {
	return &core.TaskResult{Outputs: r.Outputs, Timing: r.Timing, Then: r.Then}
}

// EncodeReports converts a batch for the reports argument of
// report_batch.
func EncodeReports(reports []Report) []any {
	out := make([]any, len(reports))
	for i, r := range reports {
		st := map[string]any{
			"done":    r.Done,
			"job":     r.Job,
			"task_id": r.TaskID,
		}
		if r.Done {
			st["outputs"] = EncodeDescriptors(r.Outputs)
			st["timing"] = EncodeTiming(r.Timing)
			if len(r.Then) > 0 {
				then := make([]any, len(r.Then))
				for i, m := range r.Then {
					then[i] = map[string]any{
						"outputs": EncodeDescriptors(m.Outputs),
						"timing":  EncodeTiming(m.Timing),
					}
				}
				st["then"] = then
			}
		} else {
			st["error"] = r.Err
		}
		out[i] = st
	}
	return out
}

// DecodeReports parses the reports argument of report_batch.
func DecodeReports(v any) ([]Report, error) {
	arr, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("rpcproto: reports is %T", v)
	}
	out := make([]Report, len(arr))
	for i, e := range arr {
		st, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("rpcproto: report %d is %T", i, e)
		}
		r := Report{}
		r.Done, _ = st["done"].(bool)
		r.Job, _ = st["job"].(int64)
		id, ok := st["task_id"].(int64)
		if !ok {
			return nil, fmt.Errorf("rpcproto: report %d missing task_id", i)
		}
		r.TaskID = id
		if r.Done {
			descs, err := DecodeDescriptors(st["outputs"])
			if err != nil {
				return nil, fmt.Errorf("rpcproto: report %d: %w", i, err)
			}
			r.Outputs = descs
			r.Timing = DecodeTiming(st["timing"])
			if raw, ok := st["then"].([]any); ok {
				for k, e := range raw {
					mst, ok := e.(map[string]any)
					if !ok {
						return nil, fmt.Errorf("rpcproto: report %d fused result %d is %T", i, k, e)
					}
					descs, err := DecodeDescriptors(mst["outputs"])
					if err != nil {
						return nil, fmt.Errorf("rpcproto: report %d fused result %d: %w", i, k, err)
					}
					r.Then = append(r.Then, &core.TaskResult{Outputs: descs, Timing: DecodeTiming(mst["timing"])})
				}
			}
		} else {
			r.Err, _ = st["error"].(string)
		}
		out[i] = r
	}
	return out, nil
}

// NodeInfo is one row of a list_nodes reply: a node the master (or a
// sub-master) currently tracks, with its per-node task counters for
// fleet diagnostics.
type NodeInfo struct {
	ID        string
	Kind      string
	Addr      string
	Slots     int64
	TasksDone int64
	Draining  bool
}

// EncodeNodeInfos converts a node listing for list_nodes.
func EncodeNodeInfos(nodes []NodeInfo) []any {
	out := make([]any, len(nodes))
	for i, n := range nodes {
		out[i] = map[string]any{
			"id":         n.ID,
			"kind":       n.Kind,
			"addr":       n.Addr,
			"slots":      n.Slots,
			"tasks_done": n.TasksDone,
			"draining":   n.Draining,
		}
	}
	return out
}

// DecodeNodeInfos parses a list_nodes reply.
func DecodeNodeInfos(v any) ([]NodeInfo, error) {
	arr, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("rpcproto: node list is %T", v)
	}
	out := make([]NodeInfo, len(arr))
	for i, e := range arr {
		st, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("rpcproto: node %d is %T", i, e)
		}
		n := NodeInfo{}
		n.ID, _ = st["id"].(string)
		n.Kind, _ = st["kind"].(string)
		n.Addr, _ = st["addr"].(string)
		n.Slots, _ = st["slots"].(int64)
		n.TasksDone, _ = st["tasks_done"].(int64)
		n.Draining, _ = st["draining"].(bool)
		if n.ID == "" {
			return nil, fmt.Errorf("rpcproto: node %d missing id", i)
		}
		out[i] = n
	}
	return out, nil
}

// Assignment is the master's answer to get_task.
type Assignment struct {
	Status  string
	TaskID  int64
	Attempt int64 // which attempt of the task this assignment is (1-based)
	Spec    *core.TaskSpec
	Deletes []string // bucket names the slave should remove (piggybacked)
	// GCJobs lists job ids whose intermediate data the slave should
	// reclaim: the master piggybacks a job-complete broadcast on the
	// next get_task of every slave, like Deletes but job-granular.
	GCJobs []int64
}

// Encode converts the assignment to an XML-RPC struct.
func (a Assignment) Encode() (map[string]any, error) {
	out := map[string]any{"status": a.Status}
	if len(a.Deletes) > 0 {
		out["deletes"] = toAnySlice(a.Deletes)
	}
	if len(a.GCJobs) > 0 {
		gc := make([]any, len(a.GCJobs))
		for i, j := range a.GCJobs {
			gc[i] = j
		}
		out["gc_jobs"] = gc
	}
	if a.Status != StatusTask {
		return out, nil
	}
	if a.Spec == nil || a.Spec.Op == nil {
		return nil, fmt.Errorf("rpcproto: task assignment without spec")
	}
	out["task_id"] = a.TaskID
	if a.Spec.Job != 0 {
		out["job_id"] = int64(a.Spec.Job)
	}
	if a.Attempt > 0 {
		out["attempt"] = a.Attempt
	}
	out["task_index"] = int64(a.Spec.TaskIndex)
	out["input_urls"] = toAnySlice(a.Spec.InputURLs)
	out["input_format"] = a.Spec.InputFormat
	encodeOp(out, a.Spec)
	if len(a.Spec.Then) > 0 {
		// Fused members share the head's job and task index, and read
		// the head's output, so each carries only its operation.
		then := make([]any, len(a.Spec.Then))
		for i, m := range a.Spec.Then {
			if m == nil || m.Op == nil {
				return nil, fmt.Errorf("rpcproto: fused member %d without spec", i)
			}
			st := map[string]any{}
			encodeOp(st, m)
			then[i] = st
		}
		out["then"] = then
	}
	return out, nil
}

// encodeOp writes the operation fields of a task spec into out.
func encodeOp(out map[string]any, spec *core.TaskSpec) {
	op := spec.Op
	out["dataset"] = int64(op.Dataset)
	out["kind"] = int64(op.Kind)
	out["func"] = op.FuncName
	out["combine"] = op.CombineName
	out["splits"] = int64(op.Splits)
	out["partition"] = op.Partition
	if len(op.Params) > 0 {
		out["params"] = op.Params
	}
	if op.Narrow {
		out["narrow"] = true
	}
	// Per-op data-plane pins travel only when set, so assignments to
	// older slaves (which ignore unknown keys) are unchanged without
	// pins.
	if op.Codec != "" {
		out["codec"] = op.Codec
	}
	if op.Resident {
		// Resident tasks also carry the consumed dataset id: it is one
		// third of the slave's cache key, which the slave cannot derive
		// from the URL list alone.
		out["resident"] = true
		out["input_ds"] = int64(spec.InputDataset)
	}
	if spec.TraceID != 0 {
		out["trace_id"] = spec.TraceID
	}
}

// EncodeAssignments converts a get_tasks response — up to max
// assignments fetched in one round trip — to an XML-RPC array. The
// first element carries any piggybacked deletes/GC broadcasts and the
// poll's status; later elements are always task assignments.
func EncodeAssignments(as []Assignment) (any, error) {
	out := make([]any, len(as))
	for i := range as {
		enc, err := as[i].Encode()
		if err != nil {
			return nil, err
		}
		out[i] = enc
	}
	return out, nil
}

// DecodeAssignments parses a get_tasks response.
func DecodeAssignments(v any) ([]Assignment, error) {
	raw, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("rpcproto: assignments are %T", v)
	}
	as := make([]Assignment, 0, len(raw))
	for _, r := range raw {
		a, err := DecodeAssignment(r)
		if err != nil {
			return nil, err
		}
		as = append(as, a)
	}
	return as, nil
}

// DecodeAssignment parses a get_task response.
func DecodeAssignment(v any) (Assignment, error) {
	st, ok := v.(map[string]any)
	if !ok {
		return Assignment{}, fmt.Errorf("rpcproto: assignment is %T", v)
	}
	a := Assignment{}
	a.Status, _ = st["status"].(string)
	if dels, ok := st["deletes"].([]any); ok {
		for _, d := range dels {
			if s, ok := d.(string); ok {
				a.Deletes = append(a.Deletes, s)
			}
		}
	}
	if gcs, ok := st["gc_jobs"].([]any); ok {
		for _, g := range gcs {
			if j, ok := g.(int64); ok {
				a.GCJobs = append(a.GCJobs, j)
			}
		}
	}
	switch a.Status {
	case StatusIdle, StatusShutdown:
		return a, nil
	case StatusTask:
	default:
		return Assignment{}, fmt.Errorf("rpcproto: bad assignment status %q", a.Status)
	}
	id, ok := st["task_id"].(int64)
	if !ok {
		return Assignment{}, fmt.Errorf("rpcproto: assignment missing task_id")
	}
	a.TaskID = id
	a.Attempt, _ = st["attempt"].(int64)
	spec, err := decodeOp(st)
	if err != nil {
		return Assignment{}, err
	}
	taskIndex, _ := st["task_index"].(int64)
	spec.TaskIndex = int(taskIndex)
	spec.InputFormat, _ = st["input_format"].(string)
	if raw, ok := st["input_urls"].([]any); ok {
		for _, u := range raw {
			s, ok := u.(string)
			if !ok {
				return Assignment{}, fmt.Errorf("rpcproto: non-string input url %T", u)
			}
			spec.InputURLs = append(spec.InputURLs, s)
		}
	}
	if job, ok := st["job_id"].(int64); ok {
		spec.Job = core.JobID(job)
	}
	if raw, ok := st["then"].([]any); ok {
		for i, e := range raw {
			mst, ok := e.(map[string]any)
			if !ok {
				return Assignment{}, fmt.Errorf("rpcproto: fused member %d is %T", i, e)
			}
			m, err := decodeOp(mst)
			if err != nil {
				return Assignment{}, fmt.Errorf("rpcproto: fused member %d: %w", i, err)
			}
			m.Job, m.TaskIndex = spec.Job, spec.TaskIndex
			spec.Then = append(spec.Then, m)
		}
	}
	a.Spec = spec
	return a, nil
}

// decodeOp parses the operation fields encodeOp wrote into a task spec
// with no input plan, and validates the operation.
func decodeOp(st map[string]any) (*core.TaskSpec, error) {
	kind, _ := st["kind"].(int64)
	dataset, _ := st["dataset"].(int64)
	splits, _ := st["splits"].(int64)
	inputDS, _ := st["input_ds"].(int64)
	op := &core.Operation{
		Dataset: int(dataset),
		Kind:    core.OpKind(kind),
		// The slave never resolves the input dataset itself — it
		// receives explicit InputURLs — but Validate requires a
		// plausible id for map/reduce ops.
		Input:  0,
		Splits: int(splits),
	}
	op.FuncName, _ = st["func"].(string)
	op.CombineName, _ = st["combine"].(string)
	op.Partition, _ = st["partition"].(string)
	op.Params, _ = st["params"].([]byte)
	op.Narrow, _ = st["narrow"].(bool)
	op.Resident, _ = st["resident"].(bool)
	op.Codec, _ = st["codec"].(string)
	if err := op.Validate(); err != nil {
		return nil, err
	}
	spec := &core.TaskSpec{Op: op, InputDataset: int(inputDS)}
	spec.TraceID, _ = st["trace_id"].(int64)
	return spec, nil
}

// EncodeDescriptors converts bucket descriptors for task_done.
func EncodeDescriptors(descs []bucket.Descriptor) []any {
	out := make([]any, len(descs))
	for i, d := range descs {
		out[i] = map[string]any{
			"name":    d.Name,
			"url":     d.URL,
			"records": d.Records,
			"bytes":   d.Bytes,
		}
	}
	return out
}

// DecodeDescriptors parses the outputs argument of task_done.
func DecodeDescriptors(v any) ([]bucket.Descriptor, error) {
	arr, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("rpcproto: outputs is %T", v)
	}
	out := make([]bucket.Descriptor, len(arr))
	for i, e := range arr {
		st, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("rpcproto: output %d is %T", i, e)
		}
		d := bucket.Descriptor{}
		d.Name, _ = st["name"].(string)
		d.URL, _ = st["url"].(string)
		d.Records, _ = st["records"].(int64)
		d.Bytes, _ = st["bytes"].(int64)
		if d.URL == "" {
			return nil, fmt.Errorf("rpcproto: output %d missing url", i)
		}
		out[i] = d
	}
	return out, nil
}

// EncodeTiming converts a task attempt's measured cost breakdown into
// the optional timing argument of task_done.
func EncodeTiming(t obs.Timing) map[string]any {
	return map[string]any{
		"wall_ns":     t.WallNS,
		"shuffle_ns":  t.ShuffleNS,
		"in_bytes":    t.InBytes,
		"in_records":  t.InRecords,
		"out_bytes":   t.OutBytes,
		"out_records": t.OutRecords,
		"res_hits":    t.ResidentHits,
		"res_misses":  t.ResidentMisses,
	}
}

// DecodeTiming parses the optional timing argument of task_done; any
// malformed or missing field decodes as zero (older slaves simply
// report no breakdown).
func DecodeTiming(v any) obs.Timing {
	st, ok := v.(map[string]any)
	if !ok {
		return obs.Timing{}
	}
	var t obs.Timing
	t.WallNS, _ = st["wall_ns"].(int64)
	t.ShuffleNS, _ = st["shuffle_ns"].(int64)
	t.InBytes, _ = st["in_bytes"].(int64)
	t.InRecords, _ = st["in_records"].(int64)
	t.OutBytes, _ = st["out_bytes"].(int64)
	t.OutRecords, _ = st["out_records"].(int64)
	t.ResidentHits, _ = st["res_hits"].(int64)
	t.ResidentMisses, _ = st["res_misses"].(int64)
	return t
}

func toAnySlice(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}
