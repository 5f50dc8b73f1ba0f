// Package rpcproto defines the typed messages exchanged between the
// master and slaves over XML-RPC, and their conversions to and from
// the generic XML-RPC value types.
//
// The control plane is a flat star, and the master serves four
// methods. A slave calls three of them: signin once (and again after an
// unknown-slave fault), ping on its heartbeat, and get_task in a loop —
// each poll carries the outcome of the slot's previous task, so a task
// costs one round trip. The fourth, drain, is the operator's call
// (mrs-launch -drain) that takes a node out of rotation.
package rpcproto

import (
	"errors"
	"fmt"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xmlrpc"
)

// Method names the master serves.
const (
	MethodSignin  = "signin"
	MethodGetTask = "get_task"
	MethodPing    = "ping"
	MethodDrain   = "drain"
)

// MethodTaskDone is served by no runtime node: slaves report on their
// next get_task. It stays declared for the benchmark's control-codec
// replay (bench/replay.go), which registers its own handler under this
// name.
const MethodTaskDone = "task_done"

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
// get_task and ping after a reaping, and on a master that restarted
// from its journal (a get_task's piggybacked reports are still applied
// first; the fault just tells the slave to reconcile).
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

// SigninArgs is the optional first argument of signin: where the
// slave's data plane listens and how many task slots it offers. A
// slave that omits it signs in anonymously.
type SigninArgs struct {
	Addr  string // advertised address (diagnostics, drain-by-addr)
	Slots int64  // concurrent task slots
}

// Encode converts the args to an XML-RPC struct.
func (a SigninArgs) Encode() map[string]any {
	out := map[string]any{}
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
	a.Addr, _ = st["addr"].(string)
	a.Slots, _ = st["slots"].(int64)
	return a
}

// Report is one task outcome a slot piggybacks on its next get_task.
type Report struct {
	Done    bool  // true = the task succeeded, false = it failed
	Job     int64 // the job the task belongs to
	TaskID  int64 // the parent's task id for the assignment
	Outputs []bucket.Descriptor
	Timing  obs.Timing
	// Then holds the fused members' results (Outputs and Timing only),
	// in the order of the assignment's TaskSpec.Then.
	Then []*core.TaskResult
	Err  string // the failed task's error message
}

// DoneReport is the report of a successful task and its fused members.
func DoneReport(job, taskID int64, res *core.TaskResult) Report {
	return Report{Done: true, Job: job, TaskID: taskID, Outputs: res.Outputs, Timing: res.Timing, Then: res.Then}
}

// Result is a done report's task result.
func (r Report) Result() *core.TaskResult {
	return &core.TaskResult{Outputs: r.Outputs, Timing: r.Timing, Then: r.Then}
}

// EncodeReports converts task outcomes for the reports argument of
// get_task.
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

// DecodeReports parses the reports argument of get_task.
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

// NodeInfo is a node the master currently tracks, with its per-node
// task counter (Master.Nodes and /debug/status).
type NodeInfo struct {
	ID        string
	Addr      string
	Slots     int64
	TasksDone int64
	Draining  bool
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
	if err := op.Validate(); err != nil {
		return nil, err
	}
	spec := &core.TaskSpec{Op: op, InputDataset: int(inputDS)}
	spec.TraceID, _ = st["trace_id"].(int64)
	return spec, nil
}

// EncodeDescriptors converts bucket descriptors for a report.
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

// DecodeDescriptors parses a report's outputs.
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
// a report's timing.
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

// DecodeTiming parses a report's timing; any malformed or missing
// field decodes as zero.
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
