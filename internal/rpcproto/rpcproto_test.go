package rpcproto

import (
	"reflect"
	"testing"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/xmlrpc"
)

// wireTrip pushes a value through real XML-RPC marshalling, because the
// decode paths must handle exactly what the wire delivers.
func wireTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := xmlrpc.MarshalResponse(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := xmlrpc.UnmarshalResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSigninReplyRoundTrip(t *testing.T) {
	r := SigninReply{SlaveID: "slave-3", HeartbeatMillis: 750}
	got, err := DecodeSigninReply(wireTrip(t, r.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("got %+v, want %+v", got, r)
	}
}

func TestSigninReplyDefaultsHeartbeat(t *testing.T) {
	got, err := DecodeSigninReply(map[string]any{"slave_id": "s"})
	if err != nil {
		t.Fatal(err)
	}
	if got.HeartbeatMillis <= 0 {
		t.Errorf("heartbeat not defaulted: %+v", got)
	}
}

func TestSigninReplyErrors(t *testing.T) {
	if _, err := DecodeSigninReply("nope"); err == nil {
		t.Error("non-struct accepted")
	}
	if _, err := DecodeSigninReply(map[string]any{}); err == nil {
		t.Error("missing slave_id accepted")
	}
}

func taskAssignment() Assignment {
	return Assignment{
		Status: StatusTask,
		TaskID: 99,
		Spec: &core.TaskSpec{
			Op: &core.Operation{
				Dataset:     5,
				Kind:        core.OpReduce,
				Input:       -1,
				FuncName:    "sum",
				CombineName: "sum",
				Splits:      4,
				Partition:   "hash",
			},
			TaskIndex:   2,
			InputURLs:   []string{"http://n1:9000/data/a", "file:///shared/b"},
			InputFormat: core.FormatKV,
		},
		Deletes: []string{"ds1/t0/s0"},
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	a := taskAssignment()
	enc, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAssignment(wireTrip(t, enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != a.Status || got.TaskID != a.TaskID {
		t.Errorf("status/id: %+v", got)
	}
	if !reflect.DeepEqual(got.Deletes, a.Deletes) {
		t.Errorf("deletes: %v", got.Deletes)
	}
	if !reflect.DeepEqual(got.Spec.InputURLs, a.Spec.InputURLs) {
		t.Errorf("urls: %v", got.Spec.InputURLs)
	}
	if got.Spec.TaskIndex != 2 || got.Spec.InputFormat != core.FormatKV {
		t.Errorf("spec: %+v", got.Spec)
	}
	op := got.Spec.Op
	if op.Dataset != 5 || op.Kind != core.OpReduce || op.FuncName != "sum" ||
		op.CombineName != "sum" || op.Splits != 4 || op.Partition != "hash" {
		t.Errorf("op: %+v", op)
	}
}

func TestIdleAndShutdownAssignments(t *testing.T) {
	for _, status := range []string{StatusIdle, StatusShutdown} {
		a := Assignment{Status: status}
		enc, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeAssignment(wireTrip(t, enc))
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != status || got.Spec != nil {
			t.Errorf("%s: %+v", status, got)
		}
	}
}

func TestIdleWithDeletes(t *testing.T) {
	a := Assignment{Status: StatusIdle, Deletes: []string{"x", "y"}}
	enc, _ := a.Encode()
	got, err := DecodeAssignment(wireTrip(t, enc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Deletes, []string{"x", "y"}) {
		t.Errorf("deletes: %v", got.Deletes)
	}
}

func TestAssignmentBadStatus(t *testing.T) {
	if _, err := DecodeAssignment(map[string]any{"status": "wat"}); err == nil {
		t.Error("bad status accepted")
	}
	if _, err := DecodeAssignment(map[string]any{"status": StatusTask}); err == nil {
		t.Error("task without task_id accepted")
	}
	if _, err := DecodeAssignment(42); err == nil {
		t.Error("non-struct accepted")
	}
}

func TestEncodeTaskWithoutSpecFails(t *testing.T) {
	a := Assignment{Status: StatusTask, TaskID: 1}
	if _, err := a.Encode(); err == nil {
		t.Error("encode of spec-less task accepted")
	}
}

func TestDescriptorsRoundTrip(t *testing.T) {
	descs := []bucket.Descriptor{
		{Name: "ds1/t0/s0", URL: "http://n1/d/a", Records: 10, Bytes: 100},
		{Name: "ds1/t0/s1", URL: "file:///x", Records: 0, Bytes: 0},
	}
	got, err := DecodeDescriptors(wireTrip(t, EncodeDescriptors(descs)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, descs) {
		t.Errorf("got %+v, want %+v", got, descs)
	}
}

func TestDescriptorsErrors(t *testing.T) {
	if _, err := DecodeDescriptors("no"); err == nil {
		t.Error("non-array accepted")
	}
	if _, err := DecodeDescriptors([]any{"no"}); err == nil {
		t.Error("non-struct element accepted")
	}
	if _, err := DecodeDescriptors([]any{map[string]any{"name": "x"}}); err == nil {
		t.Error("missing url accepted")
	}
}

func TestEmptyDescriptors(t *testing.T) {
	got, err := DecodeDescriptors(wireTrip(t, EncodeDescriptors(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestAssignmentParamsRoundTrip(t *testing.T) {
	a := taskAssignment()
	a.Spec.Op.Params = []byte{0x00, 0x01, 0xFE, 0xFF}
	enc, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAssignment(wireTrip(t, enc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spec.Op.Params, a.Spec.Op.Params) {
		t.Errorf("params: %v vs %v", got.Spec.Op.Params, a.Spec.Op.Params)
	}
}

func TestAssignmentNoParams(t *testing.T) {
	a := taskAssignment()
	enc, _ := a.Encode()
	got, err := DecodeAssignment(wireTrip(t, enc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spec.Op.Params) != 0 {
		t.Errorf("unexpected params %v", got.Spec.Op.Params)
	}
}
