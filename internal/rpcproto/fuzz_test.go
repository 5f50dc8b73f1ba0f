package rpcproto

import (
	"testing"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xmlrpc"
)

// psoMoveAssignment is a get_task answer as the PSO chain sees it: a
// narrow, resident particle-move map over the previous superstep's
// merged swarm, with piggybacked bucket deletes.
func psoMoveAssignment() Assignment {
	return Assignment{
		Status:  StatusTask,
		TaskID:  1234,
		Attempt: 1,
		Spec: &core.TaskSpec{
			Job:     3,
			TraceID: 88172645463325252,
			Op: &core.Operation{
				Dataset:  41,
				Kind:     core.OpMap,
				FuncName: "mrpso_move",
				Splits:   7,
				Narrow:   true,
				Resident: true,
			},
			TaskIndex:    5,
			InputDataset: 40,
			InputURLs:    []string{"http://127.0.0.1:40001/data/" + core.BucketNameJob(3, 40, 5, 0)},
		},
		Deletes: []string{core.BucketNameJob(3, 38, 5, 0), core.BucketNameJob(3, 38, 6, 0)},
	}
}

func psoReports() []Report {
	return []Report{
		{Done: true, Job: 3, TaskID: 1234, Outputs: []bucket.Descriptor{{
			Name: core.BucketNameJob(3, 41, 5, 0), URL: "http://127.0.0.1:40001/data/" + core.BucketNameJob(3, 41, 5, 0),
			Records: 5, Bytes: 2048,
		}}, Timing: obs.Timing{WallNS: 812345, InBytes: 4096, InRecords: 5, OutBytes: 2048, OutRecords: 5}},
		{Job: 3, TaskID: 1235, Err: "core: map mrpso_move: boom"},
	}
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := xmlrpc.MarshalResponse(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzDecodeAssignment feeds arbitrary response documents through the
// slave's decode path: it may reject them, but must never panic.
func FuzzDecodeAssignment(f *testing.F) {
	enc, err := psoMoveAssignment().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mustMarshal(f, enc))
	idle, _ := Assignment{Status: StatusIdle, GCJobs: []int64{2}}.Encode()
	f.Add(mustMarshal(f, idle))
	batch, err := EncodeAssignments([]Assignment{psoMoveAssignment(), psoMoveAssignment()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mustMarshal(f, batch))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := xmlrpc.UnmarshalResponse(data)
		if err != nil {
			return
		}
		DecodeAssignment(v)
		DecodeAssignments(v)
	})
}

// FuzzDecodeReports feeds arbitrary call documents through the
// master's get_task/report_batch decode path: never a panic.
func FuzzDecodeReports(f *testing.F) {
	call, err := xmlrpc.MarshalCall(MethodGetTask, []any{"slave-1", EncodeReports(psoReports())})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(call)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, args, err := xmlrpc.UnmarshalCall(data)
		if err != nil {
			return
		}
		for _, a := range args {
			DecodeReports(a)
			DecodeDescriptors(a)
			DecodeTiming(a)
		}
	})
}

func TestReportsRoundTripOnGetTask(t *testing.T) {
	call, err := xmlrpc.MarshalCall(MethodGetTask, []any{"slave-1", EncodeReports(psoReports())})
	if err != nil {
		t.Fatal(err)
	}
	method, args, err := xmlrpc.UnmarshalCall(call)
	if err != nil || method != MethodGetTask || len(args) != 2 {
		t.Fatalf("method %q, %d args, err %v", method, len(args), err)
	}
	got, err := DecodeReports(args[1])
	if err != nil {
		t.Fatal(err)
	}
	want := psoReports()
	if len(got) != len(want) || got[0].Timing != want[0].Timing || got[0].Outputs[0] != want[0].Outputs[0] ||
		got[1].Done || got[1].Err != want[1].Err || got[1].TaskID != want[1].TaskID {
		t.Fatalf("reports = %+v, want %+v", got, want)
	}
}

// BenchmarkUnmarshalAssignment decodes a PSO move-task get_task answer
// from the wire bytes to a typed Assignment, the slave's half of every
// control round trip.
func BenchmarkUnmarshalAssignment(b *testing.B) {
	enc, err := psoMoveAssignment().Encode()
	if err != nil {
		b.Fatal(err)
	}
	data := mustMarshal(b, enc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := xmlrpc.UnmarshalResponse(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeAssignment(v); err != nil {
			b.Fatal(err)
		}
	}
}
