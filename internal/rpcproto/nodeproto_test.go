package rpcproto

import (
	"reflect"
	"testing"

	"repro/internal/bucket"
	"repro/internal/obs"
)

func TestSigninArgsRoundTrip(t *testing.T) {
	a := SigninArgs{Addr: "127.0.0.1:9001", Slots: 16}
	got := DecodeSigninArgs([]any{wireTrip(t, a.Encode())})
	if got != a {
		t.Errorf("got %+v, want %+v", got, a)
	}
}

func TestSigninArgsBackwardCompatible(t *testing.T) {
	// A slave may send no argument at all; the master treats that as
	// an anonymous slave.
	if got := DecodeSigninArgs(nil); got != (SigninArgs{}) {
		t.Errorf("no-arg signin = %+v, want zero", got)
	}
	if got := DecodeSigninArgs([]any{"garbage"}); got != (SigninArgs{}) {
		t.Errorf("malformed signin arg = %+v, want zero", got)
	}
	// An empty struct encodes to no keys.
	if enc := (SigninArgs{}).Encode(); len(enc) != 0 {
		t.Errorf("zero SigninArgs encoded keys: %v", enc)
	}
}

func TestReportsRoundTrip(t *testing.T) {
	reports := []Report{
		{
			Done:   true,
			Job:    3,
			TaskID: 7,
			Outputs: []bucket.Descriptor{
				{Name: "ds1/t0/s0", URL: "http://n1/d/a", Records: 10, Bytes: 100},
			},
			Timing: obs.Timing{WallNS: 5000, InBytes: 100, OutRecords: 10},
		},
		{Done: false, TaskID: 8, Err: "map func panicked"},
		{Done: true, TaskID: 9, Outputs: []bucket.Descriptor{{Name: "x", URL: "file:///x"}}},
	}
	got, err := DecodeReports(wireTrip(t, EncodeReports(reports)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reports) {
		t.Fatalf("got %d reports, want %d", len(got), len(reports))
	}
	if !got[0].Done || got[0].Job != 3 || got[0].TaskID != 7 || !reflect.DeepEqual(got[0].Outputs, reports[0].Outputs) {
		t.Errorf("report 0 = %+v", got[0])
	}
	if got[0].Timing.WallNS != 5000 || got[0].Timing.OutRecords != 10 {
		t.Errorf("report 0 timing = %+v", got[0].Timing)
	}
	if got[1].Done || got[1].TaskID != 8 || got[1].Err != "map func panicked" {
		t.Errorf("report 1 = %+v", got[1])
	}
	if !got[2].Done || len(got[2].Outputs) != 1 {
		t.Errorf("report 2 = %+v", got[2])
	}
}

func TestReportsErrors(t *testing.T) {
	if _, err := DecodeReports("no"); err == nil {
		t.Error("non-array accepted")
	}
	if _, err := DecodeReports([]any{42}); err == nil {
		t.Error("non-struct element accepted")
	}
	if _, err := DecodeReports([]any{map[string]any{"done": true}}); err == nil {
		t.Error("missing task_id accepted")
	}
	if _, err := DecodeReports([]any{map[string]any{"done": true, "task_id": int64(1)}}); err == nil {
		t.Error("done report without outputs accepted")
	}
}

func TestEmptyReports(t *testing.T) {
	got, err := DecodeReports(wireTrip(t, EncodeReports(nil)))
	if err != nil || len(got) != 0 {
		t.Errorf("empty batch = %v, %v", got, err)
	}
}
