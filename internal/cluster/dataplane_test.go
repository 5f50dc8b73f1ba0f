package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// runTwiceOverInput runs the shuffle job of runShuffleJobOn twice over
// one source dataset, both map operations marked Resident when resident
// is set, so the second reads its input from a warm cache. The two
// sorted outputs are returned concatenated.
func runTwiceOverInput(t *testing.T, exec core.Executor, rt *obs.Runtime, resident bool) []kvio.Pair {
	t.Helper()
	job := core.NewJobWith(exec, core.JobOptions{Pipeline: true, Obs: rt})
	src, err := job.LocalData(prefetchInput(), core.OpOpts{Splits: 6, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	var all []kvio.Pair
	for iter := 0; iter < 2; iter++ {
		out, err := job.MapReduce(src, "split", "sum",
			core.OpOpts{Splits: 6, Combine: "sum", Resident: resident}, core.OpOpts{Splits: 3})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := out.CollectSorted()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, pairs...)
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}
	return all
}

// TestDataPlaneGridByteIdentical is the data plane's correctness gate
// for how buckets move, at the default bucket format
// (TestCodecGridByteIdentical covers the formats): direct HTTP serving
// or a shared directory read through file:// URLs, one fetch at a time
// or a prefetch window of 8, and the resident cache off or on. Every
// cell, and the mock executor's file buckets, must produce output
// byte-identical to the serial executor's memory buckets.
func TestDataPlaneGridByteIdentical(t *testing.T) {
	serial := core.NewSerial(testRegistry())
	want := runTwiceOverInput(t, serial, nil, false)
	serial.Close()
	if len(want) == 0 {
		t.Fatal("serial run produced no output")
	}
	mock, err := core.NewMockParallel(testRegistry(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := runTwiceOverInput(t, mock, nil, false); !samePairs(want, got) {
		t.Errorf("mock output diverged from serial: %d records vs %d", len(got), len(want))
	}
	mock.Close()

	for _, shared := range []bool{false, true} {
		for _, prefetch := range []int{1, 8} {
			for _, resident := range []bool{false, true} {
				plane := "http"
				if shared {
					plane = "shared"
				}
				name := fmt.Sprintf("%s,prefetch=%d,resident=%v", plane, prefetch, resident)
				t.Run(name, func(t *testing.T) {
					rt := obs.New(nil)
					opts := Options{Slaves: 3, Prefetch: prefetch, Obs: rt}
					if shared {
						opts.SharedDir = t.TempDir()
					}
					if resident {
						opts.ResidentBudget = core.DefaultResidentBudget
					}
					c, err := Start(testRegistry(), opts)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					got := runTwiceOverInput(t, c.Executor(), rt, resident)
					if !samePairs(want, got) {
						t.Errorf("output diverged from serial: %d records vs %d", len(got), len(want))
					}
					snap := rt.M().Snapshot()
					wireMetric, rawMetric := obs.MetricWireBytesDirect, obs.MetricShuffleBytesDirect
					if shared {
						wireMetric, rawMetric = obs.MetricWireBytesShared, obs.MetricShuffleBytesShared
					}
					// Framing adds record lengths to the payload, and the
					// default format compresses nothing.
					if raw, wire := snap[rawMetric], snap[wireMetric]; raw == 0 || wire < raw {
						t.Errorf("%s: payload %d, wire %d; want 0 < payload <= wire", plane, raw, wire)
					}
					if lookups := snap[obs.MetricResidentHits] + snap[obs.MetricResidentMisses]; (lookups > 0) != resident {
						t.Errorf("resident=%v but %d resident-cache lookups", resident, lookups)
					}
				})
			}
		}
	}
}
