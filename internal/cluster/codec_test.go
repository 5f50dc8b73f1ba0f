package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// TestCodecGridByteIdentical runs the same shuffle-heavy job over the
// direct HTTP data plane at prefetch width 1 and 8: every output must
// be byte-identical, and buckets travel as identity blocks, so the wire
// carries the payload plus its framing. Cell names keep the fields of
// the grid's earlier, wider form (codec and compression) so their ids
// stay the same.
func TestCodecGridByteIdentical(t *testing.T) {
	var want []kvio.Pair
	for _, prefetch := range []int{1, 8} {
		name := fmt.Sprintf("codec=identity,compress=false,prefetch=%d", prefetch)
		t.Run(name, func(t *testing.T) {
			rt := obs.New(nil)
			c, err := Start(testRegistry(), Options{Slaves: 3, Prefetch: prefetch, Obs: rt})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got := runShuffleJob(t, c, rt)
			if len(got) == 0 {
				t.Fatal("job produced no output")
			}
			if want == nil {
				want = got
			} else if !samePairs(want, got) {
				t.Errorf("%s output diverged from baseline: %d records vs %d",
					name, len(got), len(want))
			}
			snap := rt.M().Snapshot()
			raw := snap[obs.MetricShuffleBytesDirect]
			wire := snap[obs.MetricWireBytesDirect]
			if raw == 0 || wire < raw {
				t.Errorf("payload %d, wire %d; want 0 < payload <= wire", raw, wire)
			}
		})
	}
}

// TestCodecSerialMatchesCluster closes the cross-mode half of the
// grid: the serial executor (memory buckets), the mock executor (file
// buckets) and a cluster (HTTP-served buckets) must all produce
// byte-identical output. Where a bucket rests must never be observable
// in job results.
func TestCodecSerialMatchesCluster(t *testing.T) {
	rt := obs.New(nil)
	c, err := Start(testRegistry(), Options{Slaves: 3, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	want := runShuffleJob(t, c, rt)
	c.Close()
	if len(want) == 0 {
		t.Fatal("cluster run produced no output")
	}

	serial := core.NewSerial(testRegistry())
	got := runShuffleJobOn(t, serial, nil)
	serial.Close()
	if !samePairs(want, got) {
		t.Errorf("serial output diverged from cluster: %d records vs %d", len(got), len(want))
	}

	exec, err := core.NewMockParallel(testRegistry(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got = runShuffleJobOn(t, exec, nil)
	exec.Close()
	if !samePairs(want, got) {
		t.Errorf("mock output diverged from cluster: %d records vs %d", len(got), len(want))
	}
}
