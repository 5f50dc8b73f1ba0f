package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// TestCodecGridByteIdentical is the block data plane's correctness
// gate: the same shuffle-heavy job under legacy per-record framing and
// under every registered block codec, each at prefetch width 1 and 8,
// over the direct HTTP data plane — every output must be
// byte-identical. Cell names keep their "compress=false" field so
// their ids stay those of the grid's earlier, wider form.
func TestCodecGridByteIdentical(t *testing.T) {
	type config struct {
		codec    string
		prefetch int
	}
	var configs []config
	for _, p := range []int{1, 8} {
		configs = append(configs, config{prefetch: p}) // legacy plain
		for _, name := range wirecodec.Names() {
			configs = append(configs, config{codec: name, prefetch: p})
		}
	}
	var want []kvio.Pair
	for _, cfg := range configs {
		cfg := cfg
		name := fmt.Sprintf("codec=%s,compress=false,prefetch=%d", cfg.codec, cfg.prefetch)
		if cfg.codec == "" {
			name = fmt.Sprintf("legacy,compress=false,prefetch=%d", cfg.prefetch)
		}
		t.Run(name, func(t *testing.T) {
			rt := obs.New(nil)
			c, err := Start(testRegistry(), Options{
				Slaves:   3,
				Prefetch: cfg.prefetch,
				Codec:    cfg.codec,
				Obs:      rt,
			})
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
			if cfg.codec == "" {
				return
			}
			// Buckets travel as they rest, so a compressing codec must
			// undercut the decoded payload on the wire.
			snap := rt.M().Snapshot()
			raw := snap[obs.MetricShuffleBytesDirect]
			wire := snap[obs.MetricWireBytesDirect]
			if raw == 0 {
				t.Fatal("no direct-path shuffle bytes recorded")
			}
			if wire == 0 {
				t.Fatal("no direct-path wire bytes recorded")
			}
			if cfg.codec == wirecodec.IdentityName {
				// Identity blocks add framing on top of the payload.
				if wire < raw {
					t.Errorf("identity wire bytes = %d below payload %d; compressed?", wire, raw)
				}
			} else if wire >= raw {
				t.Errorf("%s wire bytes = %d, want < payload %d", cfg.codec, wire, raw)
			}
		})
	}
}

// TestCodecSerialMatchesCluster closes the cross-mode half of the
// grid: the serial executor (memory buckets, legacy framing), the mock
// executor with each block codec at rest (file buckets), and an lz
// cluster must all produce byte-identical output. A codec is a storage
// and wire detail; it must never be observable in job results.
func TestCodecSerialMatchesCluster(t *testing.T) {
	rt := obs.New(nil)
	c, err := Start(testRegistry(), Options{Slaves: 3, Codec: wirecodec.LZName, Obs: rt})
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
		t.Errorf("serial output diverged from lz cluster: %d records vs %d", len(got), len(want))
	}

	for _, name := range wirecodec.Names() {
		exec, err := core.NewMockParallel(testRegistry(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.SetCodec(name); err != nil {
			t.Fatal(err)
		}
		got := runShuffleJobOn(t, exec, nil)
		exec.Close()
		if !samePairs(want, got) {
			t.Errorf("mock codec=%s output diverged from lz cluster: %d records vs %d",
				name, len(got), len(want))
		}
	}
}
