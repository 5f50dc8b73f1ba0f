package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bucket"
	"repro/internal/kvio"
	"repro/internal/obs"
)

// residentPairs is an invariant input several 64 KiB blocks long per
// split, with repeated keys so a reduce over it groups.
func residentPairs(n int) []kvio.Pair {
	pairs := make([]kvio.Pair, n)
	for i := range pairs {
		pairs[i] = kvio.Pair{
			Key:   []byte(fmt.Sprintf("k%03d", i%97)),
			Value: bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 40+i%23),
		}
	}
	return pairs
}

// TestResidentHitReadsColdRecords: a resident hit, which walks its
// cached payloads without their CRC, hands the task exactly the records
// of the cold read, in the same order, in both read forms: the map's
// per-record one and the reduce's adopted runs. Every executor runs
// three supersteps of an identity map and an emit-every-value reduce
// over one resident dataset, with the cache on and off, and every
// superstep's output must equal the cache-off run's byte for byte.
func TestResidentHitReadsColdRecords(t *testing.T) {
	reg := testRegistry()
	reg.RegisterReduce("emitall", func(key []byte, values [][]byte, emit kvio.Emitter) error {
		for _, v := range values {
			if err := emit.Emit(key, v); err != nil {
				return err
			}
		}
		return nil
	})
	const splits, steps = 3, 3
	execs := map[string]func() (*LocalExecutor, error){
		"serial":  func() (*LocalExecutor, error) { return NewSerial(reg), nil },
		"threads": func() (*LocalExecutor, error) { return NewThreads(reg, 3), nil },
		"mock":    func() (*LocalExecutor, error) { return NewMockParallel(reg, t.TempDir()) },
	}
	for name, newExec := range execs {
		t.Run(name, func(t *testing.T) {
			run := func(budget int64) ([][]kvio.Pair, map[string]int64) {
				exec, err := newExec()
				if err != nil {
					t.Fatal(err)
				}
				defer exec.Close()
				rt := obs.New(nil)
				exec.SetObserver(rt)
				exec.SetResidentBudget(budget)
				job := NewJobWith(exec, JobOptions{Pipeline: true, Obs: rt})
				defer job.Close()
				src, err := job.LocalData(residentPairs(6000), OpOpts{Splits: splits, Partition: "roundrobin"})
				if err != nil {
					t.Fatal(err)
				}
				var outs [][]kvio.Pair
				for i := 0; i < steps; i++ {
					mapped, err := job.Map(src, "identity", OpOpts{Splits: splits, Resident: true})
					if err != nil {
						t.Fatal(err)
					}
					reduced, err := job.Reduce(src, "emitall", OpOpts{Splits: splits, Resident: true})
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range []*Dataset{mapped, reduced} {
						pairs, err := d.Collect()
						if err != nil {
							t.Fatal(err)
						}
						outs = append(outs, pairs)
						_ = d.Free()
					}
				}
				return outs, rt.M().Snapshot()
			}
			cold, coldSnap := run(0)
			warm, warmSnap := run(DefaultResidentBudget)
			for i := range cold {
				if len(cold[i]) != 6000 {
					t.Fatalf("output %d has %d records, want 6000", i, len(cold[i]))
				}
				if !equalPairs(cold[i], warm[i]) {
					t.Errorf("output %d (superstep %d, %s) differs between the resident hit and the cold read",
						i, i/2, [2]string{"map", "reduce"}[i%2])
				}
			}
			if hits := coldSnap[obs.MetricResidentHits]; hits != 0 {
				t.Errorf("budget 0 recorded %d hits", hits)
			}
			// Each split misses once, on the first of the 2×steps reads
			// of it that runs; every later one hits.
			hits, misses := warmSnap[obs.MetricResidentHits], warmSnap[obs.MetricResidentMisses]
			if hits+misses != 2*steps*splits || misses > 2*splits || hits < 2*(steps-1)*splits {
				t.Errorf("resident hits %d, misses %d over %d reads", hits, misses, 2*steps*splits)
			}
		})
	}
}

// writeBucketFile writes pairs as a block-framed bucket file and
// returns its file:// URL and its bytes.
func writeBucketFile(t testing.TB, dir, name string, pairs []kvio.Pair) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := kvio.NewBlockWriter(&buf, 0)
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return "file://" + path, buf.Bytes()
}

// TestResidentFillRefusesCorruptBucket: the fetch that would fill a
// resident entry still checks every CRC, since a hit never checks it
// again. A bucket with one flipped payload byte fails the read with
// ErrBlockChecksum, in both read forms, and leaves the cache empty;
// once the bucket is whole again the next read fills the entry and a
// hit gives its records.
func TestResidentFillRefusesCorruptBucket(t *testing.T) {
	dir := t.TempDir()
	pairs := residentPairs(500)
	goodURL, _ := writeBucketFile(t, dir, "good", pairs[:250])
	badURL, whole := writeBucketFile(t, dir, "bad", pairs[250:])
	flipped := bytes.Clone(whole)
	flipped[len(flipped)-1] ^= 0xFF
	rewrite := func(data []byte) {
		if err := os.WriteFile(filepath.Join(dir, "bad"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	urls := []string{goodURL, badURL}
	sinks := map[string]func(n *int) recordSink{
		"records": func(n *int) recordSink {
			return recordSink{fn: func(key, value []byte) error { *n++; return nil }}
		},
		"runs": func(n *int) recordSink {
			return recordSink{run: func(run []byte, recs int) error {
				got, err := kvio.ScanRecords(run, func(key, value []byte) error { return nil })
				*n += got
				return err
			}}
		},
	}
	for name, sink := range sinks {
		t.Run(name, func(t *testing.T) {
			cache := NewResidentCache(DefaultResidentBudget)
			env := &TaskEnv{Store: bucket.NewMemStore(), Resident: cache}
			spec := &TaskSpec{Op: &Operation{Kind: OpMap, Resident: true}, Job: 1, InputDataset: 2,
				InputURLs: urls, InputFormat: FormatKV}
			var n int
			rewrite(flipped)
			err := forEachInput(env, spec, &inputStats{}, sink(&n))
			if !errors.Is(err, kvio.ErrBlockChecksum) {
				t.Fatalf("corrupt fill: error %v, want ErrBlockChecksum", err)
			}
			if cache.Len() != 0 || cache.Bytes() != 0 {
				t.Fatalf("a failed fill cached %d entries, %d bytes", cache.Len(), cache.Bytes())
			}
			rewrite(whole)
			for _, want := range []int64{0, 1} {
				n = 0
				st := &inputStats{}
				if err := forEachInput(env, spec, st, sink(&n)); err != nil {
					t.Fatal(err)
				}
				if n != len(pairs) || st.residentHits != want {
					t.Errorf("read %d records with %d hits, want %d with %d", n, st.residentHits, len(pairs), want)
				}
			}
		})
	}
}

// BenchmarkResidentHit is a k-means superstep's input read on a warm
// worker: four cached buckets of 2,500 16-dimension points, served from
// the resident cache through the per-record form without their CRC. A
// hit allocates nothing: 0 allocs/op.
func BenchmarkResidentHit(b *testing.B) {
	dir := b.TempDir()
	urls := make([]string, 4)
	for i := range urls {
		pairs := make([]kvio.Pair, 2500)
		for j := range pairs {
			pairs[j] = kvio.Pair{Key: []byte{byte(j), byte(j >> 8)}, Value: bytes.Repeat([]byte{byte(j)}, 129)}
		}
		urls[i], _ = writeBucketFile(b, dir, fmt.Sprint(i), pairs)
	}
	env := &TaskEnv{Store: bucket.NewMemStore(), Resident: NewResidentCache(DefaultResidentBudget)}
	spec := &TaskSpec{Op: &Operation{Kind: OpMap, Resident: true}, InputURLs: urls, InputFormat: FormatKV}
	var records int
	sink := recordSink{fn: func(key, value []byte) error { records++; return nil }}
	var st inputStats
	if err := forEachInput(env, spec, &st, sink); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := forEachInput(env, spec, &st, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st.residentHits != int64(b.N) || records != 10000*(b.N+1) {
		b.Fatalf("%d hits, %d records over %d reads", st.residentHits, records, b.N)
	}
}
