package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kvio"
)

// collectFixture queues n shuffle-sort-shaped records (a 10-byte key,
// a 90-byte value) through an identity map from 4 source splits into 4
// output splits on a serial executor's memory store, so the output is
// 4 splits of 4 KV buckets each. It returns the job, the output and
// the at-rest bytes of its buckets, each rounded up to the 8 KiB pages
// that a copy of a bucket over 32 KiB takes on the heap.
func collectFixture(tb testing.TB, n int) (*Job, *Dataset, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	pairs := make([]kvio.Pair, n)
	for i := range pairs {
		key, value := make([]byte, 10), make([]byte, 90)
		rng.Read(key)
		rng.Read(value)
		pairs[i] = kvio.Pair{Key: key, Value: value}
	}
	job := NewJob(NewSerial(testRegistry()))
	src, err := job.LocalData(pairs, OpOpts{Splits: 4, Partition: "roundrobin"})
	if err != nil {
		tb.Fatal(err)
	}
	out, err := job.Map(src, "identity", OpOpts{Splits: 4})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := job.wait(out.ID())
	if err != nil {
		tb.Fatal(err)
	}
	payload := 0
	for s := range m.Splits {
		if len(m.Splits[s]) != 4 {
			tb.Fatalf("split %d has %d buckets, want 4", s, len(m.Splits[s]))
		}
		for _, u := range m.URLs(s) {
			data, err := job.exec.Store().Fetch(u)
			if err != nil {
				tb.Fatal(err)
			}
			if len(data) > 32<<10 {
				payload += (len(data) + 8<<10 - 1) &^ (8<<10 - 1)
			} else {
				payload += len(data)
			}
		}
	}
	return job, out, payload
}

// BenchmarkCollect collects a 4×4-bucket dataset from a memory store
// at two record counts. Collect allocates its result once and a copy
// of each RAM bucket, so allocs/op do not grow with the records.
func BenchmarkCollect(b *testing.B) {
	for _, n := range []int{4000, 32000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			job, out, payload := collectFixture(b, n)
			defer job.Close()
			b.SetBytes(int64(payload))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := out.Collect()
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != n {
					b.Fatalf("collected %d records, want %d", len(got), n)
				}
			}
		})
	}
}

// TestCollectAllocatesOnce: Collect's result is allocated at its exact
// size, so a collect costs the bucket copies, 48 bytes of pair per
// record and a little bookkeeping, not the growth of per-bucket and
// per-split slices.
func TestCollectAllocatesOnce(t *testing.T) {
	const n, runs = 20000, 5
	job, out, payload := collectFixture(t, n)
	defer job.Close()
	if _, err := out.Collect(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := out.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(payload + 48*n + 16<<10); perOp > limit {
		t.Errorf("Collect allocated %d B/op, want at most %d (payload %d + 48 × %d records + 16 KiB)", perOp, limit, payload, n)
	}
}

// TestCollectRecordCountMismatch: a split whose buckets hold another
// record count than its descriptors say fails naming the split and
// both counts, and a descriptor no result could hold is refused before
// anything is allocated.
func TestCollectRecordCountMismatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta int64
		want  string
	}{
		{"bucket-holds-one-more", -1, "split 2: buckets hold %d records, descriptors %d"},
		{"bucket-holds-one-fewer", +1, "split 2: buckets hold %d records, descriptors %d"},
		{"impossible-count", math.MaxInt64 / 2, "split 2: bucket"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, out, _ := collectFixture(t, 400)
			defer job.Close()
			m, err := job.wait(out.ID())
			if err != nil {
				t.Fatal(err)
			}
			var held int64
			for _, d := range m.Splits[2] {
				held += d.Records
			}
			m.Splits[2][1].Records += tc.delta
			want := tc.want
			if strings.Contains(want, "%d") {
				want = fmt.Sprintf(want, held, held+tc.delta)
			}
			got, err := out.Collect()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Collect = %d pairs, error %v; want an error containing %q", len(got), err, want)
			}
		})
	}
}
