package core

import (
	"math/rand"
	"testing"

	"repro/internal/bucket"
	"repro/internal/kvio"
	"repro/internal/shuffle"
)

// BenchmarkReduceInputInPlace is shuffle-sort's reduce input: four
// 1.5 MB buckets of 10-byte keys and 90-byte values, written as 64 KiB
// identity blocks and published in RAM, read through the task input
// path into an index-form sorter that adopts each block's run, then out
// through Groups. Nothing is allocated per record or per block: the
// index's doublings, the adopted-run list and the radix scratch grow
// with the log of the record count at most.
func BenchmarkReduceInputInPlace(b *testing.B) {
	const buckets, perBucket = 4, 15000
	store := bucket.NewMemStore()
	rng := rand.New(rand.NewSource(1))
	urls := make([]string, buckets)
	for i := range urls {
		pairs := make([]kvio.Pair, perBucket)
		for j := range pairs {
			key, value := make([]byte, 10), make([]byte, 90)
			rng.Read(key)
			rng.Read(value)
			pairs[j] = kvio.Pair{Key: key, Value: value}
		}
		d, err := store.Put(BucketName(0, i, 0), pairs)
		if err != nil {
			b.Fatal(err)
		}
		urls[i] = d.URL
	}
	env := &TaskEnv{Store: store}
	spec := &TaskSpec{Op: &Operation{Kind: OpReduce}, InputURLs: urls, InputFormat: FormatKV}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shuffle.NewSorter(shuffle.Options{})
		err := forEachInput(env, spec, &inputStats{}, recordSink{
			fn: func(key, value []byte) error { return s.Add(kvio.Pair{Key: key, Value: value}) },
			run: func(run []byte, recs int) error {
				_, err := s.AddBlock(run, recs)
				return err
			},
		})
		if err == nil {
			err = s.Groups(func([]byte, [][]byte) error { return nil })
		}
		if err != nil {
			b.Fatal(err)
		}
		if s.Added() != buckets*perBucket {
			b.Fatalf("sorted %d records, want %d", s.Added(), buckets*perBucket)
		}
		s.Close()
	}
}
