package core

import (
	"fmt"
	"strings"

	"repro/internal/bucket"
)

// Materialized is the physical representation of a computed dataset:
// for each split, the ordered list of buckets holding its records
// (one bucket per producing task). Order matters — concatenating a
// split's buckets in task order yields a deterministic record sequence.
//
// Under the pipelined runner a Materialized is built incrementally:
// SetTaskBucket records buckets at their task index as completion
// events land, leaving zero-value placeholders for tasks that have not
// reported yet. Accessors skip placeholders, so a consumer reading an
// incomplete (narrow) split sees exactly the buckets delivered so far
// in task order.
type Materialized struct {
	// Splits[s] lists the buckets that together form split s, indexed
	// by producing task. A zero-value Descriptor (empty URL) marks a
	// task whose bucket has not been recorded.
	Splits [][]bucket.Descriptor
	// Format tells consumers how to decode the bucket payloads.
	Format string
}

// NewMaterialized allocates an empty materialization with n splits.
func NewMaterialized(n int, format string) *Materialized {
	return &Materialized{Splits: make([][]bucket.Descriptor, n), Format: format}
}

// NumSplits returns the split count.
func (m *Materialized) NumSplits() int { return len(m.Splits) }

// Records totals the record counts of all buckets.
func (m *Materialized) Records() int64 {
	var n int64
	for _, split := range m.Splits {
		for _, d := range split {
			n += d.Records
		}
	}
	return n
}

// Bytes totals the payload bytes of all buckets.
func (m *Materialized) Bytes() int64 {
	var n int64
	for _, split := range m.Splits {
		for _, d := range split {
			n += d.Bytes
		}
	}
	return n
}

// URLs returns the bucket URLs of split s in task order, skipping
// placeholders for tasks that have not reported their bucket yet.
func (m *Materialized) URLs(s int) []string {
	urls := make([]string, 0, len(m.Splits[s]))
	for _, d := range m.Splits[s] {
		if d.URL == "" {
			continue
		}
		urls = append(urls, d.URL)
	}
	return urls
}

// BucketNames returns every bucket name in the materialization;
// used to free datasets between iterations.
func (m *Materialized) BucketNames() []string {
	var names []string
	for _, split := range m.Splits {
		for _, d := range split {
			if d.Name != "" {
				names = append(names, d.Name)
			}
		}
	}
	return names
}

// AddBucket appends a bucket descriptor to split s.
func (m *Materialized) AddBucket(s int, d bucket.Descriptor) error {
	if s < 0 || s >= len(m.Splits) {
		return fmt.Errorf("core: split %d out of range [0,%d)", s, len(m.Splits))
	}
	m.Splits[s] = append(m.Splits[s], d)
	return nil
}

// SetTaskBucket records task's output bucket for split s at its task
// index, growing the split with placeholders as needed so buckets stay
// in producer-task order no matter what order completions arrive in.
func (m *Materialized) SetTaskBucket(task, s int, d bucket.Descriptor) error {
	if s < 0 || s >= len(m.Splits) {
		return fmt.Errorf("core: split %d out of range [0,%d)", s, len(m.Splits))
	}
	if task < 0 {
		return fmt.Errorf("core: negative task index %d", task)
	}
	for len(m.Splits[s]) <= task {
		m.Splits[s] = append(m.Splits[s], bucket.Descriptor{})
	}
	m.Splits[s][task] = d
	return nil
}

// BucketName builds the canonical bucket name for (dataset, task, split)
// in the default job namespace.
func BucketName(dataset, task, split int) string {
	return fmt.Sprintf("ds%d/t%d/s%d", dataset, task, split)
}

// BucketNameJob is BucketName inside a job's namespace. Job 0 — the
// default job of a directly-constructed executor — keeps the legacy
// unprefixed names, so single-job runs (and their on-disk layout) are
// unchanged; every managed job gets a j<id>/ prefix, which is what lets
// one fleet hold several jobs' intermediate data apart and reclaim one
// job's buckets without touching another's.
func BucketNameJob(job JobID, dataset, task, split int) string {
	if job == 0 {
		return BucketName(dataset, task, split)
	}
	return fmt.Sprintf("j%d/ds%d/t%d/s%d", job, dataset, task, split)
}

// ParseBucketNameJob recovers the job and dataset of a name made by
// BucketNameJob.
func ParseBucketNameJob(name string) (job JobID, dataset int, ok bool) {
	if strings.HasPrefix(name, "ds") {
		_, err := fmt.Sscanf(name, "ds%d/", &dataset)
		return 0, dataset, err == nil
	}
	_, err := fmt.Sscanf(name, "j%d/ds%d/", &job, &dataset)
	return job, dataset, err == nil
}
