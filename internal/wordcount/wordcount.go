// Package wordcount implements the canonical WordCount program
// (Program 1 of the Mrs paper): the map emits (word, 1) for every
// whitespace-separated token and the reduce sums the counts. The
// reduce function doubles as the combiner, exactly as the paper's
// measured configuration does ("we make use of this optimization in
// both the Mrs version and the java version").
package wordcount

import (
	"encoding/binary"
	"fmt"
	"sort"
	"unicode"
	"unicode/utf8"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kvio"
)

// Function names registered by Register.
const (
	MapName    = "wordcount_map"
	ReduceName = "wordcount_reduce"
)

// one is every emitted count; the emitter copies it.
var one = codec.EncodeVarint(1)

// asciiSpace is unicode.IsSpace below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Map emits (word, 1) for each token of the input line. Its tokens are
// bytes.Fields's, words separated by Unicode white space, emitted as
// subslices of value without building the field list.
func Map(key, value []byte, emit kvio.Emitter) error {
	start := -1 // the current word's first byte, or -1 between words
	for i := 0; i < len(value); {
		space, size := false, 1
		if c := value[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(value[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			if err := emit.Emit(value[start:i], one); err != nil {
				return err
			}
			start = -1
		}
		i += size
	}
	if start >= 0 {
		return emit.Emit(value[start:], one)
	}
	return nil
}

// newReduce returns the reduce, which sums counts; it is also the
// combiner. It encodes each total into one buffer, reused from call to
// call (the emitter copies), so one reduce serves one task.
func newReduce() core.ReduceFunc {
	var count []byte
	return func(key []byte, values [][]byte, emit kvio.Emitter) error {
		var total int64
		for _, v := range values {
			n, err := codec.DecodeVarint(v)
			if err != nil {
				return fmt.Errorf("wordcount: bad count for %q: %w", key, err)
			}
			total += n
		}
		count = binary.AppendVarint(count[:0], total)
		return emit.Emit(key, count)
	}
}

// Register adds the WordCount functions to a registry. The reduce is a
// factory, so each task and each task's combiner gets its own buffer.
func Register(reg *core.Registry) {
	reg.RegisterMap(MapName, Map)
	reg.RegisterReduceFactory(ReduceName, func([]byte) (core.ReduceFunc, error) { return newReduce(), nil })
}

// Options tunes a WordCount run.
type Options struct {
	// MapSplits is the number of reduce-side splits produced by the map
	// (default: number of input splits).
	MapSplits int
	// ReduceSplits is the number of output splits (default MapSplits).
	ReduceSplits int
	// Combiner enables map-side combining (default true in Run; set
	// DisableCombiner to turn it off for the ablation).
	DisableCombiner bool
	// SplitBytes, when positive, divides large files into byte-range
	// splits of roughly this size so map parallelism does not depend
	// on file count (Hadoop's input-split model).
	SplitBytes int64
}

// Run counts words in the files and returns the queued output dataset.
// The caller owns the job.
func Run(job *core.Job, paths []string, opts Options) (*core.Dataset, error) {
	var src *core.Dataset
	var err error
	if opts.SplitBytes > 0 {
		src, err = job.TextFileDataSplit(paths, opts.SplitBytes)
	} else {
		src, err = job.TextFileData(paths)
	}
	if err != nil {
		return nil, err
	}
	return RunOn(job, src, opts)
}

// RunOn counts words in an existing dataset.
func RunOn(job *core.Job, src *core.Dataset, opts Options) (*core.Dataset, error) {
	mapSplits := opts.MapSplits
	if mapSplits <= 0 {
		mapSplits = src.NumSplits()
	}
	reduceSplits := opts.ReduceSplits
	if reduceSplits <= 0 {
		reduceSplits = mapSplits
	}
	combine := ReduceName
	if opts.DisableCombiner {
		combine = ""
	}
	return job.MapReduce(src, MapName, ReduceName,
		core.OpOpts{Splits: mapSplits, Combine: combine},
		core.OpOpts{Splits: reduceSplits})
}

// Counts converts collected WordCount output into a map.
func Counts(pairs []kvio.Pair) (map[string]int64, error) {
	out := make(map[string]int64, len(pairs))
	for _, p := range pairs {
		n, err := codec.DecodeVarint(p.Value)
		if err != nil {
			return nil, fmt.Errorf("wordcount: bad count for %q: %w", p.Key, err)
		}
		out[string(p.Key)] += n
	}
	return out, nil
}

// Top returns the n most frequent words (ties broken alphabetically).
func Top(counts map[string]int64, n int) []struct {
	Word  string
	Count int64
} {
	type wc struct {
		Word  string
		Count int64
	}
	all := make([]wc, 0, len(counts))
	for w, c := range counts {
		all = append(all, wc{w, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Word < all[j].Word
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]struct {
		Word  string
		Count int64
	}, n)
	for i := 0; i < n; i++ {
		out[i] = struct {
			Word  string
			Count int64
		}{all[i].Word, all[i].Count}
	}
	return out
}
