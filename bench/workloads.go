package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hash"
	"repro/internal/kmeans"
	"repro/internal/kvio"
	"repro/internal/partition"
	"repro/internal/prand"
	"repro/internal/pso"
	"repro/internal/wordcount"
)

// sizes fixes the input of every workload. fullSize is what the
// benchmark measures; tinySize drives the same code from the test.
type sizes struct {
	wcFiles, wcWords       int
	sortTasks, sortRecords int // map tasks, records per map task
	psoOuter               int // supersteps per chain
	kmPoints, kmSteps      int
}

var (
	fullSize = sizes{wcFiles: 160, wcWords: 8000, sortTasks: 4, sortRecords: 60000, psoOuter: 250, kmPoints: 60000, kmSteps: 12}
	tinySize = sizes{wcFiles: 6, wcWords: 200, sortTasks: 2, sortRecords: 300, psoOuter: 4, kmPoints: 400, kmSteps: 3}
)

// Fixed shape parameters (not scaled: they set how many tasks the
// control plane sees and how much one user call costs).
const (
	wcMapSplits, wcReduceSplits = 4, 2
	wcVocabulary                = 30000
	sortKeyLen, sortValueLen    = 10, 90
	kmDims, kmK, kmSplits       = 32, 8, 2
)

// workload is one named input set; prepare generates it from the seed.
type workload struct {
	name    string
	why     string
	prepare func(seed uint64, sz sizes, dir string) (*instance, error)
}

var workloads = []workload{
	{"wordcount", "paper's WordCount over many small Zipf text files: user tokenising, text input and the combiner path over repeated keys", prepareWordcount},
	{"shuffle-sort", "TeraSort-style unique 100-byte records: every byte crosses bucket write, HTTP fetch, decode and sort; nothing combines", prepareSort},
	{"pso-chain", "paper's iterative PSO with sub-millisecond tasks and KB-sized records: per-operation overhead (control RPC, scheduling, bucket publish) is nearly all of the wall", preparePSO},
	{"kmeans-superstep", "compute-heavy supersteps over an invariant resident input: user compute and resident-cache hits dominate, shuffle is tiny", prepareKMeans},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a workload with its inputs generated.
type instance struct {
	reg           *core.Registry
	maps, reduces []string // registered user functions, for the traced wrapper
	opsPerRep     int      // map and reduce datasets one repetition queues
	describe      string   // measured input size, for the results

	// rep runs one repetition: it queues the job's operations, stops
	// the clock when the result is in the driver's hands, then verifies
	// the output against the serial reference.
	rep func(job *core.Job, clk *repClock) error

	// Layer replay inputs: mapStage queues the source and the first map
	// (without its combiner, so the sorter replay has something to
	// combine) and returns the map's output dataset, whose split 0 is replayed
	// through each data-plane layer; assign is a representative task of
	// that map, replayed through the control-plane codecs.
	mapStage     func(job *core.Job) (*core.Dataset, error)
	mapTasks     int // map tasks, each contributing one bucket to a split
	mapSplits    int
	mapPartition string
	combiner     string // reduce function the map combines with ("" = none)
	assign       core.TaskSpec
	textPaths    []string // text inputs (wordcount only)
}

// repClock is the driver's clock for one repetition.
type repClock struct {
	start, end time.Time
	steps      []time.Duration // completion time of each superstep since start
	onStop     func()          // called once the timed region has ended
}

func (c *repClock) superstep() { c.steps = append(c.steps, time.Since(c.start)) }

func (c *repClock) stop() {
	c.end = time.Now()
	if c.onStop != nil {
		c.onStop()
	}
}

// perOpMS returns the time per superstep. The first superstep of an
// iterative repetition carries the cold cost (source shuffle, cache
// fill) and is left out; a single-superstep job has only that one.
func (c *repClock) perOpMS() []float64 {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if len(c.steps) == 1 {
		return []float64{ms(c.steps[0])}
	}
	out := make([]float64, 0, len(c.steps))
	for i := 1; i < len(c.steps); i++ {
		out = append(out, ms(c.steps[i]-c.steps[i-1]))
	}
	return out
}

func (c *repClock) firstStepMS() float64 {
	if len(c.steps) == 0 {
		return 0
	}
	return float64(c.steps[0]) / float64(time.Millisecond)
}

// ---------------------------------------------------------------------------
// wordcount

func prepareWordcount(seed uint64, sz sizes, dir string) (*instance, error) {
	paths, stats, err := corpus.Generate(filepath.Join(dir, "corpus"), corpus.Spec{
		Files: sz.wcFiles, MeanWords: sz.wcWords, Vocabulary: wcVocabulary, Seed: seed})
	if err != nil {
		return nil, err
	}
	reg := core.NewRegistry()
	wordcount.Register(reg)
	opts := wordcount.Options{MapSplits: wcMapSplits, ReduceSplits: wcReduceSplits}

	serial := core.NewJob(core.NewSerial(reg))
	out, err := wordcount.Run(serial, paths, opts)
	if err != nil {
		return nil, err
	}
	pairs, err := out.Collect()
	if err != nil {
		return nil, err
	}
	if err := serial.Close(); err != nil {
		return nil, err
	}
	want, err := wordcount.Counts(pairs)
	if err != nil {
		return nil, err
	}

	return &instance{
		reg: reg, maps: []string{wordcount.MapName}, reduces: []string{wordcount.ReduceName},
		opsPerRep: 2,
		describe:  fmt.Sprintf("%d files, %d words, %.1f MB, %d distinct", stats.Files, stats.Tokens, float64(stats.Bytes)/1e6, len(want)),
		rep: func(job *core.Job, clk *repClock) error {
			out, err := wordcount.Run(job, paths, opts)
			if err != nil {
				return err
			}
			pairs, err := out.Collect()
			if err != nil {
				return err
			}
			clk.superstep()
			clk.stop()
			got, err := wordcount.Counts(pairs)
			if err != nil {
				return err
			}
			if len(got) != len(want) {
				return fmt.Errorf("wordcount: %d distinct words, serial reference has %d", len(got), len(want))
			}
			for w, n := range want {
				if got[w] != n {
					return fmt.Errorf("wordcount: %q counted %d, serial reference %d", w, got[w], n)
				}
			}
			return nil
		},
		mapStage: func(job *core.Job) (*core.Dataset, error) {
			src, err := job.TextFileData(paths)
			if err != nil {
				return nil, err
			}
			return job.Map(src, wordcount.MapName, core.OpOpts{Splits: wcMapSplits})
		},
		mapTasks: len(paths), mapSplits: wcMapSplits, combiner: wordcount.ReduceName,
		assign: core.TaskSpec{
			Op: &core.Operation{Kind: core.OpMap, Input: 0, Dataset: 1, FuncName: wordcount.MapName,
				CombineName: wordcount.ReduceName, Splits: wcMapSplits},
			InputURLs: []string{"file://" + paths[0]}, InputFormat: core.FormatLines,
		},
		textPaths: paths,
	}, nil
}

// ---------------------------------------------------------------------------
// shuffle-sort

const (
	sortGenName      = "sort_gen"
	sortIdentityName = "sort_identity"
	hexDigits        = "0123456789abcdef"
)

// sortRecord fills key with random bytes and value with the record
// number followed by filler over a 16-symbol alphabet, all drawn from
// rng: unique keys, so neither dictionary encoding nor combining helps.
func sortRecord(rng *prand.MT, n uint64, key, value []byte) {
	for i := 0; i < len(key); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], rng.Uint64())
		copy(key[i:], w[:])
	}
	for i := 0; i < 16; i++ {
		value[i] = hexDigits[(n>>(60-4*uint(i)))&15]
	}
	var bits uint64
	for i := 16; i < len(value); i++ {
		if (i-16)%16 == 0 {
			bits = rng.Uint64()
		}
		value[i] = hexDigits[bits&15]
		bits >>= 4
	}
}

func sortStream(seed uint64, task int) *prand.MT { return prand.Random(seed, 0x50A7, uint64(task)) }

// sortChecksum is order-independent: a wrapping sum of record hashes.
func sortChecksum(key, value []byte) uint64 {
	return hash.FNV1a64(key)*31 + hash.FNV1a64(value)
}

func prepareSort(seed uint64, sz sizes, dir string) (*instance, error) {
	reg := core.NewRegistry()
	perTask := sz.sortRecords
	reg.RegisterMap(sortGenName, func(k, _ []byte, emit kvio.Emitter) error {
		task, err := codec.DecodeVarint(k)
		if err != nil {
			return err
		}
		rng := sortStream(seed, int(task))
		key, value := make([]byte, sortKeyLen), make([]byte, sortValueLen)
		for n := 0; n < perTask; n++ {
			sortRecord(rng, uint64(task)*uint64(perTask)+uint64(n), key, value)
			if err := emit.Emit(key, value); err != nil {
				return err
			}
		}
		return nil
	})
	reg.RegisterReduce(sortIdentityName, func(k []byte, vs [][]byte, emit kvio.Emitter) error {
		for _, v := range vs {
			if err := emit.Emit(k, v); err != nil {
				return err
			}
		}
		return nil
	})

	// The generator's own count and checksum are the reference.
	var wantSum uint64
	key, value := make([]byte, sortKeyLen), make([]byte, sortValueLen)
	for task := 0; task < sz.sortTasks; task++ {
		rng := sortStream(seed, task)
		for n := 0; n < perTask; n++ {
			sortRecord(rng, uint64(task*perTask+n), key, value)
			wantSum += sortChecksum(key, value)
		}
	}
	wantCount := sz.sortTasks * perTask

	tasks := make([]kvio.Pair, sz.sortTasks)
	for i := range tasks {
		tasks[i] = kvio.Pair{Key: codec.EncodeVarint(int64(i))}
	}
	source := func(job *core.Job) (*core.Dataset, error) {
		return job.LocalData(tasks, core.OpOpts{Splits: sz.sortTasks, Partition: "roundrobin"})
	}
	splits := sz.sortTasks

	return &instance{
		reg: reg, maps: []string{sortGenName}, reduces: []string{sortIdentityName},
		opsPerRep: 2,
		describe:  fmt.Sprintf("%d records of %d bytes, %.1f MB, %d splits", wantCount, sortKeyLen+sortValueLen, float64(wantCount*(sortKeyLen+sortValueLen))/1e6, splits),
		rep: func(job *core.Job, clk *repClock) error {
			src, err := source(job)
			if err != nil {
				return err
			}
			out, err := job.MapReduce(src, sortGenName, sortIdentityName,
				core.OpOpts{Splits: splits}, core.OpOpts{Splits: splits})
			if err != nil {
				return err
			}
			// A sort's output stays partitioned on the fleet, as
			// TeraSort's does; reading it back is verification.
			if err := out.Wait(); err != nil {
				return err
			}
			clk.superstep()
			clk.stop()
			pairs, err := out.Collect()
			if err != nil {
				return err
			}
			if len(pairs) != wantCount {
				return fmt.Errorf("shuffle-sort: %d records out, %d generated", len(pairs), wantCount)
			}
			var sum uint64
			last := make([][]byte, splits)
			prevSplit := 0
			for _, p := range pairs {
				sum += sortChecksum(p.Key, p.Value)
				s := partition.Hash(p.Key, 0, splits)
				if s < prevSplit {
					return fmt.Errorf("shuffle-sort: key of split %d found after split %d", s, prevSplit)
				}
				prevSplit = s
				if last[s] != nil && bytes.Compare(last[s], p.Key) > 0 {
					return fmt.Errorf("shuffle-sort: split %d is not sorted", s)
				}
				last[s] = p.Key
			}
			if sum != wantSum {
				return fmt.Errorf("shuffle-sort: checksum %x, generator's %x", sum, wantSum)
			}
			return nil
		},
		mapStage: func(job *core.Job) (*core.Dataset, error) {
			src, err := source(job)
			if err != nil {
				return nil, err
			}
			return job.Map(src, sortGenName, core.OpOpts{Splits: splits})
		},
		mapTasks: sz.sortTasks, mapSplits: splits,
		assign: core.TaskSpec{
			Op:        &core.Operation{Kind: core.OpMap, Input: 0, Dataset: 1, FuncName: sortGenName, Splits: splits},
			InputURLs: []string{"http://127.0.0.1:40000/data/j1_ds0_t0_s0"}, InputFormat: core.FormatKV,
		},
	}, nil
}

// ---------------------------------------------------------------------------
// pso-chain

func preparePSO(seed uint64, sz sizes, dir string) (*instance, error) {
	cfg := pso.Config{Function: pso.Rosenbrock.Name, Dims: 50, NumSwarms: 4, SwarmSize: 5,
		InnerIters: 10, Tasks: 2, CheckEvery: 1, MaxOuter: sz.psoOuter, Seed: seed}
	reg := core.NewRegistry()
	if err := pso.Register(reg, cfg); err != nil {
		return nil, err
	}
	want, err := pso.RunSerial(cfg)
	if err != nil {
		return nil, err
	}
	f, err := pso.FunctionByName(cfg.Function)
	if err != nil {
		return nil, err
	}
	swarms := make([]kvio.Pair, cfg.NumSwarms)
	for i := range swarms {
		s := pso.NewSwarm(f, cfg.Dims, cfg.SwarmSize, int64(i), cfg.Seed)
		swarms[i] = kvio.Pair{Key: codec.EncodeVarint(s.ID), Value: pso.EncodeSwarm(s)}
	}

	return &instance{
		reg: reg, maps: []string{pso.MoveName, pso.BestName}, reduces: []string{pso.MergeName, pso.MinName},
		opsPerRep: 4 * cfg.MaxOuter,
		describe: fmt.Sprintf("%d supersteps, %d swarms x %d particles x %d dims, %d inner iterations, %d tasks",
			cfg.MaxOuter, cfg.NumSwarms, cfg.SwarmSize, cfg.Dims, cfg.InnerIters, cfg.Tasks),
		rep: func(job *core.Job, clk *repClock) error {
			res, err := pso.RunMapReduce(job, cfg)
			if err != nil {
				return err
			}
			clk.stop()
			for _, p := range res.History {
				clk.steps = append(clk.steps, p.Elapsed)
			}
			if res.OuterIters != want.OuterIters || math.Float64bits(res.Best) != math.Float64bits(want.Best) {
				return fmt.Errorf("pso-chain: best %v after %d supersteps, serial reference %v after %d",
					res.Best, res.OuterIters, want.Best, want.OuterIters)
			}
			return nil
		},
		mapStage: func(job *core.Job) (*core.Dataset, error) {
			src, err := job.LocalData(swarms, core.OpOpts{Splits: cfg.Tasks})
			if err != nil {
				return nil, err
			}
			return job.Map(src, pso.MoveName, core.OpOpts{Splits: cfg.Tasks})
		},
		mapTasks: cfg.Tasks, mapSplits: cfg.Tasks,
		assign: core.TaskSpec{
			Op: &core.Operation{Kind: core.OpMap, Input: 2, Dataset: 3, FuncName: pso.MoveName,
				Splits: cfg.Tasks, Resident: true},
			InputDataset: 2,
			InputURLs:    []string{"http://127.0.0.1:40000/data/j1_ds2_t0_s0"}, InputFormat: core.FormatKV,
		},
	}, nil
}

// ---------------------------------------------------------------------------
// kmeans-superstep

// kmeansPartial decodes the (count, sum vector) value the k-means
// update function emits: a varint count, then little-endian float64s.
func kmeansPartial(v []byte) (int64, []float64, error) {
	count, n := binary.Varint(v)
	if n <= 0 || (len(v)-n)%8 != 0 {
		return 0, nil, fmt.Errorf("kmeans-superstep: malformed partial of %d bytes", len(v))
	}
	v = v[n:]
	sum := make([]float64, len(v)/8)
	for i := range sum {
		sum[i] = math.Float64frombits(binary.LittleEndian.Uint64(v[8*i:]))
	}
	return count, sum, nil
}

// kmeansLoop is the benchmark's fixed-length k-means: steps supersteps
// of assign (map, combining) and update (reduce) over one invariant
// resident point set, new centroids broadcast as the next map's params.
func kmeansLoop(job *core.Job, points []kvio.Pair, initial [][]float64, steps int, clk *repClock) ([][]float64, error) {
	src, err := job.LocalData(points, core.OpOpts{Splits: kmSplits, Partition: "roundrobin"})
	if err != nil {
		return nil, err
	}
	centroids := initial
	for i := 0; i < steps; i++ {
		mapped, err := job.Map(src, kmeans.AssignName, core.OpOpts{Splits: 1, Partition: "constant",
			Combine: kmeans.UpdateName, Params: kmeans.EncodeCentroids(centroids), Resident: true})
		if err != nil {
			return nil, err
		}
		reduced, err := job.Reduce(mapped, kmeans.UpdateName, core.OpOpts{Splits: 1, Partition: "constant", KeyAligned: true})
		if err != nil {
			return nil, err
		}
		pairs, err := reduced.Collect()
		if err != nil {
			return nil, err
		}
		next := make([][]float64, len(centroids))
		copy(next, centroids) // a cluster that received no point keeps its centroid
		for _, p := range pairs {
			id, err := codec.DecodeVarint(p.Key)
			if err != nil {
				return nil, err
			}
			count, sum, err := kmeansPartial(p.Value)
			if err != nil {
				return nil, err
			}
			if id < 0 || int(id) >= len(next) || count == 0 {
				return nil, fmt.Errorf("kmeans-superstep: partial for cluster %d with %d points", id, count)
			}
			for d := range sum {
				sum[d] /= float64(count)
			}
			next[id] = sum
		}
		centroids = next
		if clk != nil {
			clk.superstep()
		}
		_ = reduced.Free()
		_ = mapped.Free()
	}
	return centroids, nil
}

func prepareKMeans(seed uint64, sz sizes, dir string) (*instance, error) {
	// Uniformly scattered points: Gaussian blobs converge in two
	// supersteps, after which nothing moves and the loop measures less.
	rng := prand.Random(seed, 0x4B)
	points := make([][]float64, sz.kmPoints)
	for i := range points {
		points[i] = make([]float64, kmDims)
		for d := range points[i] {
			points[i][d] = rng.Float64Range(-10, 10)
		}
	}
	initial := points[:kmK]
	pairs := kmeans.PointPairs(points)
	reg := core.NewRegistry()
	kmeans.Register(reg)

	// Floating-point sums depend on the order partials are added, so the
	// reference is the same loop on the serial executor (same splits,
	// same combine order), not kmeans.RunSerial's single running sum.
	serial := core.NewJob(core.NewSerial(reg))
	want, err := kmeansLoop(serial, pairs, initial, sz.kmSteps, nil)
	if err != nil {
		return nil, err
	}
	if err := serial.Close(); err != nil {
		return nil, err
	}
	var bytesIn int
	for _, p := range pairs {
		bytesIn += len(p.Key) + len(p.Value)
	}

	return &instance{
		reg: reg, maps: []string{kmeans.AssignName}, reduces: []string{kmeans.UpdateName},
		opsPerRep: 2 * sz.kmSteps,
		describe: fmt.Sprintf("%d supersteps over %d points x %d dims (%.1f MB), k=%d, %d splits",
			sz.kmSteps, sz.kmPoints, kmDims, float64(bytesIn)/1e6, kmK, kmSplits),
		rep: func(job *core.Job, clk *repClock) error {
			got, err := kmeansLoop(job, pairs, initial, sz.kmSteps, clk)
			if err != nil {
				return err
			}
			clk.stop()
			for i := range want {
				for d := range want[i] {
					if math.Float64bits(got[i][d]) != math.Float64bits(want[i][d]) {
						return fmt.Errorf("kmeans-superstep: centroid %d dim %d is %v, serial reference %v", i, d, got[i][d], want[i][d])
					}
				}
			}
			return nil
		},
		mapStage: func(job *core.Job) (*core.Dataset, error) {
			src, err := job.LocalData(pairs, core.OpOpts{Splits: kmSplits, Partition: "roundrobin"})
			if err != nil {
				return nil, err
			}
			return job.Map(src, kmeans.AssignName, core.OpOpts{Splits: 1, Partition: "constant",
				Params: kmeans.EncodeCentroids(initial)})
		},
		mapTasks: kmSplits, mapSplits: 1, mapPartition: "constant", combiner: kmeans.UpdateName,
		assign: core.TaskSpec{
			Op: &core.Operation{Kind: core.OpMap, Input: 0, Dataset: 1, FuncName: kmeans.AssignName,
				CombineName: kmeans.UpdateName, Splits: 1, Partition: "constant",
				Params: kmeans.EncodeCentroids(initial), Resident: true},
			InputURLs: []string{"http://127.0.0.1:40000/data/j1_ds0_s0"}, InputFormat: core.FormatKV,
		},
	}, nil
}
