// Benchmarks regenerating the paper's tables and figures (one bench
// per experiment; EXPERIMENTS.md maps each to its paper artifact), plus
// ablations of the design choices called out in DESIGN.md §11.
//
// Run everything:   go test -bench=. -benchmem .
// One experiment:   go test -bench=BenchmarkPiFig3a .
package mrs_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hadoopsim"
	"repro/internal/interp"
	"repro/internal/kvio"
	"repro/internal/partition"
	"repro/internal/pbs"
	"repro/internal/piest"
	"repro/internal/pso"
	"repro/internal/wordcount"
)

// ---------------------------------------------------------------------------
// EXP-PROG / EXP-SCRIPT (Programs 1-4)

func BenchmarkProgramComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := pbs.NewProgramComparison()
		if p.MrsLines() >= p.HadoopLines() {
			b.Fatal("comparison inverted")
		}
	}
}

func BenchmarkStartupScripts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := pbs.Compare(21, 1<<30, 31173)
		if c.Hadoop.StartupTime() <= c.Mrs.StartupTime() {
			b.Fatal("hadoop startup should dominate")
		}
	}
}

// ---------------------------------------------------------------------------
// EXP-WC (the WordCount narrative table)

// wcCorpus generates a small corpus once per benchmark binary.
func wcCorpus(b *testing.B, files int) []string {
	b.Helper()
	dir, err := os.MkdirTemp("", "mrs-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	paths, _, err := corpus.Generate(dir, corpus.Spec{Files: files, MeanWords: 400, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return paths
}

func BenchmarkWordCountMrs(b *testing.B) {
	paths := wcCorpus(b, 60)
	reg := core.NewRegistry()
	wordcount.Register(reg)
	exec := core.NewThreads(reg, 4)
	defer exec.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := core.NewJob(exec)
		out, err := wordcount.Run(job, paths, wordcount.Options{MapSplits: 8, ReduceSplits: 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := out.Collect(); err != nil {
			b.Fatal(err)
		}
		job.Close()
	}
}

func BenchmarkWordCountHadoopSim(b *testing.B) {
	c, err := hadoopsim.NewCluster(21, hadoopsim.DefaultProfile())
	if err != nil {
		b.Fatal(err)
	}
	job := hadoopsim.Job{
		Maps: 31173, Reduces: 126,
		MapTime: 500 * time.Millisecond, ReduceTime: 5 * time.Second,
		InputFiles: 31173,
	}
	for i := 0; i < b.N; i++ {
		res, err := c.Run(job)
		if err != nil {
			b.Fatal(err)
		}
		if res.InputScan < 8*time.Minute {
			b.Fatalf("scan %v lost its paper calibration", res.InputScan)
		}
	}
}

// ---------------------------------------------------------------------------
// EXP-PI-A / EXP-PI-B (Figure 3)

func benchPiSeries(b *testing.B, tiers []interp.Tier) {
	perSample := interp.CalibrateSampleCost(1 << 18)
	hadoop, err := hadoopsim.NewCluster(21, hadoopsim.DefaultProfile())
	if err != nil {
		b.Fatal(err)
	}
	overhead, err := hadoop.OverheadEmpty()
	if err != nil {
		b.Fatal(err)
	}
	hadoopModel := interp.Model{Overhead: overhead, SampleCost: interp.Java.Scale(perSample), Parallelism: 4}
	for _, tier := range tiers {
		tier := tier
		b.Run("model/"+tier.Name, func(b *testing.B) {
			m := interp.Model{Overhead: 25 * time.Millisecond, Startup: 20 * time.Millisecond,
				SampleCost: tier.Scale(perSample), Parallelism: 4}
			for i := 0; i < b.N; i++ {
				for e := 0; e <= 9; e++ {
					n := uint64(1)
					for k := 0; k < e; k++ {
						n *= 10
					}
					_ = m.Predict(n)
					_ = hadoopModel.Predict(n)
				}
			}
		})
	}
	b.Run("live/c/1e6", func(b *testing.B) {
		cfg := piest.Config{Samples: 1_000_000, Tasks: 8}
		reg := core.NewRegistry()
		piest.Register(reg, cfg)
		exec := core.NewThreads(reg, 4)
		defer exec.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job := core.NewJob(exec)
			if _, err := piest.Run(job, cfg); err != nil {
				b.Fatal(err)
			}
			job.Close()
		}
	})
}

func BenchmarkPiFig3a(b *testing.B) {
	benchPiSeries(b, []interp.Tier{interp.CPython, interp.PyPy})
}

func BenchmarkPiFig3b(b *testing.B) {
	benchPiSeries(b, []interp.Tier{interp.C, interp.PyPy})
}

// ---------------------------------------------------------------------------
// EXP-CROSS

func BenchmarkCrossover(b *testing.B) {
	perSample := 30 * time.Nanosecond
	hadoop := interp.Model{Overhead: 30 * time.Second, SampleCost: interp.Java.Scale(perSample)}
	mrs := interp.Model{Overhead: 300 * time.Millisecond, SampleCost: interp.CPython.Scale(perSample)}
	for i := 0; i < b.N; i++ {
		if interp.CrossoverSamples(mrs, hadoop) == 0 {
			b.Fatal("expected a crossover")
		}
	}
}

// ---------------------------------------------------------------------------
// EXP-PSO (Figure 4) and EXP-ITER

func psoBenchConfig() pso.Config {
	return pso.Config{
		Function:   "rosenbrock",
		Dims:       50,
		NumSwarms:  8,
		SwarmSize:  5,
		InnerIters: 20,
		Seed:       42,
		MaxOuter:   10,
		Tasks:      4,
		CheckEvery: 2,
	}
}

func BenchmarkPSOSerial(b *testing.B) {
	cfg := psoBenchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := pso.RunSerial(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPSOMapReduceThreads(b *testing.B) {
	cfg := psoBenchConfig()
	reg := core.NewRegistry()
	if err := pso.Register(reg, cfg); err != nil {
		b.Fatal(err)
	}
	exec := core.NewThreads(reg, 4)
	defer exec.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := core.NewJob(exec)
		if _, err := pso.RunMapReduce(job, cfg); err != nil {
			b.Fatal(err)
		}
		job.Close()
	}
}

func BenchmarkPSOMapReduceDistributed(b *testing.B) {
	cfg := psoBenchConfig()
	reg := core.NewRegistry()
	if err := pso.Register(reg, cfg); err != nil {
		b.Fatal(err)
	}
	c, err := cluster.Start(reg, cluster.Options{Slaves: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := core.NewJob(c.Executor())
		if _, err := pso.RunMapReduce(job, cfg); err != nil {
			b.Fatal(err)
		}
		job.Close()
	}
}

// splitKeys returns one key per hash split of n, so an n-split dataset
// of these keys has exactly one key (and one record) per split.
func splitKeys(n int) []kvio.Pair {
	pairs := make([]kvio.Pair, 0, n)
	seen := make(map[int]bool)
	for i := 0; len(pairs) < n && i < 100*n; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		s := partition.Hash(k, 0, n)
		if !seen[s] {
			seen[s] = true
			pairs = append(pairs, kvio.Pair{Key: k, Value: []byte("x")})
		}
	}
	return pairs
}

// benchIterChain runs a b.N-long chain of narrow (key-aligned) reduces
// over a 4-split dataset on a 4-slave cluster. waitEach mimics a driver
// that blocks on every iteration; queued drivers enqueue the whole
// chain and wait once at the end, which is where split-level
// pipelining pays: each split's chain advances independently instead
// of re-synchronizing at every operation.
func benchIterChain(b *testing.B, pipelined, waitEach bool) {
	b.Helper()
	reg := core.NewRegistry()
	reg.RegisterReduce("keep", func(k []byte, vs [][]byte, e kvio.Emitter) error { return e.Emit(k, vs[0]) })
	c, err := cluster.Start(reg, cluster.Options{Slaves: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: pipelined})
	defer job.Close()
	ds, err := job.LocalData(splitKeys(4), core.OpOpts{Splits: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.Wait(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err = job.Reduce(ds, "keep", core.OpOpts{Splits: 4, KeyAligned: true})
		if err != nil {
			b.Fatal(err)
		}
		if waitEach {
			if err := ds.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := ds.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIterationOverhead measures the per-operation overhead of the
// distributed runtime (the paper's ~0.3 s figure; see EXPERIMENTS.md
// for ours). "waited" is the paper's measurement: one empty map per
// iteration, driver blocking each time. "queued" is the same length of
// chain driven the asynchronous way — queue ahead, wait once — which
// the pipelined scheduler overlaps across splits.
func BenchmarkIterationOverhead(b *testing.B) {
	b.Run("waited", func(b *testing.B) {
		reg := core.NewRegistry()
		reg.RegisterMap("identity", func(k, v []byte, e kvio.Emitter) error { return e.Emit(k, v) })
		c, err := cluster.Start(reg, cluster.Options{Slaves: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		job := core.NewJob(c.Executor())
		defer job.Close()
		ds, err := job.LocalData([]kvio.Pair{{Key: codec.EncodeVarint(1), Value: []byte("x")}},
			core.OpOpts{Splits: 4, Partition: "roundrobin"})
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.Wait(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds, err = job.Map(ds, "identity", core.OpOpts{Splits: 4})
			if err != nil {
				b.Fatal(err)
			}
			if err := ds.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("queued", func(b *testing.B) { benchIterChain(b, true, false) })
}

// benchStaggerChain is benchIterChain with a rotating straggler: in
// iteration i, the task of split (i mod 4) sleeps 20 ms. Barriered,
// every iteration pays the straggler; pipelined, each split's chain
// advances independently so a given split pays only every 4th
// iteration — the paper's "iteration i+1 overlaps iteration i's
// stragglers" claim in benchmark form.
func benchStaggerChain(b *testing.B, pipelined bool) {
	b.Helper()
	reg := core.NewRegistry()
	reg.RegisterReduce("stagger", func(k []byte, vs [][]byte, e kvio.Emitter) error {
		n, err := strconv.Atoi(string(vs[0]))
		if err != nil {
			return err
		}
		if n%4 == partition.Hash(k, 0, 4) {
			time.Sleep(20 * time.Millisecond)
		}
		return e.Emit(k, []byte(strconv.Itoa(n+1)))
	})
	c, err := cluster.Start(reg, cluster.Options{Slaves: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: pipelined})
	defer job.Close()
	pairs := splitKeys(4)
	for i := range pairs {
		pairs[i].Value = []byte("0")
	}
	ds, err := job.LocalData(pairs, core.OpOpts{Splits: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.Wait(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err = job.Reduce(ds, "stagger", core.OpOpts{Splits: 4, KeyAligned: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := ds.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelineAblation compares the pipelined DAG scheduler to the
// barriered ablation (JobOptions.Pipeline=false) on an identical queued
// chain of narrow reduces with a rotating straggler (DESIGN.md §7).
func BenchmarkPipelineAblation(b *testing.B) {
	b.Run("pipelined", func(b *testing.B) { benchStaggerChain(b, true) })
	b.Run("barriered", func(b *testing.B) { benchStaggerChain(b, false) })
}

// BenchmarkHadoopIterationOverhead is the simulated Hadoop equivalent.
func BenchmarkHadoopIterationOverhead(b *testing.B) {
	c, err := hadoopsim.NewCluster(21, hadoopsim.DefaultProfile())
	if err != nil {
		b.Fatal(err)
	}
	var total time.Duration
	for i := 0; i < b.N; i++ {
		ovh, err := c.OverheadEmpty()
		if err != nil {
			b.Fatal(err)
		}
		total += ovh
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "sim-ms/op")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §7)

func benchWordCountLocal(b *testing.B, disableCombiner bool) {
	var lines []kvio.Pair
	for i := 0; i < 400; i++ {
		lines = append(lines, kvio.Pair{
			Key:   codec.EncodeVarint(int64(i)),
			Value: []byte("alpha beta gamma delta alpha beta alpha"),
		})
	}
	reg := core.NewRegistry()
	wordcount.Register(reg)
	exec := core.NewThreads(reg, 4)
	defer exec.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := core.NewJob(exec)
		src, err := job.LocalData(lines, core.OpOpts{Splits: 8, Partition: "roundrobin"})
		if err != nil {
			b.Fatal(err)
		}
		out, err := wordcount.RunOn(job, src, wordcount.Options{
			MapSplits: 8, ReduceSplits: 4, DisableCombiner: disableCombiner})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := out.Collect(); err != nil {
			b.Fatal(err)
		}
		job.Close()
	}
}

func BenchmarkCombinerAblation(b *testing.B) {
	b.Run("with-combiner", func(b *testing.B) { benchWordCountLocal(b, false) })
	b.Run("without-combiner", func(b *testing.B) { benchWordCountLocal(b, true) })
}

func benchIterativeCluster(b *testing.B, disableAffinity bool, sharedDir string) {
	reg := core.NewRegistry()
	reg.RegisterMap("identity", func(k, v []byte, e kvio.Emitter) error { return e.Emit(k, v) })
	c, err := cluster.Start(reg, cluster.Options{
		Slaves:          4,
		DisableAffinity: disableAffinity,
		SharedDir:       sharedDir,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	job := core.NewJob(c.Executor())
	defer job.Close()
	payload := make([]byte, 4096)
	ds, err := job.LocalData([]kvio.Pair{
		{Key: codec.EncodeVarint(1), Value: payload},
		{Key: codec.EncodeVarint(2), Value: payload},
		{Key: codec.EncodeVarint(3), Value: payload},
		{Key: codec.EncodeVarint(4), Value: payload},
	}, core.OpOpts{Splits: 4, Partition: "roundrobin"})
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.Wait(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err = job.Map(ds, "identity", core.OpOpts{Splits: 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAffinityAblation(b *testing.B) {
	b.Run("affinity", func(b *testing.B) { benchIterativeCluster(b, false, "") })
	b.Run("no-affinity", func(b *testing.B) { benchIterativeCluster(b, true, "") })
}

func BenchmarkDataPathAblation(b *testing.B) {
	b.Run("direct-http", func(b *testing.B) { benchIterativeCluster(b, false, "") })
	b.Run("shared-fs", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "mrs-shared-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		benchIterativeCluster(b, false, dir)
	})
}

func BenchmarkImplementations(b *testing.B) {
	mk := map[string]func(reg *core.Registry) (core.Executor, error){
		"serial": func(reg *core.Registry) (core.Executor, error) { return core.NewSerial(reg), nil },
		"mock": func(reg *core.Registry) (core.Executor, error) {
			return core.NewMockParallel(reg, "")
		},
		"threads": func(reg *core.Registry) (core.Executor, error) { return core.NewThreads(reg, 4), nil },
	}
	var lines []kvio.Pair
	for i := 0; i < 200; i++ {
		lines = append(lines, kvio.Pair{
			Key:   codec.EncodeVarint(int64(i)),
			Value: []byte(fmt.Sprintf("w%d x y z w%d", i%17, i%5)),
		})
	}
	for name, factory := range mk {
		name, factory := name, factory
		b.Run(name, func(b *testing.B) {
			reg := core.NewRegistry()
			wordcount.Register(reg)
			exec, err := factory(reg)
			if err != nil {
				b.Fatal(err)
			}
			defer exec.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := core.NewJob(exec)
				src, err := job.LocalData(lines, core.OpOpts{Splits: 4, Partition: "roundrobin"})
				if err != nil {
					b.Fatal(err)
				}
				out, err := wordcount.RunOn(job, src, wordcount.Options{MapSplits: 4, ReduceSplits: 2})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := out.Collect(); err != nil {
					b.Fatal(err)
				}
				job.Close()
			}
		})
	}
}

// BenchmarkSplitModelAblation compares whole-file packed splits
// (TextFileData: whole files packed up to core.FileSplitBytes, so these
// two files share one split) against Hadoop-style byte-range splits on
// the same corpus: few large files starve whole-file parallelism.
func BenchmarkSplitModelAblation(b *testing.B) {
	dir, err := os.MkdirTemp("", "mrs-split-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	paths, _, err := corpus.Generate(dir, corpus.Spec{Files: 2, MeanWords: 60000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, splitBytes int64) {
		reg := core.NewRegistry()
		wordcount.Register(reg)
		exec := core.NewThreads(reg, 4)
		defer exec.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job := core.NewJob(exec)
			out, err := wordcount.Run(job, paths, wordcount.Options{
				MapSplits: 8, ReduceSplits: 4, SplitBytes: splitBytes})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := out.Collect(); err != nil {
				b.Fatal(err)
			}
			job.Close()
		}
	}
	b.Run("whole-file-packed", func(b *testing.B) { run(b, 0) })
	b.Run("ranged-64k", func(b *testing.B) { run(b, 64<<10) })
}
