// mrs-bench regenerates every table and figure of the paper's
// evaluation (§V). Each experiment prints the same rows/series the
// paper reports; EXPERIMENTS.md records paper-vs-measured values.
//
//	mrs-bench -exp all
//	mrs-bench -exp wordcount -scale 0.01
//	mrs-bench -exp pi-a -live-max 10000000
//	mrs-bench -exp pso -outer 40
//	mrs-bench -exp iter
//	mrs-bench -exp crossover | script | prog
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hadoopsim"
	"repro/internal/interp"
	"repro/internal/journal"
	"repro/internal/kmeans"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pbs"
	"repro/internal/piest"
	"repro/internal/pso"
	"repro/internal/wordcount"
)

var (
	exp      = flag.String("exp", "all", "experiment: prog|script|wordcount|pi-a|pi-b|crossover|pso|iter|tenancy|recovery|fleet|all")
	scale    = flag.Float64("scale", 0.003, "corpus scale for -exp wordcount (1.0 = the paper's 31,173 files)")
	liveMax  = flag.Uint64("live-max", 4_000_000, "largest sample count to run live for pi experiments")
	outer    = flag.Int("outer", 30, "outer iterations for -exp pso")
	dims     = flag.Int("dims", 250, "dimensions for -exp pso")
	slaves   = flag.Int("slaves", 4, "slaves for distributed measurements")
	iterN    = flag.Int("iters", 50, "iterations for -exp iter overhead measurement")
	iterJSON = flag.String("iter-json", "BENCH_iter.json", "file for -exp iter machine-readable results (empty disables)")
	tenJSON  = flag.String("tenancy-json", "BENCH_tenancy.json", "file for -exp tenancy machine-readable results (empty disables)")
	recJSON  = flag.String("recovery-json", "BENCH_recovery.json", "file for -exp recovery machine-readable results (empty disables)")
	recReps  = flag.Int("recovery-reps", 5, "repetitions per config for the -exp recovery overhead measurement")
	fltJSON  = flag.String("fleet-json", "BENCH_fleet.json", "file for -exp fleet machine-readable results (empty disables)")
	trackers = flag.Int("trackers", 21, "simulated Hadoop TaskTrackers (paper: 21 nodes)")
	csvDir   = flag.String("csv", "", "directory to also write figure series as CSV files")
)

// writeCSV writes rows to <csvDir>/<name>.csv when -csv is set.
func writeCSV(name string, header []string, rows [][]string) error {
	if *csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("(wrote %s)\n", filepath.Join(*csvDir, name+".csv"))
	return f.Close()
}

func main() {
	flag.Parse()
	run := func(name string, fn func() error) {
		fmt.Printf("\n===== %s =====\n\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "mrs-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	all := *exp == "all"
	if all || *exp == "prog" {
		run("EXP-PROG: Programs 1 & 2 (code comparison)", expProg)
	}
	if all || *exp == "script" {
		run("EXP-SCRIPT: Programs 3 & 4 (startup scripts)", expScript)
	}
	if all || *exp == "wordcount" {
		run("EXP-WC: WordCount on the Gutenberg-style corpus", expWordCount)
	}
	if all || *exp == "pi-a" {
		run("EXP-PI-A: Figure 3a (pi, pure-interpreter inner loop)", func() error { return expPi(false) })
	}
	if all || *exp == "pi-b" {
		run("EXP-PI-B: Figure 3b (pi, C inner loop)", func() error { return expPi(true) })
	}
	if all || *exp == "crossover" {
		run("EXP-CROSS: task-time crossover claims", expCrossover)
	}
	if all || *exp == "pso" {
		run("EXP-PSO: Figure 4 (Apiary PSO, Rosenbrock)", expPSO)
	}
	if all || *exp == "iter" {
		run("EXP-ITER: per-iteration overhead and the 2471-iteration extrapolation", expIter)
	}
	if all || *exp == "tenancy" {
		run("EXP-TENANCY: one fleet, many jobs — throughput and small-job latency", expTenancy)
	}
	if all || *exp == "recovery" {
		run("EXP-RECOVERY: journal overhead and crash-replay latency", expRecovery)
	}
	if all || *exp == "fleet" {
		run("EXP-FLEET: control-plane scaling and speculative straggler rescue", expFleet)
	}
}

func expProg() error {
	fmt.Print(pbs.NewProgramComparison().String())
	return nil
}

func expScript() error {
	fmt.Print(pbs.Compare(8, 1<<30, 1000).String())
	fmt.Println("\n(mrs-submit -scripts prints both scripts in full)")
	return nil
}

// hadoopCluster builds the calibrated simulator.
func hadoopCluster() (*hadoopsim.Cluster, error) {
	return hadoopsim.NewCluster(*trackers, hadoopsim.DefaultProfile())
}

func expWordCount() error {
	hc, err := hadoopCluster()
	if err != nil {
		return err
	}
	type row struct {
		name  string
		spec  corpus.Spec
		paper string
	}
	rows := []row{
		{"full (31,173 files)", corpus.PaperFullSpec(*scale, 7),
			"Hadoop startup alone ~9 min; Mrs total < 9 min"},
		{"subset (8,316 files)", corpus.PaperSubsetSpec(*scale, 7),
			"Hadoop 1 min prep / 16 min total; Mrs 2 min total"},
	}
	// Keep the bench runnable on a laptop: scale token volume with the
	// same factor as the file count.
	for i := range rows {
		rows[i].spec.MeanWords = int(float64(rows[i].spec.MeanWords) * *scale * 10)
		if rows[i].spec.MeanWords < 50 {
			rows[i].spec.MeanWords = 50
		}
	}

	fmt.Printf("corpus scale %.4f (files and tokens scaled together)\n\n", *scale)
	fmt.Printf("%-22s %8s %12s %14s %14s %16s %16s\n",
		"dataset", "files", "tokens", "mrs-total", "mrs/file", "hadoop-scan(sim)", "hadoop-total(sim)")
	for _, r := range rows {
		dir, err := os.MkdirTemp("", "mrs-bench-wc-*")
		if err != nil {
			return err
		}
		paths, stats, err := corpus.Generate(dir, r.spec)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}

		reg := core.NewRegistry()
		wordcount.Register(reg)
		c, err := cluster.Start(reg, cluster.Options{Slaves: *slaves})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		start := time.Now()
		job := core.NewJob(c.Executor())
		out, err := wordcount.Run(job, paths, wordcount.Options{MapSplits: *slaves * 2, ReduceSplits: *slaves})
		if err == nil {
			_, err = out.Collect()
		}
		job.Close()
		c.Close()
		mrsTotal := time.Since(start)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}

		// Hadoop side, simulated with the *unscaled* paper file count
		// (the simulator is analytic, so no scaling is needed). Per-map
		// compute uses a documented 2012-era Hadoop map throughput of
		// ~26k tokens/s per slot (calibrated from the paper's subset
		// total: 16 min - 1 min prep over 8,316 files of ~64k tokens).
		const hadoopTokensPerSec = 26000.0
		fullFiles := int(float64(stats.Files) / *scale)
		tokensPerFile := float64(stats.Tokens) / float64(stats.Files) / (*scale * 10)
		mapTime := time.Duration(tokensPerFile / hadoopTokensPerSec * float64(time.Second))
		sim, err := hc.Run(hadoopsim.Job{
			Maps: fullFiles, Reduces: *trackers * 2,
			MapTime: mapTime, ReduceTime: 5 * time.Second,
			InputFiles: fullFiles,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %8d %12d %14s %14s %16s %16s\n",
			r.name, stats.Files, stats.Tokens,
			mrsTotal.Round(time.Millisecond),
			(mrsTotal / time.Duration(maxInt(stats.Files, 1))).Round(time.Microsecond),
			sim.InputScan.Round(time.Second),
			sim.Makespan.Round(time.Second))
		fmt.Printf("%-22s paper: %s\n", "", r.paper)
	}
	fmt.Println("\nnote: mrs columns are live measurements on the local cluster at the")
	fmt.Println("requested scale; hadoop columns are the calibrated simulator at the")
	fmt.Println("paper's full file counts. Shape check: Hadoop's input scan alone")
	fmt.Println("exceeds the whole (scaled-up) Mrs run, as in §V-B.")
	return nil
}

// measureMrsOverhead times empty identity-map iterations on a live
// local cluster, returning (startup, per-iteration overhead).
func measureMrsOverhead(iters int) (time.Duration, time.Duration, error) {
	reg := core.NewRegistry()
	reg.RegisterMap("identity", func(k, v []byte, e kvio.Emitter) error { return e.Emit(k, v) })
	bootStart := time.Now()
	c, err := cluster.Start(reg, cluster.Options{Slaves: *slaves})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	startup := time.Since(bootStart)
	job := core.NewJob(c.Executor())
	defer job.Close()
	ds, err := job.LocalData(
		[]kvio.Pair{{Key: codec.EncodeVarint(1), Value: []byte("x")}},
		core.OpOpts{Splits: *slaves, Partition: "roundrobin"})
	if err != nil {
		return 0, 0, err
	}
	if err := ds.Wait(); err != nil {
		return 0, 0, err
	}
	iterStart := time.Now()
	for i := 0; i < iters; i++ {
		ds, err = job.Map(ds, "identity", core.OpOpts{Splits: *slaves})
		if err != nil {
			return 0, 0, err
		}
		if err := ds.Wait(); err != nil {
			return 0, 0, err
		}
	}
	perIter := time.Since(iterStart) / time.Duration(iters)
	return startup, perIter, nil
}

func expPi(cInner bool) error {
	hc, err := hadoopCluster()
	if err != nil {
		return err
	}
	hadoopOverhead, err := hc.OverheadEmpty()
	if err != nil {
		return err
	}
	fmt.Println("calibrating: measuring Go per-sample cost and live Mrs overhead...")
	perSample := interp.CalibrateSampleCost(1 << 21)
	startup, mrsOverhead, err := measureMrsOverhead(20)
	if err != nil {
		return err
	}
	fmt.Printf("per-sample (tier C) = %v; mrs startup = %v; mrs per-op overhead = %v; hadoop per-op overhead (sim) = %v\n\n",
		perSample, startup.Round(time.Millisecond), mrsOverhead.Round(time.Millisecond), hadoopOverhead.Round(time.Second))

	var series []interp.Model
	par := *slaves
	mk := func(name string, tier interp.Tier, overhead, boot time.Duration) interp.Model {
		return interp.Model{Name: name, Startup: boot, Overhead: overhead,
			SampleCost: tier.Scale(perSample), Parallelism: par}
	}
	hadoop := mk("hadoop/java", interp.Java, hadoopOverhead, 0)
	if cInner {
		series = []interp.Model{hadoop,
			mk("mrs/c(ctypes)", interp.C, mrsOverhead, startup),
			mk("mrs/pypy+c", interp.PyPy, mrsOverhead, startup)}
	} else {
		series = []interp.Model{hadoop,
			mk("mrs/cpython", interp.CPython, mrsOverhead, startup),
			mk("mrs/pypy", interp.PyPy, mrsOverhead, startup)}
	}

	header := []string{"samples"}
	for _, s := range series {
		header = append(header, s.Name+"_seconds")
	}
	header = append(header, "mrs_live_c_seconds")
	var csvRows [][]string

	fmt.Printf("%-12s", "samples")
	for _, s := range series {
		fmt.Printf(" %16s", s.Name)
	}
	fmt.Printf(" %16s\n", "mrs live (tier C)")
	for e := 0; e <= 9; e++ {
		n := uint64(1)
		for i := 0; i < e; i++ {
			n *= 10
		}
		row := []string{strconv.FormatUint(n, 10)}
		fmt.Printf("%-12d", n)
		for _, s := range series {
			d := s.Predict(n)
			fmt.Printf(" %16s", d.Round(time.Millisecond))
			row = append(row, strconv.FormatFloat(d.Seconds(), 'g', 6, 64))
		}
		if n <= *liveMax {
			live, err := livePi(n)
			if err != nil {
				return err
			}
			fmt.Printf(" %16s", live.Round(time.Millisecond))
			row = append(row, strconv.FormatFloat(live.Seconds(), 'g', 6, 64))
		} else {
			fmt.Printf(" %16s", "-")
			row = append(row, "")
		}
		csvRows = append(csvRows, row)
		fmt.Println()
	}
	figName := "fig3a"
	if cInner {
		figName = "fig3b"
	}
	if err := writeCSV(figName, header, csvRows); err != nil {
		return err
	}
	fmt.Println("\nshape check: on the left every mrs series sits orders of magnitude")
	fmt.Println("below hadoop (overhead-dominated); on the right the slopes are the")
	fmt.Println("language factors. In Figure 3b the C series stays below hadoop/java")
	fmt.Println("everywhere, as the paper reports.")
	return nil
}

// livePi actually runs the pi program on an in-process parallel
// executor and returns the wall time.
func livePi(n uint64) (time.Duration, error) {
	cfg := piest.Config{Samples: n, Tasks: *slaves * 2}
	reg := core.NewRegistry()
	piest.Register(reg, cfg)
	exec := core.NewThreads(reg, *slaves)
	defer exec.Close()
	job := core.NewJob(exec)
	defer job.Close()
	res, err := piest.Run(job, cfg)
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

func expCrossover() error {
	hc, err := hadoopCluster()
	if err != nil {
		return err
	}
	hadoopOverhead, err := hc.OverheadEmpty()
	if err != nil {
		return err
	}
	perSample := 30 * time.Nanosecond // cancels out; any base works
	mrsOverhead := 300 * time.Millisecond
	hadoop := interp.Model{Name: "hadoop/java", Overhead: hadoopOverhead,
		SampleCost: interp.Java.Scale(perSample), Parallelism: 1}
	fmt.Printf("%-14s %20s %22s\n", "mrs tier", "crossover samples", "hadoop task time there")
	for _, tier := range []interp.Tier{interp.CPython, interp.PyPy, interp.C} {
		m := interp.Model{Name: tier.Name, Overhead: mrsOverhead,
			SampleCost: tier.Scale(perSample), Parallelism: 1}
		n := interp.CrossoverSamples(m, hadoop)
		if n == 0 {
			fmt.Printf("%-14s %20s %22s\n", tier.Name, "never", "mrs wins at all sizes")
			continue
		}
		taskTime := time.Duration(float64(n) * float64(hadoop.SampleCost))
		fmt.Printf("%-14s %20d %22s\n", tier.Name, n, taskTime.Round(time.Second))
	}
	fmt.Println("\npaper: advantage while task times < ~32 s (pure Python), extended to")
	fmt.Println("~40 s with C+PyPy; with the C inner loop Mrs is faster everywhere.")
	return nil
}

func expPSO() error {
	cfg := pso.Config{
		Function:   "rosenbrock",
		Dims:       *dims,
		NumSwarms:  8,
		SwarmSize:  5,
		InnerIters: 100,
		Seed:       42,
		MaxOuter:   *outer,
		Tasks:      *slaves,
		CheckEvery: 1,
	}
	fmt.Printf("Apiary, %s-%d, %d subswarms x %d particles, %d inner iterations/map\n\n",
		cfg.Function, cfg.Dims, cfg.NumSwarms, cfg.SwarmSize, cfg.InnerIters)

	serialRes, err := pso.RunSerial(cfg)
	if err != nil {
		return err
	}

	reg := core.NewRegistry()
	if err := pso.Register(reg, cfg); err != nil {
		return err
	}
	c, err := cluster.Start(reg, cluster.Options{Slaves: *slaves})
	if err != nil {
		return err
	}
	defer c.Close()
	job := core.NewJob(c.Executor())
	defer job.Close()
	mrRes, err := pso.RunMapReduce(job, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("%-8s %-12s %-14s %-14s %-12s %-12s\n",
		"iter", "evals", "best(serial)", "best(mr)", "t(serial)", "t(mr)")
	var csvRows [][]string
	for i := range serialRes.History {
		s := serialRes.History[i]
		var m pso.Point
		if i < len(mrRes.History) {
			m = mrRes.History[i]
		}
		match := " "
		if s.Best != m.Best {
			match = "!"
		}
		fmt.Printf("%-8d %-12d %-14.6g %-14.6g %-12s %-12s %s\n",
			s.OuterIter, s.Evaluations, s.Best, m.Best,
			s.Elapsed.Round(time.Millisecond), m.Elapsed.Round(time.Millisecond), match)
		csvRows = append(csvRows, []string{
			strconv.Itoa(s.OuterIter),
			strconv.FormatInt(s.Evaluations, 10),
			strconv.FormatFloat(s.Best, 'g', 8, 64),
			strconv.FormatFloat(m.Best, 'g', 8, 64),
			strconv.FormatFloat(s.Elapsed.Seconds(), 'g', 6, 64),
			strconv.FormatFloat(m.Elapsed.Seconds(), 'g', 6, 64),
		})
	}
	if err := writeCSV("fig4", []string{
		"iter", "evaluations", "best_serial", "best_mr", "t_serial_seconds", "t_mr_seconds",
	}, csvRows); err != nil {
		return err
	}
	fmt.Printf("\nserial: best %.6g in %v (%v/iter)\n", serialRes.Best,
		serialRes.Elapsed.Round(time.Millisecond),
		(serialRes.Elapsed / time.Duration(maxInt(serialRes.OuterIters, 1))).Round(time.Microsecond))
	fmt.Printf("mapreduce (distributed, %d slaves): best %.6g in %v (%v/iter)\n",
		*slaves, mrRes.Best, mrRes.Elapsed.Round(time.Millisecond),
		(mrRes.Elapsed / time.Duration(maxInt(mrRes.OuterIters, 1))).Round(time.Microsecond))
	fmt.Println("\nshape check: identical best-vs-evaluations trajectories (the '!' column")
	fmt.Println("is empty), so parallelism changes only the time axis, as in Figure 4.")
	return nil
}

// splitKeyPairs returns one key per hash split of n, so an n-split
// dataset of these keys carries exactly one record per split.
func splitKeyPairs(n int) []kvio.Pair {
	pairs := make([]kvio.Pair, 0, n)
	seen := make(map[int]bool)
	for i := 0; len(pairs) < n && i < 100*n; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if s := partition.Hash(k, 0, n); !seen[s] {
			seen[s] = true
			pairs = append(pairs, kvio.Pair{Key: k, Value: []byte("x")})
		}
	}
	return pairs
}

// staggerSleep is the rotating straggler's task time in the chain
// measurement: in iteration i, the reduce task of split (i mod slaves)
// sleeps this long.
const staggerSleep = 20 * time.Millisecond

// measureChainOverhead times a queued chain of iters narrow reduces
// with a rotating straggler on a live cluster — the whole chain
// enqueued up front, one wait at the end — and returns the
// per-operation time plus the job's observed cost breakdown.
// Barriered, every iteration pays the straggler; pipelined, each
// split's chain advances independently so a given split pays only
// every (slaves)th iteration. With pipelined=false the job runs the
// barriered ablation over the identical chain.
func measureChainOverhead(iters int, pipelined bool) (time.Duration, core.JobStats, error) {
	n := *slaves
	reg := core.NewRegistry()
	reg.RegisterReduce("stagger", func(k []byte, vs [][]byte, e kvio.Emitter) error {
		i, err := strconv.Atoi(string(vs[0]))
		if err != nil {
			return err
		}
		if i%n == partition.Hash(k, 0, n) {
			time.Sleep(staggerSleep)
		}
		return e.Emit(k, []byte(strconv.Itoa(i+1)))
	})
	rt := obs.New(nil)
	c, err := cluster.Start(reg, cluster.Options{Slaves: n, Obs: rt})
	if err != nil {
		return 0, core.JobStats{}, err
	}
	defer c.Close()
	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: pipelined, Obs: rt})
	defer job.Close()
	pairs := splitKeyPairs(n)
	for i := range pairs {
		pairs[i].Value = []byte("0")
	}
	ds, err := job.LocalData(pairs, core.OpOpts{Splits: n})
	if err != nil {
		return 0, core.JobStats{}, err
	}
	if err := ds.Wait(); err != nil {
		return 0, core.JobStats{}, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		ds, err = job.Reduce(ds, "stagger", core.OpOpts{Splits: n, KeyAligned: true})
		if err != nil {
			return 0, core.JobStats{}, err
		}
	}
	if err := ds.Wait(); err != nil {
		return 0, core.JobStats{}, err
	}
	return time.Since(start) / time.Duration(iters), job.Stats(), nil
}

// iterWallMS converts per-iteration durations to milliseconds for the
// machine-readable results file.
func iterWallMS(walls []time.Duration) []float64 {
	out := make([]float64, len(walls))
	for i, d := range walls {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// residencyRun is one cell of the EXP-ITER residency ablation: the
// k-means assignment superstep repeated over an invariant point set on
// a live fleet, with the resident cache and split-level pipelining
// each on or off.
type residencyRun struct {
	Resident  bool
	Pipelined bool
	First     time.Duration   // iteration 1 (cold: everything misses)
	Warm      time.Duration   // mean of iterations 2..N
	IterWall  []time.Duration // every iteration's wall clock
	Hits      int64
	Misses    int64
}

// hitRate is Hits/(Hits+Misses), or 0 with no resident traffic.
func (r residencyRun) hitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// measureResidency runs iters supersteps of kmeans assign+update over
// one LocalData point set. The input dataset never changes, so with
// Resident on, iteration 1 shuffles it to the slaves and every later
// iteration reads it from their resident caches.
func measureResidency(iters int, resident, pipelined bool) (residencyRun, error) {
	out := residencyRun{Resident: resident, Pipelined: pipelined}
	// Low K and high Dims keep the assignment I/O-bound (flops per input
	// byte scale with K/8), so the saved per-iteration shuffle dominates
	// the warm wall clock instead of drowning in distance arithmetic.
	cfg := kmeans.Config{K: 2, Dims: 64, MaxIters: iters, Epsilon: 1e-300, Tasks: *slaves, Seed: 5}
	points, _, err := kmeans.GeneratePoints(cfg, 12000)
	if err != nil {
		return out, err
	}
	centroids, err := kmeans.InitialCentroidsPlusPlus(cfg, points)
	if err != nil {
		return out, err
	}
	reg := core.NewRegistry()
	kmeans.Register(reg)
	budget := int64(0)
	if resident {
		budget = core.DefaultResidentBudget
	}
	rt := obs.New(nil)
	c, err := cluster.Start(reg, cluster.Options{Slaves: *slaves, ResidentBudget: budget, Obs: rt})
	if err != nil {
		return out, err
	}
	defer c.Close()
	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: pipelined, Obs: rt})
	defer job.Close()
	src, err := job.LocalData(kmeans.PointPairs(points), core.OpOpts{Splits: cfg.Tasks, Partition: "roundrobin"})
	if err != nil {
		return out, err
	}
	if err := src.Wait(); err != nil {
		return out, err
	}
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		mapped, err := job.Map(src, kmeans.AssignName, core.OpOpts{
			Splits:    1,
			Partition: "constant",
			Combine:   kmeans.UpdateName,
			Params:    kmeans.EncodeCentroids(centroids),
			Resident:  resident,
		})
		if err != nil {
			return out, err
		}
		reduced, err := job.Reduce(mapped, kmeans.UpdateName,
			core.OpOpts{Splits: 1, Partition: "constant", KeyAligned: true})
		if err != nil {
			return out, err
		}
		if _, err := reduced.Collect(); err != nil {
			return out, err
		}
		out.IterWall = append(out.IterWall, time.Since(t0))
		_ = reduced.Free()
		_ = mapped.Free()
	}
	out.First = out.IterWall[0]
	var warm time.Duration
	for _, d := range out.IterWall[1:] {
		warm += d
	}
	if len(out.IterWall) > 1 {
		out.Warm = warm / time.Duration(len(out.IterWall)-1)
	}
	snap := rt.M().Snapshot()
	out.Hits = snap[obs.MetricResidentHits]
	out.Misses = snap[obs.MetricResidentMisses]
	return out, nil
}

func expIter() error {
	hc, err := hadoopCluster()
	if err != nil {
		return err
	}
	hadoopOverhead, err := hc.OverheadEmpty()
	if err != nil {
		return err
	}
	startup, perIter, err := measureMrsOverhead(*iterN)
	if err != nil {
		return err
	}
	perPipelined, pipeStats, err := measureChainOverhead(*iterN, true)
	if err != nil {
		return err
	}
	perBarriered, _, err := measureChainOverhead(*iterN, false)
	if err != nil {
		return err
	}
	const paperIters = 2471
	fmt.Printf("%-44s %14s\n", "quantity", "value")
	fmt.Printf("%-44s %14s   (paper: ~2 s)\n", "mrs cluster startup (measured)", startup.Round(time.Millisecond))
	fmt.Printf("%-44s %14s   (paper: ~0.3 s)\n", "mrs per-operation overhead (measured)", perIter.Round(time.Microsecond))
	fmt.Printf("%-44s %14s\n", "mrs per-op, straggler chain, pipelined", perPipelined.Round(time.Microsecond))
	fmt.Printf("%-44s %14s\n", "mrs per-op, straggler chain, barriered", perBarriered.Round(time.Microsecond))
	speedup := float64(perBarriered) / float64(perPipelined)
	fmt.Printf("%-44s %13.2fx\n", "split-level pipelining speedup", speedup)
	fmt.Printf("%-44s %14s   (paper: >=30 s)\n", "hadoop per-operation overhead (simulated)", hadoopOverhead.Round(time.Second))
	ratio := float64(hadoopOverhead) / float64(perIter)
	fmt.Printf("%-44s %14.0fx  (paper: ~100x, 'two orders of magnitude')\n", "overhead ratio", ratio)
	fmt.Printf("%-44s %14s   (paper: ~20 h)\n", "hadoop, 2471 PSO iterations (extrapolated)",
		(time.Duration(paperIters) * hadoopOverhead).Round(time.Minute))
	fmt.Printf("%-44s %14s\n", "mrs, 2471 PSO iterations (extrapolated)",
		(time.Duration(paperIters) * perIter).Round(time.Second))

	// Overhead decomposition of the pipelined chain, from Job.Stats():
	// summed task wall time split into schedule (executor queueing, RPC,
	// retries), compute, and shuffle (blocked reading input buckets).
	var agg core.OpStats
	var nOps int64
	for _, op := range pipeStats.Ops {
		if op.Func != "stagger" {
			continue
		}
		nOps++
		agg.Tasks += op.Tasks
		agg.WallNS += op.WallNS
		agg.ScheduleNS += op.ScheduleNS
		agg.ComputeNS += op.ComputeNS
		agg.ShuffleNS += op.ShuffleNS
		agg.InBytes += op.InBytes
		agg.OutBytes += op.OutBytes
	}
	perOpUS := func(ns int64) float64 {
		if nOps == 0 {
			return 0
		}
		return float64(ns) / float64(nOps) / float64(time.Microsecond)
	}
	share := func(ns int64) float64 {
		if agg.WallNS == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(agg.WallNS)
	}
	fmt.Printf("\noverhead decomposition, pipelined straggler chain (%d ops, %d tasks):\n", nOps, agg.Tasks)
	fmt.Printf("  %-10s %14s %8s\n", "component", "per op", "share")
	fmt.Printf("  %-10s %13.0fus %7.1f%%\n", "schedule", perOpUS(agg.ScheduleNS), share(agg.ScheduleNS))
	fmt.Printf("  %-10s %13.0fus %7.1f%%\n", "compute", perOpUS(agg.ComputeNS), share(agg.ComputeNS))
	fmt.Printf("  %-10s %13.0fus %7.1f%%\n", "shuffle", perOpUS(agg.ShuffleNS), share(agg.ShuffleNS))
	fmt.Printf("  %-10s %13.0fus %7.1f%%\n", "wall", perOpUS(agg.WallNS), 100.0)

	// Residency ablation: the k-means assignment superstep with the
	// resident cache and pipelining each toggled. The invariant point
	// set shuffles once when resident; every warm iteration serves it
	// from the slaves' caches (docs/ITERATIVE.md discusses this table).
	resIters := *iterN
	if resIters > 30 {
		resIters = 30 // per-iteration cost stabilizes well before 30
	}
	var cells []residencyRun
	for _, cfg := range []struct{ resident, pipelined bool }{
		{false, false}, {false, true}, {true, false}, {true, true},
	} {
		cell, err := measureResidency(resIters, cfg.resident, cfg.pipelined)
		if err != nil {
			return err
		}
		cells = append(cells, cell)
	}
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	fmt.Printf("\nresidency ablation (kmeans assign superstep, %d iters, %d slaves, 12k points):\n",
		resIters, *slaves)
	fmt.Printf("  %-9s %-9s %12s %12s %7s %7s %9s\n",
		"resident", "pipeline", "iter 1", "warm/iter", "hits", "misses", "hit rate")
	for _, cell := range cells {
		rate := "-"
		if cell.Hits+cell.Misses > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*cell.hitRate())
		}
		fmt.Printf("  %-9s %-9s %12s %12s %7d %7d %9s\n",
			onOff(cell.Resident), onOff(cell.Pipelined),
			cell.First.Round(time.Microsecond), cell.Warm.Round(time.Microsecond),
			cell.Hits, cell.Misses, rate)
	}
	residentOn, residentOff := cells[3], cells[1] // pipelined pair
	warmSpeedup := 0.0
	if residentOn.Warm > 0 {
		warmSpeedup = float64(residentOff.Warm) / float64(residentOn.Warm)
	}
	fmt.Printf("  warm per-iteration speedup (pipelined, resident on vs off): %.2fx\n", warmSpeedup)

	if *iterJSON != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"experiment":                    "iter",
			"slaves":                        *slaves,
			"iters":                         *iterN,
			"startup_ms":                    float64(startup) / float64(time.Millisecond),
			"per_op_waited_us":              float64(perIter) / float64(time.Microsecond),
			"per_op_straggler_pipelined_us": float64(perPipelined) / float64(time.Microsecond),
			"per_op_straggler_barriered_us": float64(perBarriered) / float64(time.Microsecond),
			"straggler_sleep_ms":            float64(staggerSleep) / float64(time.Millisecond),
			"pipeline_speedup":              speedup,
			"hadoop_per_op_ms_sim":          float64(hadoopOverhead) / float64(time.Millisecond),
			"overhead_ratio":                ratio,
			"tasks_traced":                  agg.Tasks,
			"per_op_schedule_us":            perOpUS(agg.ScheduleNS),
			"per_op_compute_us":             perOpUS(agg.ComputeNS),
			"per_op_shuffle_us":             perOpUS(agg.ShuffleNS),
			"per_op_wall_us":                perOpUS(agg.WallNS),
			"schedule_share_pct":            share(agg.ScheduleNS),
			"compute_share_pct":             share(agg.ComputeNS),
			"shuffle_share_pct":             share(agg.ShuffleNS),
			"residency_iters":               resIters,
			"resident_hits":                 residentOn.Hits,
			"resident_misses":               residentOn.Misses,
			"resident_hit_rate":             residentOn.hitRate(),
			"resident_on_first_iter_ms":     float64(residentOn.First) / float64(time.Millisecond),
			"resident_on_warm_iter_ms":      float64(residentOn.Warm) / float64(time.Millisecond),
			"resident_off_first_iter_ms":    float64(residentOff.First) / float64(time.Millisecond),
			"resident_off_warm_iter_ms":     float64(residentOff.Warm) / float64(time.Millisecond),
			"resident_warm_speedup":         warmSpeedup,
			"resident_on_iter_wall_ms":      iterWallMS(residentOn.IterWall),
			"resident_off_iter_wall_ms":     iterWallMS(residentOff.IterWall),
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*iterJSON, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\n(wrote %s)\n", *iterJSON)
	}
	return nil
}

// tenancyBenchRegistry: a map whose cost is a fixed sleep (so task
// duration is deterministic and the experiment measures scheduling,
// not CPU contention) and a counting reduce.
func tenancyBenchRegistry(taskCost time.Duration) *core.Registry {
	reg := core.NewRegistry()
	reg.RegisterMap("ten_spin", func(key, value []byte, emit kvio.Emitter) error {
		time.Sleep(taskCost)
		return emit.Emit(key, value)
	})
	reg.RegisterReduce("ten_count", func(key []byte, values [][]byte, emit kvio.Emitter) error {
		return emit.Emit(key, codec.EncodeVarint(int64(len(values))))
	})
	return reg
}

// expTenancy measures what multi-tenancy buys: the same fixed workload
// — a batch of heavy jobs plus one 1-task job submitted behind them —
// run against one fleet at MaxConcurrentJobs 1 (jobs serialized, the
// pre-tenancy behavior) and 4 (fair-share sharing). Reported per
// config: fleet makespan, aggregate task throughput, and the small
// job's submit-to-done latency — the headline being how fair share
// collapses small-job latency while leaving throughput intact.
func expTenancy() error {
	const (
		heavyJobs  = 3 // + the small job = 4 concurrent tenants at width 4
		heavyTasks = 24
		taskCost   = 10 * time.Millisecond
	)
	reg := tenancyBenchRegistry(taskCost)

	heavyInputs := make([]kvio.Pair, heavyTasks)
	for i := range heavyInputs {
		heavyInputs[i] = kvio.Pair{Key: codec.EncodeVarint(int64(i)), Value: []byte("x")}
	}
	smallInputs := []kvio.Pair{{Key: codec.EncodeVarint(0), Value: []byte("x")}}

	runProgram := func(job *core.Job, inputs []kvio.Pair, splits int) error {
		src, err := job.LocalData(inputs, core.OpOpts{Splits: splits, Partition: "roundrobin"})
		if err != nil {
			return err
		}
		out, err := job.Map(src, "ten_spin", core.OpOpts{Splits: splits})
		if err != nil {
			return err
		}
		pairs, err := out.Collect()
		if err != nil {
			return err
		}
		if len(pairs) != len(inputs) {
			return fmt.Errorf("tenancy job: %d records out, want %d", len(pairs), len(inputs))
		}
		return nil
	}

	type rowT struct {
		MaxConcurrent  int     `json:"max_concurrent_jobs"`
		HeavyJobs      int     `json:"heavy_jobs"`
		TasksTotal     int     `json:"tasks_total"`
		FleetWallMS    float64 `json:"fleet_wall_ms"`
		ThroughputTPS  float64 `json:"fleet_tasks_per_sec"`
		SmallLatencyMS float64 `json:"small_job_latency_ms"`
	}
	var rows []rowT

	fmt.Printf("%d heavy jobs x %d tasks (%s each) + one 1-task job, %d slaves x 2 slots\n\n",
		heavyJobs, heavyTasks, taskCost, *slaves)
	fmt.Printf("%-20s %12s %14s %18s\n", "max-concurrent-jobs", "fleet-wall", "tasks/sec", "small-job-latency")
	for _, maxJobs := range []int{1, 4} {
		c, err := cluster.Start(reg, cluster.Options{
			Slaves:            *slaves,
			MaxConcurrentJobs: maxJobs,
			SlaveConcurrency:  2,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < heavyJobs; i++ {
			if _, err := c.Submit(fmt.Sprintf("heavy%d", i), core.JobOptions{Pipeline: true}, func(job *core.Job) error {
				return runProgram(job, heavyInputs, heavyTasks)
			}); err != nil {
				c.Close()
				return err
			}
		}
		smallStart := time.Now()
		small, err := c.Submit("small", core.JobOptions{Pipeline: true}, func(job *core.Job) error {
			return runProgram(job, smallInputs, 1)
		})
		if err != nil {
			c.Close()
			return err
		}
		if err := small.Wait(); err != nil {
			c.Close()
			return err
		}
		smallLatency := time.Since(smallStart)
		c.Jobs().WaitAll()
		wall := time.Since(start)
		c.Close()

		tasks := heavyJobs*heavyTasks + 1
		row := rowT{
			MaxConcurrent:  maxJobs,
			HeavyJobs:      heavyJobs,
			TasksTotal:     tasks,
			FleetWallMS:    float64(wall) / float64(time.Millisecond),
			SmallLatencyMS: float64(smallLatency) / float64(time.Millisecond),
		}
		if wall > 0 {
			row.ThroughputTPS = float64(tasks) / wall.Seconds()
		}
		rows = append(rows, row)
		fmt.Printf("%-20d %12s %14.1f %18s\n",
			maxJobs, wall.Round(time.Millisecond), row.ThroughputTPS, smallLatency.Round(time.Millisecond))
	}

	serialized, shared := rows[0], rows[1]
	latencyDrop := 0.0
	if shared.SmallLatencyMS > 0 {
		latencyDrop = serialized.SmallLatencyMS / shared.SmallLatencyMS
	}
	fmt.Printf("\nsmall-job latency, serialized vs shared fleet: %.1fx lower with 4 concurrent jobs\n", latencyDrop)

	if *tenJSON != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"experiment":              "tenancy",
			"slaves":                  *slaves,
			"heavy_jobs":              heavyJobs,
			"heavy_tasks_per_job":     heavyTasks,
			"task_cost_ms":            float64(taskCost) / float64(time.Millisecond),
			"rows":                    rows,
			"small_job_latency_ratio": latencyDrop,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*tenJSON, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\n(wrote %s)\n", *tenJSON)
	}
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{
			strconv.Itoa(r.MaxConcurrent),
			strconv.FormatFloat(r.FleetWallMS, 'g', 6, 64),
			strconv.FormatFloat(r.ThroughputTPS, 'g', 6, 64),
			strconv.FormatFloat(r.SmallLatencyMS, 'g', 6, 64),
		})
	}
	return writeCSV("tenancy", []string{
		"max_concurrent_jobs", "fleet_wall_ms", "tasks_per_sec", "small_job_latency_ms",
	}, csvRows)
}

// recoveryWorkload runs the EXP-TENANCY heavy batch (3 jobs x 24 tasks
// of fixed 10ms cost on a shared fleet) against a cluster with or
// without a journal and returns the fleet makespan.
func recoveryWorkload(journalDir string) (time.Duration, error) {
	const (
		heavyJobs  = 3
		heavyTasks = 24
		taskCost   = 10 * time.Millisecond
	)
	reg := tenancyBenchRegistry(taskCost)
	inputs := make([]kvio.Pair, heavyTasks)
	for i := range inputs {
		inputs[i] = kvio.Pair{Key: codec.EncodeVarint(int64(i)), Value: []byte("x")}
	}
	c, err := cluster.Start(reg, cluster.Options{
		Slaves:            *slaves,
		MaxConcurrentJobs: 4,
		SlaveConcurrency:  2,
		JournalDir:        journalDir,
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	start := time.Now()
	for i := 0; i < heavyJobs; i++ {
		if _, err := c.Submit(fmt.Sprintf("heavy%d", i), core.JobOptions{Pipeline: true}, func(job *core.Job) error {
			src, err := job.LocalData(inputs, core.OpOpts{Splits: heavyTasks, Partition: "roundrobin"})
			if err != nil {
				return err
			}
			out, err := job.Map(src, "ten_spin", core.OpOpts{Splits: heavyTasks})
			if err != nil {
				return err
			}
			pairs, err := out.Collect()
			if err != nil {
				return err
			}
			if len(pairs) != heavyTasks {
				return fmt.Errorf("recovery workload: %d records out, want %d", len(pairs), heavyTasks)
			}
			return nil
		}); err != nil {
			return 0, err
		}
	}
	c.Jobs().WaitAll()
	return time.Since(start), nil
}

// syntheticJournal writes the journal of a long-lived master: a
// sequence of jobs of 64 tasks each, every job run to completion, for
// n task completions in total. It abandons the journal (no final
// checkpoint) so a subsequent Open replays what a recovering master
// would. checkpointRecords follows journal.Options semantics (negative
// disables compaction; Open then replays every event ever written).
func syntheticJournal(dir string, n, checkpointRecords int) error {
	const tasksPerJob = 64
	j, _, err := journal.Open(dir, journal.Options{CheckpointRecords: checkpointRecords})
	if err != nil {
		return err
	}
	job := int64(0)
	for i := 0; i < n; i++ {
		if i%tasksPerJob == 0 {
			job++
			ev := journal.Event{Kind: journal.EvJobSubmitted, Job: job, Name: "bench", SpecHash: journal.SpecHash("bench", true)}
			if err := j.Append(ev); err != nil {
				return err
			}
		}
		ev := journal.Event{
			Kind:    journal.EvTaskDone,
			Job:     job,
			Dataset: 1,
			Task:    i % tasksPerJob,
			Outputs: []journal.Manifest{{Name: fmt.Sprintf("b%d", i), URL: fmt.Sprintf("file:///tmp/b%d", i), Records: 100, Bytes: 4096}},
			InBytes: 4096,
		}
		if err := j.Append(ev); err != nil {
			return err
		}
		if i%tasksPerJob == tasksPerJob-1 {
			if err := j.Append(journal.Event{Kind: journal.EvJobDone, Job: job}); err != nil {
				return err
			}
		}
	}
	j.Abandon()
	return nil
}

// expRecovery quantifies what durability costs and what recovery
// saves: the journal's overhead on the EXP-TENANCY fleet throughput
// (<3% is the acceptance target), and how replay latency scales with
// journal size — with compaction disabled (worst case) and with the
// default record-count checkpointing that bounds the tail a restart
// must replay.
func expRecovery() error {
	reps := *recReps
	if reps < 1 {
		reps = 1
	}
	fmt.Printf("journal overhead on the EXP-TENANCY workload (%d interleaved reps, best-of):\n\n", reps)
	// One throwaway run warms the scheduler and page cache; then the
	// configs alternate so drift hits both equally, and best-of-reps
	// discards scheduling noise.
	if _, err := recoveryWorkload(""); err != nil {
		return err
	}
	var wallOff, wallOn time.Duration
	for r := 0; r < reps; r++ {
		off, err := recoveryWorkload("")
		if err != nil {
			return err
		}
		if wallOff == 0 || off < wallOff {
			wallOff = off
		}
		dir, err := os.MkdirTemp("", "mrs-bench-journal-*")
		if err != nil {
			return err
		}
		on, err := recoveryWorkload(dir)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if wallOn == 0 || on < wallOn {
			wallOn = on
		}
	}
	overheadPct := 100 * (float64(wallOn) - float64(wallOff)) / float64(wallOff)
	fmt.Printf("%-28s %12s\n", "config", "fleet-wall")
	fmt.Printf("%-28s %12s\n", "journal off", wallOff.Round(time.Millisecond))
	fmt.Printf("%-28s %12s\n", "journal on", wallOn.Round(time.Millisecond))
	fmt.Printf("%-28s %11.2f%%   (target: < 3%%)\n", "overhead", overheadPct)

	type replayRow struct {
		Events      int     `json:"events"`
		Compacted   bool    `json:"compacted"`
		OpenMS      float64 `json:"open_ms"`
		EventsPerMS float64 `json:"events_per_ms"`
	}
	var replay []replayRow
	fmt.Printf("\nreplay latency vs journal size (master restart cost):\n\n")
	fmt.Printf("%-10s %-11s %12s %14s\n", "events", "compacted", "open-time", "events/ms")
	for _, cfg := range []struct {
		n          int
		checkpoint int
	}{
		{1000, -1}, {10000, -1}, {50000, -1}, // compaction off: full replay
		{50000, 0}, // default checkpointing: bounded tail
	} {
		dir, err := os.MkdirTemp("", "mrs-bench-replay-*")
		if err != nil {
			return err
		}
		if err := syntheticJournal(dir, cfg.n, cfg.checkpoint); err != nil {
			os.RemoveAll(dir)
			return err
		}
		start := time.Now()
		j, st, err := journal.Open(dir, journal.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		open := time.Since(start)
		var got int64
		for _, jr := range st.Jobs {
			got += jr.TasksDone
		}
		if got != int64(cfg.n) {
			j.Abandon()
			os.RemoveAll(dir)
			return fmt.Errorf("replay recovered %d completions, want %d", got, cfg.n)
		}
		j.Abandon()
		os.RemoveAll(dir)
		row := replayRow{
			Events:    cfg.n,
			Compacted: cfg.checkpoint >= 0,
			OpenMS:    float64(open) / float64(time.Millisecond),
		}
		if row.OpenMS > 0 {
			row.EventsPerMS = float64(cfg.n) / row.OpenMS
		}
		replay = append(replay, row)
		fmt.Printf("%-10d %-11v %12s %14.0f\n", cfg.n, row.Compacted, open.Round(time.Microsecond), row.EventsPerMS)
	}
	fmt.Println("\nshape check: uncompacted replay is linear in journal size; with the")
	fmt.Println("default checkpointing the restart replays checkpoint + a bounded tail,")
	fmt.Println("so recovery latency stays flat no matter how long the master ran.")

	if *recJSON != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"experiment":           "recovery",
			"slaves":               *slaves,
			"reps":                 reps,
			"wall_off_ms":          float64(wallOff) / float64(time.Millisecond),
			"wall_on_ms":           float64(wallOn) / float64(time.Millisecond),
			"journal_overhead_pct": overheadPct,
			"overhead_target_pct":  3.0,
			"replay":               replay,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*recJSON, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\n(wrote %s)\n", *recJSON)
	}
	return nil
}

// fleetRegistry builds the EXP-FLEET workload: a map whose cost is a
// fixed sleep (sleeping slaves cost no CPU, so 64 of them fit on a
// laptop and the measurement isolates control-plane throughput), with
// an optional one-shot straggler — the first execution of key 0 in
// each cluster's lifetime stalls.
func fleetRegistry(taskCost, stall time.Duration) *core.Registry {
	reg := core.NewRegistry()
	var stalled int32
	reg.RegisterMap("fleet_spin", func(key, value []byte, emit kvio.Emitter) error {
		d := taskCost
		if stall > 0 {
			if n, err := codec.DecodeVarint(key); err == nil && n == 0 &&
				atomic.CompareAndSwapInt32(&stalled, 0, 1) {
				d = stall
			}
		}
		time.Sleep(d)
		return emit.Emit(key, value)
	})
	return reg
}

// fleetRun boots one fleet configuration, drives tasksPerSlave x
// slaves one-record map tasks through it, and returns the job wall
// time (boot and teardown excluded) plus the run's metric snapshot.
func fleetRun(slaveN, subMasters int, specFactor float64, tasksPerSlave int, taskCost, stall time.Duration) (time.Duration, map[string]int64, error) {
	rt := obs.New(nil)
	c, err := cluster.Start(fleetRegistry(taskCost, stall), cluster.Options{
		Slaves:                slaveN,
		SubMasters:            subMasters,
		SpeculationFactor:     specFactor,
		SpeculationMinRuntime: 60 * time.Millisecond,
		Obs:                   rt,
	})
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: true, Obs: rt})
	defer job.Close()
	tasks := tasksPerSlave * slaveN
	inputs := make([]kvio.Pair, tasks)
	for i := range inputs {
		inputs[i] = kvio.Pair{Key: codec.EncodeVarint(int64(i)), Value: []byte("x")}
	}
	src, err := job.LocalData(inputs, core.OpOpts{Splits: tasks, Partition: "roundrobin"})
	if err != nil {
		return 0, nil, err
	}
	if err := src.Wait(); err != nil {
		return 0, nil, err
	}
	start := time.Now()
	out, err := job.Map(src, "fleet_spin", core.OpOpts{Splits: 1})
	if err != nil {
		return 0, nil, err
	}
	// Time through Wait (every task done), not Collect: collection
	// drags each output bucket to the driver one HTTP fetch at a time,
	// which would swamp the control-plane signal at 64 slaves.
	if err := out.Wait(); err != nil {
		return 0, nil, err
	}
	wall := time.Since(start)
	pairs, err := out.Collect()
	if err != nil {
		return 0, nil, err
	}
	if len(pairs) != tasks {
		return 0, nil, fmt.Errorf("fleet run: %d records out, want %d", len(pairs), tasks)
	}
	return wall, rt.M().Snapshot(), nil
}

// fleetSubMasters is the tree shape the sweep uses: one sub-master
// per eight slaves, at least one.
func fleetSubMasters(slaveN int) int {
	if k := slaveN / 8; k > 1 {
		return k
	}
	return 1
}

// expFleet measures what the hierarchical control plane and
// speculative execution buy, on simulated (sleep-cost) slaves so the
// fleet sizes stay laptop-runnable:
//
//   - Scaling sweep: {1,4,16,64} slaves x {flat star, sub-master tree}
//     x {speculation off, on}, each pushing tasksPerSlave fixed-cost
//     tasks per slave. Throughput should scale near-linearly with the
//     tree (the acceptance bar is within 20% of linear from 16 to 64),
//     and uniform-duration speculation should cost ~nothing.
//   - Straggler rescue: a mid-size tree fleet where one task stalls
//     ~10x the normal cost, speculation off vs on. Off pays the full
//     stall; on re-executes the straggler elsewhere and the job
//     finishes early.
func expFleet() error {
	// taskCost is sized so the aggregate completion rate at 64 slaves
	// (64/taskCost = 320 tasks/s) stays well inside what one core can
	// route through the XML-RPC control plane (~1k tasks/s): the sweep
	// should measure how assignment scales with fleet size, not the
	// simulating machine's RPC ceiling.
	const (
		tasksPerSlave = 6
		taskCost      = 200 * time.Millisecond
		stall         = 2 * time.Second
		specFactor    = 2.0
	)
	type rowT struct {
		Slaves       int     `json:"slaves"`
		SubMasters   int     `json:"submasters"`
		Speculation  float64 `json:"speculation_factor"`
		Tasks        int     `json:"tasks"`
		WallMS       float64 `json:"wall_ms"`
		TasksPerSec  float64 `json:"tasks_per_sec"`
		BatchReports int64   `json:"batch_reports"`
		Speculative  int64   `json:"speculative_attempts"`
	}
	var rows []rowT

	fmt.Printf("scaling sweep: %d tasks/slave x %s/task (sleep-cost, so slaves are cheap to simulate)\n\n",
		tasksPerSlave, taskCost)
	fmt.Printf("%-8s %-12s %-12s %8s %12s %12s\n",
		"slaves", "submasters", "speculation", "tasks", "wall", "tasks/sec")
	for _, n := range []int{1, 4, 16, 64} {
		for _, tree := range []bool{false, true} {
			for _, spec := range []bool{false, true} {
				subs := 0
				if tree {
					subs = fleetSubMasters(n)
				}
				factor := 0.0
				if spec {
					factor = specFactor
				}
				wall, snap, err := fleetRun(n, subs, factor, tasksPerSlave, taskCost, 0)
				if err != nil {
					return err
				}
				tasks := tasksPerSlave * n
				row := rowT{
					Slaves:       n,
					SubMasters:   subs,
					Speculation:  factor,
					Tasks:        tasks,
					WallMS:       float64(wall) / float64(time.Millisecond),
					BatchReports: snap[obs.MetricMasterBatchReports],
					Speculative:  snap[obs.MetricSchedSpeculative],
				}
				if wall > 0 {
					row.TasksPerSec = float64(tasks) / wall.Seconds()
				}
				rows = append(rows, row)
				fmt.Printf("%-8d %-12d %-12.1f %8d %12s %12.1f\n",
					n, subs, factor, tasks, wall.Round(time.Millisecond), row.TasksPerSec)
			}
		}
	}

	// Headline: how close the 16 -> 64 throughput step is to the ideal
	// 4x, with the tree and without (speculation off in both).
	pick := func(n int, tree bool) rowT {
		for _, r := range rows {
			if r.Slaves == n && (r.SubMasters > 0) == tree && r.Speculation == 0 {
				return r
			}
		}
		return rowT{}
	}
	linFrac := func(tree bool) float64 {
		lo, hi := pick(16, tree), pick(64, tree)
		if lo.TasksPerSec == 0 {
			return 0
		}
		return hi.TasksPerSec / lo.TasksPerSec / 4.0
	}
	treeFrac, flatFrac := linFrac(true), linFrac(false)
	fmt.Printf("\n16->64 slave throughput scaling (1.0 = perfectly linear): tree %.2f, flat %.2f (target: tree >= 0.80)\n",
		treeFrac, flatFrac)

	// Straggler rescue at 16 slaves under the tree: one task stalls
	// 40x; speculation off waits it out, on re-executes it elsewhere.
	const stragglerSlaves = 16
	fmt.Printf("\nstraggler rescue (%d slaves, %d sub-masters, one task stalls %s):\n\n",
		stragglerSlaves, fleetSubMasters(stragglerSlaves), stall)
	specRows := map[string]rowT{}
	for _, spec := range []bool{false, true} {
		factor := 0.0
		if spec {
			factor = specFactor
		}
		wall, snap, err := fleetRun(stragglerSlaves, fleetSubMasters(stragglerSlaves), factor,
			tasksPerSlave, taskCost, stall)
		if err != nil {
			return err
		}
		row := rowT{
			Slaves:      stragglerSlaves,
			SubMasters:  fleetSubMasters(stragglerSlaves),
			Speculation: factor,
			Tasks:       tasksPerSlave * stragglerSlaves,
			WallMS:      float64(wall) / float64(time.Millisecond),
			Speculative: snap[obs.MetricSchedSpeculative],
		}
		key := "off"
		if spec {
			key = "on"
		}
		specRows[key] = row
		fmt.Printf("speculation %-4s wall %12s speculative attempts %d\n",
			key, wall.Round(time.Millisecond), row.Speculative)
	}
	rescue := 0.0
	if on := specRows["on"]; on.WallMS > 0 {
		rescue = specRows["off"].WallMS / on.WallMS
	}
	fmt.Printf("\nstraggler-wait reduction with speculation: %.2fx\n", rescue)

	if *fltJSON != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"experiment":                 "fleet",
			"tasks_per_slave":            tasksPerSlave,
			"task_cost_ms":               float64(taskCost) / float64(time.Millisecond),
			"stall_ms":                   float64(stall) / float64(time.Millisecond),
			"rows":                       rows,
			"linear_16_to_64_tree":       treeFrac,
			"linear_16_to_64_flat":       flatFrac,
			"linear_target":              0.80,
			"straggler_wall_off_ms":      specRows["off"].WallMS,
			"straggler_wall_on_ms":       specRows["on"].WallMS,
			"straggler_rescue_speedup":   rescue,
			"straggler_spec_attempts_on": specRows["on"].Speculative,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*fltJSON, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\n(wrote %s)\n", *fltJSON)
	}
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{
			strconv.Itoa(r.Slaves), strconv.Itoa(r.SubMasters),
			strconv.FormatFloat(r.Speculation, 'g', 4, 64),
			strconv.Itoa(r.Tasks),
			strconv.FormatFloat(r.WallMS, 'g', 6, 64),
			strconv.FormatFloat(r.TasksPerSec, 'g', 6, 64),
		})
	}
	return writeCSV("fleet", []string{
		"slaves", "submasters", "speculation_factor", "tasks", "wall_ms", "tasks_per_sec",
	}, csvRows)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
