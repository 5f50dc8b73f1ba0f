package cluster

import (
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/pso"
)

// inputLedger remembers every key and value slice a kernel was handed,
// with its checksum at the call. Tasks read their input in place, so
// those slices alias resident cache payloads and published RAM buckets.
type inputLedger struct {
	t    *testing.T
	mu   sync.Mutex
	seen []seenInput
}

type seenInput struct {
	fn  string
	b   []byte
	sum uint32
}

// call runs one kernel call, failing the test if it changed its inputs.
func (l *inputLedger) call(fn string, inputs [][]byte, run func() error) error {
	sums := make([]uint32, len(inputs))
	for i, b := range inputs {
		sums[i] = crc32.ChecksumIEEE(b)
	}
	err := run()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, b := range inputs {
		if crc32.ChecksumIEEE(b) != sums[i] {
			l.t.Errorf("%s wrote into its input %q", fn, b)
		}
		l.seen = append(l.seen, seenInput{fn: fn, b: b, sum: sums[i]})
	}
	return err
}

// check fails the test for any input that changed after its call.
func (l *inputLedger) check() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.seen {
		if crc32.ChecksumIEEE(s.b) != s.sum {
			l.t.Errorf("an input of %s changed after the call: %q", s.fn, s.b)
		}
	}
}

// wrap returns a registry of base's named functions, each call routed
// through the ledger.
func (l *inputLedger) wrap(base *core.Registry, maps, reduces []string) *core.Registry {
	reg := core.NewRegistry()
	for _, name := range maps {
		reg.RegisterMapFactory(name, func(params []byte) (core.MapFunc, error) {
			fn, err := base.Map(name, params)
			return func(key, value []byte, emit kvio.Emitter) error {
				return l.call(name, [][]byte{key, value}, func() error { return fn(key, value, emit) })
			}, err
		})
	}
	for _, name := range reduces {
		reg.RegisterReduceFactory(name, func(params []byte) (core.ReduceFunc, error) {
			fn, err := base.Reduce(name, params)
			return func(key []byte, values [][]byte, emit kvio.Emitter) error {
				return l.call(name, append([][]byte{key}, values...), func() error { return fn(key, values, emit) })
			}, err
		})
	}
	return reg
}

// TestInPlaceInputsStayUnchanged runs a k-means chain and a PSO chain on
// a fleet with resident caching on. Every key and value their kernels
// read, which alias resident payloads and own RAM buckets, must have at
// job end the checksum it had when the kernel got it.
func TestInPlaceInputsStayUnchanged(t *testing.T) {
	kcfg := kmeansTestConfig()
	points := slowPoints(180, kcfg.Dims)
	init, err := kmeans.InitialCentroidsPlusPlus(kcfg, points)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := pso.Config{Function: pso.Rosenbrock.Name, Dims: 20, NumSwarms: 4, SwarmSize: 5,
		InnerIters: 5, Tasks: 2, CheckEvery: 1, MaxOuter: 10, Seed: 1}
	for _, chain := range []struct {
		name     string
		register func(*core.Registry) error
		maps     []string
		reduces  []string
		run      func(*core.Job) error
		metric   string // shows the chain read in place
	}{
		{"kmeans", func(reg *core.Registry) error { kmeans.Register(reg); return nil },
			[]string{kmeans.AssignName}, []string{kmeans.UpdateName},
			func(job *core.Job) error {
				src, err := job.LocalData(kmeans.PointPairs(points), core.OpOpts{Splits: kcfg.Tasks, Partition: "roundrobin"})
				if err != nil {
					return err
				}
				_, err = kmeans.RunMapReduce(job, kcfg, src, init)
				return err
			}, obs.MetricResidentHits},
		{"pso", func(reg *core.Registry) error { return pso.Register(reg, pcfg) },
			[]string{pso.MoveName, pso.BestName}, []string{pso.MergeName, pso.MinName},
			func(job *core.Job) error { _, err := pso.RunMapReduce(job, pcfg); return err },
			obs.MetricBucketLocalOpens},
	} {
		t.Run(chain.name, func(t *testing.T) {
			base := core.NewRegistry()
			if err := chain.register(base); err != nil {
				t.Fatal(err)
			}
			ledger := &inputLedger{t: t}
			rt := obs.New(nil)
			c, err := Start(ledger.wrap(base, chain.maps, chain.reduces), Options{Slaves: 2, ResidentBudget: core.DefaultResidentBudget, Obs: rt})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			job := core.NewJobWith(c.Executor(), core.JobOptions{Pipeline: true, Obs: rt})
			if err := chain.run(job); err != nil {
				t.Fatal(err)
			}
			if err := job.Close(); err != nil {
				t.Fatal(err)
			}
			ledger.check()
			if len(ledger.seen) == 0 {
				t.Fatal("no kernel call was recorded")
			}
			if n := rt.M().Snapshot()[chain.metric]; n == 0 {
				t.Errorf("%s = 0: the chain read nothing in place", chain.metric)
			}
		})
	}
}
