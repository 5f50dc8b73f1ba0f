package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/shuffle"
	"repro/internal/xmlrpc"
)

// replayLayers is how many layers share the replay's time budget.
const replayLayers = 9

// minReplaySpan is the least work one replay span covers: fast calls
// are batched so that the span bookkeeping stays far below the work.
const minReplaySpan = 2 * time.Millisecond

// replayer drives one layer at a time through its public API on the
// calling goroutine, a span around each batch of calls, all batches of
// a layer under one parent span.
type replayer struct {
	rec    *recorder
	budget time.Duration // per layer
	dir    string
}

// layer calls fn until the layer's budget is spent (at least once) and
// returns the time inside the calls and their number.
func (rp *replayer) layer(name string, fn func() error) (time.Duration, int, error) {
	parent := rp.rec.reserve()
	begin := time.Now()
	var total time.Duration
	n := 0
	for n == 0 || time.Since(begin) < rp.budget {
		start := time.Now()
		end := start
		for end.Sub(start) < minReplaySpan {
			if err := fn(); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
			n++
			end = time.Now()
		}
		rp.rec.add(name+" calls", "replay", parent, -1, start, end)
		total += end.Sub(start)
	}
	rp.rec.addReserved(parent, "replay:"+name, "replay", 0, -1, begin, time.Now())
	return total, n, nil
}

func (rp *replayer) run(inst *instance, payload []kvio.Pair, m map[string]float64) error {
	if len(payload) == 0 {
		return fmt.Errorf("captured map-output split is empty")
	}
	if err := rp.controlPlane(inst, m); err != nil {
		return err
	}
	return rp.dataPlane(inst, payload, m)
}

// controlPlane replays what one task costs the control plane: a real
// assignment and task_done report of this workload through the XML-RPC
// codecs, the same over loopback HTTP, and the scheduler's bookkeeping.
func (rp *replayer) controlPlane(inst *instance, m map[string]float64) error {
	assign := rpcproto.Assignment{Status: rpcproto.StatusTask, TaskID: 7, Attempt: 1, Spec: &inst.assign}
	outputs := make([]bucket.Descriptor, inst.mapSplits)
	for s := range outputs {
		name := core.BucketNameJob(1, inst.assign.Op.Dataset, 0, s)
		outputs[s] = bucket.Descriptor{Name: name, URL: "http://127.0.0.1:40000/data/" + name, Records: 1000, Bytes: 100000}
	}
	timing := obs.Timing{WallNS: 1e6, ShuffleNS: 1e5, InBytes: 1e5, InRecords: 1e3, OutBytes: 1e5, OutRecords: 1e3}
	getArgs := []any{"slave-1", int64(5000)}
	doneArgs := func() []any {
		return []any{"slave-1", int64(1), int64(7), rpcproto.EncodeDescriptors(outputs), rpcproto.EncodeTiming(timing)}
	}
	decodeAssign := func(v any) error { _, err := rpcproto.DecodeAssignment(v); return err }
	decodeDone := func(args []any) error {
		if len(args) < 5 {
			return fmt.Errorf("task_done with %d args", len(args))
		}
		rpcproto.DecodeTiming(args[4])
		_, err := rpcproto.DecodeDescriptors(args[3])
		return err
	}

	const tasksPerCall = 20
	total, n, err := rp.layer("xmlrpc.codec", func() error {
		for i := 0; i < tasksPerCall; i++ {
			if err := codecRoundTrip(rpcproto.MethodGetTask, getArgs, func([]any) (any, error) { return assign.Encode() }, decodeAssign); err != nil {
				return err
			}
			if err := codecRoundTrip(rpcproto.MethodTaskDone, doneArgs(), func(args []any) (any, error) { return true, decodeDone(args) },
				func(any) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["xmlrpc.codec_us"] = float64(total.Microseconds()) / float64(n*tasksPerCall*rpcsPerTask)

	srv := xmlrpc.NewServer()
	srv.Register(rpcproto.MethodGetTask, func([]any) (any, error) { return assign.Encode() })
	srv.Register(rpcproto.MethodTaskDone, func(args []any) (any, error) { return true, decodeDone(args) })
	mux := http.NewServeMux()
	mux.Handle(xmlrpc.RPCPath, srv)
	hs := httptest.NewServer(mux)
	defer hs.Close()
	client := xmlrpc.NewClient(hs.URL + xmlrpc.RPCPath)
	defer client.CloseIdle()
	total, n, err = rp.layer("xmlrpc.roundtrip", func() error {
		for i := 0; i < tasksPerCall; i++ {
			v, err := client.Call(rpcproto.MethodGetTask, getArgs...)
			if err != nil {
				return err
			}
			if err := decodeAssign(v); err != nil {
				return err
			}
			if _, err := client.Call(rpcproto.MethodTaskDone, doneArgs()...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["xmlrpc.roundtrip_us"] = float64(total.Microseconds()) / float64(n*tasksPerCall*rpcsPerTask)

	// One task is pending at a time, as in the iterative workloads; a
	// deep queue would add its scan to the cost.
	const dispatchTasks = 10000
	total, n, err = rp.layer("sched.dispatch", func() error {
		s := sched.New(sched.DefaultMaxAttempts)
		defer s.Close()
		op := &core.Operation{Kind: core.OpMap, Dataset: 1, FuncName: "noop", Splits: 1}
		slaves := [fleetSlaves]string{"slave-1", "slave-2"}
		for i := 0; i < dispatchTasks; i++ {
			who := slaves[i%fleetSlaves]
			if _, err := s.Submit(&core.TaskSpec{Op: op, TaskIndex: i % fleetSlaves}, func(*core.TaskResult, error) {}); err != nil {
				return err
			}
			t, err := s.Request(who, 0)
			if err != nil || t == nil {
				return fmt.Errorf("request %d: task %v, err %v", i, t, err)
			}
			if _, err := s.CompleteTask(t.ID, who, &core.TaskResult{Dataset: 1, TaskIndex: t.Spec.TaskIndex}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["sched.dispatch_us"] = float64(total.Microseconds()) / float64(n*dispatchTasks)
	return nil
}

// codecRoundTrip pushes one RPC through every codec step both ends
// perform, without a socket between them.
func codecRoundTrip(method string, args []any, serve func([]any) (any, error), decode func(any) error) error {
	call, err := xmlrpc.MarshalCall(method, args)
	if err != nil {
		return err
	}
	_, got, err := xmlrpc.UnmarshalCall(call)
	if err != nil {
		return err
	}
	v, err := serve(got)
	if err != nil {
		return err
	}
	resp, err := xmlrpc.MarshalResponse(v)
	if err != nil {
		return err
	}
	reply, err := xmlrpc.UnmarshalResponse(resp)
	if err != nil {
		return err
	}
	return decode(reply)
}

// dataPlane replays the captured split the way a reduce task meets it:
// written as one bucket per map task into a file store configured as a
// slave's is by default, served as a slave serves it, fetched, decoded
// and sorted. Rates are payload (key+value) bytes per second.
func (rp *replayer) dataPlane(inst *instance, payload []kvio.Pair, m map[string]float64) error {
	var payloadBytes float64
	for _, p := range payload {
		payloadBytes += float64(len(p.Key) + len(p.Value))
	}
	mbPerS := func(total time.Duration, n int) float64 {
		return payloadBytes * float64(n) / 1e6 / total.Seconds()
	}
	buckets := min(inst.mapTasks, len(payload))

	var store *bucket.Store
	data := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path, err := store.ServeName(strings.TrimPrefix(r.URL.Path, "/data/"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		bucket.ServeBucket(w, r, path)
	}))
	defer data.Close()
	store, err := bucket.NewFileStore(filepath.Join(rp.dir, "replay-store"), data.URL+"/data")
	if err != nil {
		return err
	}
	descs := make([]bucket.Descriptor, buckets)
	total, n, err := rp.layer("bucket.write", func() error {
		for b := range descs {
			w, err := store.Create(core.BucketNameJob(1, 1, b, 0))
			if err != nil {
				return err
			}
			for _, p := range payload[b*len(payload)/buckets : (b+1)*len(payload)/buckets] {
				if err := w.Write(p); err != nil {
					return err
				}
			}
			if descs[b], err = w.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["bucket.write_mb_s"] = mbPerS(total, n)

	fetcher, err := bucket.NewFileStore(filepath.Join(rp.dir, "replay-fetcher"), "")
	if err != nil {
		return err
	}
	defer fetcher.CloseIdle()
	total, n, err = rp.layer("bucket.fetch", func() error {
		for _, d := range descs {
			rc, err := fetcher.Open(d.URL)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, rc)
			if cerr := rc.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["bucket.fetch_mb_s"] = mbPerS(total, n)

	atRest := make([][]byte, buckets)
	urls := make([]string, buckets)
	for b, d := range descs {
		rc, err := store.OpenLocal(d.Name)
		if err != nil {
			return err
		}
		atRest[b], err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return err
		}
		urls[b] = d.URL
	}
	total, n, err = rp.layer("kvio.decode", func() error {
		var records int64
		for _, stream := range atRest {
			r := kvio.NewAnyReader(bytes.NewReader(stream))
			for {
				if _, err := r.ReadShared(); err == io.EOF {
					break
				} else if err != nil {
					r.Release()
					return err
				}
			}
			records += r.Count()
			r.Release()
		}
		if records != int64(len(payload)) {
			return fmt.Errorf("decoded %d records of %d", records, len(payload))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["kvio.decode_mb_s"] = mbPerS(total, n)

	var combine shuffle.CombineFunc
	if inst.combiner != "" {
		fn, err := inst.reg.Reduce(inst.combiner, inst.assign.Op.Params)
		if err != nil {
			return err
		}
		combine = core.CombineAdapter(fn)
	}
	total, n, err = rp.layer("shuffle.sort", func() error {
		s := shuffle.NewSorter(shuffle.Options{SpillBytes: core.DefaultSpillBytes, TempDir: rp.dir, Combine: combine})
		defer s.Close()
		for _, p := range payload {
			if err := s.Add(p); err != nil {
				return err
			}
		}
		return s.Groups(func([]byte, [][]byte) error { return nil })
	})
	if err != nil {
		return err
	}
	m["shuffle.sort_mb_s"] = mbPerS(total, n)

	if len(inst.textPaths) > 0 {
		// Text input: every file opened and split into line records by a
		// map that discards them, on the serial executor.
		total, n, err = rp.layer("core.textsplit", func() error {
			job := core.NewJob(core.NewSerial(inst.reg))
			src, err := job.TextFileData(inst.textPaths)
			if err != nil {
				return err
			}
			ds, err := job.Map(src, discardMapName, core.OpOpts{Splits: 1})
			if err != nil {
				return err
			}
			if err := ds.Wait(); err != nil {
				return err
			}
			return job.Close()
		})
		if err != nil {
			return err
		}
		m["core.textsplit_ms"] = float64(total.Microseconds()) / 1e3 / float64(n)
	}

	const gets = 1000
	cache := core.NewResidentCache(core.DefaultResidentBudget)
	key := core.ResidentKey{Job: 1, Dataset: 0, Split: 0}
	cache.Put(key, urls, atRest)
	total, n, err = rp.layer("core.resident_get", func() error {
		for i := 0; i < gets; i++ {
			if _, ok := cache.Get(key, urls); !ok {
				return fmt.Errorf("resident cache lost its entry")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["core.resident_get_us"] = float64(total.Nanoseconds()) / 1e3 / float64(n*gets)
	return nil
}
