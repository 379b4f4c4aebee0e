package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/align"
	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/likelihood"
	"repro/internal/sched"
	"repro/internal/seq"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// The layer microbenches time one public function of one module in a single
// goroutine, from outside the module. They say what a layer costs on its
// own; whether that cost matters end to end is for the workloads to show.

// The sinks keep results alive so the compiler cannot drop the measured
// calls. They are typed: storing into an interface would itself allocate.
var (
	sinkInt   int64
	sinkFloat float64
	sinkBytes []byte
)

// timeOps calls op until budget has elapsed — at least once, in batches so
// that reading the clock does not dominate a nanosecond-scale op — and
// returns the time and the heap allocations per call.
func timeOps(budget time.Duration, op func()) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n, batch := 0, 1
	for {
		for range batch {
			op()
		}
		n += batch
		elapsed := time.Since(start)
		if elapsed >= budget {
			runtime.ReadMemStats(&after)
			return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
		}
		if elapsed < budget/8 {
			batch *= 2
		}
	}
}

// microbench is one set-up and the metrics one repetition of it yields.
type microbench struct {
	metrics []string
	run     func(budget time.Duration) ([]float64, error)
}

// microbenches prepares every microbench's inputs from the seed.
func microbenches(ctx context.Context, seed int64, sc *scale) ([]microbench, error) {
	rng := rand.New(rand.NewSource(seed))
	gen := seq.NewGenerator(seq.Protein, seed)

	// internal/align: score one 300x300 pair, BLOSUM62, affine gaps.
	a, b := gen.Random("a", 300).Residues, gen.Random("b", 300).Residues
	aligner := func(metric, alg string) (microbench, error) {
		al, err := align.New(alg, align.Params{Matrix: seq.BLOSUM62, Gap: align.Gap{Open: 10, Extend: 1}}, 0)
		return microbench{[]string{metric}, func(budget time.Duration) ([]float64, error) {
			ns, _ := timeOps(budget, func() { sinkInt = int64(al.Score(a, b)) })
			return []float64{float64(len(a)*len(b)) / ns * 1e3}, nil
		}}, err
	}
	sw, err := aligner("align.sw_mcells_per_s", align.AlgSmithWaterman)
	if err != nil {
		return nil, err
	}
	nw, err := aligner("align.nw_mcells_per_s", align.AlgNeedlemanWunsch)
	if err != nil {
		return nil, err
	}

	// internal/likelihood: one tree, HKY85 with four gamma categories.
	sim, err := simulate(sc.microTaxa, sc.microSites, seed)
	if err != nil {
		return nil, err
	}
	tree := sim.tree
	eval, err := likelihood.NewEvaluator(sim.model, sim.rates, likelihood.Compress(sim.aln))
	if err != nil {
		return nil, err
	}

	// internal/wire flat codec: the two envelopes a drain.tiny unit costs.
	payload := make([]byte, drainPayload)
	rng.Read(payload)
	reply := dist.TaskReply{HasTask: true, ProblemID: "drain.tiny", Epoch: 1,
		Unit: dist.Unit{ID: 123456, Algorithm: drainAlgorithm, Payload: payload, Cost: 1}}
	result := dist.ResultArgs{Donor: "donor-0", ProblemID: "drain.tiny", UnitID: 123456,
		Payload: payload[:4], ElapsedNs: 250, Epoch: 1}
	replyFrame, resultFrame := wire.MarshalFlatMessage(reply), wire.MarshalFlatMessage(result)

	// dist typed codec: a unit of the size dsearch.fine-durable ships.
	type seqUnit struct{ Seqs []*seq.Sequence }
	unit := seqUnit{Seqs: []*seq.Sequence{gen.Random("bg0000", 60)}}

	blob := make([]byte, sc.microBlob)
	rng.Read(blob)
	policy := sched.Adaptive{Target: 250 * time.Millisecond, Bootstrap: 50000, Min: 5000}

	return []microbench{
		sw,
		nw,
		{[]string{"likelihood.loglik_us"}, func(budget time.Duration) ([]float64, error) {
			var err error
			ns, _ := timeOps(budget, func() { sinkFloat, err = eval.LogLikelihood(tree) })
			return []float64{ns / 1e3}, err
		}},
		{[]string{"likelihood.optimize_ms"}, func(budget time.Duration) ([]float64, error) {
			var err error
			ns, _ := timeOps(budget, func() { sinkFloat, err = eval.OptimizeBranchLengths(tree.Clone(), 1, 1e-4) })
			return []float64{ns / 1e6}, err
		}},
		{[]string{"wire.flat_encode_ns", "wire.flat_encode_allocs"}, func(budget time.Duration) ([]float64, error) {
			ns, allocs := timeOps(budget, func() {
				sinkBytes = wire.MarshalFlatMessage(reply)
				sinkBytes = wire.MarshalFlatMessage(result)
			})
			return []float64{ns, allocs}, nil
		}},
		{[]string{"wire.flat_decode_ns", "wire.flat_decode_allocs"}, func(budget time.Duration) ([]float64, error) {
			var err error
			ns, allocs := timeOps(budget, func() {
				var r dist.TaskReply
				var a dist.ResultArgs
				dr, da := wire.NewDecoder(replyFrame), wire.NewDecoder(resultFrame)
				r.UnmarshalFlat(dr)
				a.UnmarshalFlat(da)
				if dr.Err() != nil || da.Err() != nil {
					err = fmt.Errorf("flat decode: %v, %v", dr.Err(), da.Err())
				}
				sinkInt = r.Unit.ID + a.UnitID
			})
			return []float64{ns, allocs}, err
		}},
		{[]string{"dist.typed_codec_us"}, func(budget time.Duration) ([]float64, error) {
			var err error
			ns, _ := timeOps(budget, func() {
				var b []byte
				var u seqUnit
				if b, err = dist.Encode(unit); err == nil {
					u, err = dist.Decode[seqUnit](b)
				}
				sinkInt = int64(len(u.Seqs))
			})
			return []float64{ns / 1e3}, err
		}},
		{[]string{"dist.direct_units_per_s"}, func(budget time.Duration) ([]float64, error) {
			return directDrain(ctx, seed, sc, budget)
		}},
		{[]string{"journal.append_us", "journal.append_sync_ms", "journal.replay_ms"}, func(time.Duration) ([]float64, error) {
			return journalOps(payload, sc.microFolds)
		}},
		{[]string{"wire.bulk_mb_per_s"}, func(budget time.Duration) ([]float64, error) {
			srv, err := wire.NewBulkServer("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			defer srv.Close()
			srv.Put("blob", blob)
			ns, _ := timeOps(budget, func() {
				var got []byte
				if got, err = wire.FetchBlob(srv.Addr(), "blob", 10*time.Second); err == nil && len(got) != len(blob) {
					err = fmt.Errorf("bulk fetch returned %d of %d bytes", len(got), len(blob))
				}
			})
			return []float64{float64(len(blob)) / ns * 1e3}, err
		}},
		{[]string{"sched.budget_ns"}, func(budget time.Duration) ([]float64, error) {
			stats := sched.DonorStats{Throughput: 2e5, Completed: 10}
			ns, _ := timeOps(budget, func() { sinkInt = policy.Budget(stats, 1e6, donors) })
			return []float64{ns}, nil
		}},
	}, nil
}

// directDrain drains drain.tiny problems through an in-process dist.Server —
// RequestTask and SubmitResult called directly, no connection, no codec — so
// the difference to drain.tiny's units_per_s is what the wire costs. Only
// the request/submit loop is timed.
func directDrain(ctx context.Context, seed int64, sc *scale, budget time.Duration) ([]float64, error) {
	alg := drainAlg{}
	var elapsed time.Duration
	units := 0
	for elapsed < budget {
		small := *sc
		small.drainUnits = sc.microDirect
		inst, err := buildDrain(seed, &small)
		if err != nil {
			return nil, err
		}
		srv := dist.NewServer(dist.WithPolicy(sched.Fixed{Size: 1}))
		if err := srv.Submit(ctx, inst.problem); err != nil {
			return nil, err
		}
		start := time.Now()
		for {
			task, _, err := srv.RequestTask(ctx, "direct")
			if err != nil {
				return nil, err
			}
			if task == nil {
				break
			}
			out, _ := alg.ProcessCtx(ctx, task.Unit.Payload)
			if err := srv.SubmitResult(ctx, &dist.Result{ProblemID: task.ProblemID, UnitID: task.Unit.ID,
				Payload: out, Donor: "direct", Epoch: task.Epoch}); err != nil {
				return nil, err
			}
		}
		elapsed += time.Since(start)
		out, err := srv.Wait(ctx, inst.problem.ID)
		if err == nil {
			err = inst.check(out)
		}
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		units += inst.items
	}
	return []float64{float64(units) / elapsed.Seconds()}, nil
}

// journalOps appends n fold records of one drain.tiny result each to a fresh
// journal (buffered appends, then five appends that each wait for their
// fsync), closes it and opens it again, which reads every record back.
func journalOps(payload []byte, n int) ([]float64, error) {
	dir, err := os.MkdirTemp("", "bench-micro-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	fold := &journal.Fold{ProblemID: "drain.tiny", Epoch: 1, Payload: payload}
	start := time.Now()
	for i := range n {
		fold.UnitID = int64(i + 1)
		if err := st.Append(fold); err != nil {
			_ = st.Close()
			return nil, err
		}
	}
	appendUs := float64(time.Since(start)) / float64(n) / 1e3
	const syncs = 5
	start = time.Now()
	for i := range syncs {
		fold.UnitID = int64(n + i + 1)
		if err := st.AppendSync(fold); err != nil {
			_ = st.Close()
			return nil, err
		}
	}
	syncMs := float64(time.Since(start)) / syncs / 1e6
	if err := st.Close(); err != nil {
		return nil, err
	}
	start = time.Now()
	st, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	replayMs := float64(time.Since(start)) / 1e6
	if err := st.Close(); err != nil {
		return nil, err
	}
	if len(rec.Tail) != n+syncs {
		return nil, fmt.Errorf("journal replay found %d of %d records", len(rec.Tail), n+syncs)
	}
	return []float64{appendUs, syncMs, replayMs}, nil
}

// runMicrobenches repeats every microbench sc.reps times, spending about
// budget in total, and summarises each metric over its repetitions.
func runMicrobenches(ctx context.Context, seed int64, sc *scale, budget time.Duration) (map[string]summary, error) {
	benches, err := microbenches(ctx, seed, sc)
	if err != nil {
		return nil, err
	}
	perRep := budget / time.Duration(len(benches)*sc.reps)
	out := make(map[string]summary)
	for _, mb := range benches {
		samples := make([][]float64, len(mb.metrics))
		for range sc.reps {
			vals, err := mb.run(perRep)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mb.metrics[0], err)
			}
			for i, v := range vals {
				samples[i] = append(samples[i], v)
			}
		}
		for i, name := range mb.metrics {
			out[name] = summarize(samples[i], perLayerUnit(name))
		}
	}
	return out, nil
}

// simEfficiency is the stand-in for the heterogeneous-fleet wall-clock this
// sandbox cannot measure: the discrete-event simulator (which runs the real
// sched policy code) drives an 83-donor mixed lab through a divisible
// workload in virtual time and reports the share of donor time spent
// computing. It involves no clock, so it repeats exactly for a seed.
func simEfficiency(seed int64) (float64, error) {
	m, err := simnet.Run(simnet.Config{
		Donors: simnet.HeterogeneousLab(83, seed),
		Policy: sched.Adaptive{Target: 30 * time.Second, Bootstrap: 1000, Min: 100},
		Seed:   seed,
	}, simnet.NewDivisibleWorkload(500_000, 40, 4096))
	if err != nil {
		return 0, err
	}
	return m.Efficiency, nil
}
