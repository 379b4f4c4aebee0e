package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/wire"
)

// round is one Submit-to-Wait pass of one workload against a fresh loopback
// deployment.
type round struct {
	Traced     bool    `json:"traced"`
	SetupS     float64 `json:"setup_s"`
	MakespanS  float64 `json:"makespan_s"`
	UnitsPerS  float64 `json:"units_per_s"`
	Units      int     `json:"units"`      // units folded
	Dispatched int     `json:"dispatched"` // units handed out, replicas and reissues included
	Failed     int     `json:"failed"`     // units reissued after a failure report or a lost lease
	AllocMB    float64 `json:"alloc_mb"`   // bytes allocated by the whole process while the clock ran

	result []byte
	answer answer             // what the oracle compares (zero when the workload's check is a full verdict)
	layer  map[string]float64 // traced rounds: the per-layer metrics read off the spans
	spans  []span
}

// runRound sets a deployment up, runs the workload through it once and tears
// it down. Set-up is everything before the clock starts: generating the
// inputs, assembling the problem, opening the server (and its journal
// directory), dialing the donors. The clock runs from the start of Submit to
// Wait returning the final result.
func runRound(ctx context.Context, w *workload, seed int64, sc *scale, traced bool) (r *round, err error) {
	setupStart := time.Now()
	inst, err := w.build(seed, sc)
	if err != nil {
		return nil, err
	}
	opts := []dist.ServerOption{dist.WithPolicy(w.policy)}
	var dataDir string
	if w.durable {
		if dataDir, err = os.MkdirTemp("", "bench-journal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
		// Compaction is off so that the journal holds every record of the
		// round. Whether the 2 s compaction scan lands inside a ~2 s round
		// is a coin toss that would make rounds bimodal, and a scan after
		// the last fold would drop the finished problem before journalProbe
		// has looked at it.
		opts = append(opts, dist.WithDataDir(dataDir), dist.WithSnapshotBudget(-1, -1))
	}
	if w.verify > 0 {
		// Probation is off. With it on, two donors and a quorum of two can
		// stall for good: when one donor graduates, a verification set that
		// already holds both donors' agreeing results — both submitted while
		// still on probation — then wants a trusted tie-breaker, and no third
		// donor exists to be one (about 1 tiny-scale run in 40 hung this
		// way). Without probation the verified share is also the configured
		// fraction rather than that plus each donor's first units.
		opts = append(opts, dist.WithVerify(w.verify, 2), dist.WithProbation(-1))
	}
	srv, err := dist.ListenAndServe("127.0.0.1:0", "127.0.0.1:0", opts...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}()

	rec := &recorder{t0: setupStart}
	if traced {
		inst.problem.DM = traceDM(inst.problem.DM, rec)
	}
	donorCtx, stopDonors := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var clients []*dist.RPCClient
	donorErrs := make([]error, donors)
	defer func() {
		stopDonors()
		wg.Wait()
		for _, cl := range clients {
			_ = cl.Close()
		}
		for _, derr := range donorErrs {
			if err == nil {
				err = derr
			}
		}
	}()
	for i := range donors {
		cl, err := dist.Dial(srv.RPCAddr(), 10*time.Second)
		if err != nil {
			return nil, err
		}
		clients = append(clients, cl)
		name := fmt.Sprintf("donor-%d", i)
		var coord dist.Coordinator = cl
		dopts := []dist.DonorOption{dist.WithName(name)}
		if traced {
			tc := &tracedCoord{inner: cl, rec: rec, donor: name}
			coord = tc
			dopts = append(dopts, dist.WithAlgorithmWrapper(func(_ string, a dist.Algorithm) dist.Algorithm {
				return &tracedAlg{inner: a, c: tc}
			}))
		}
		d := dist.NewDonor(coord, dopts...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			donorErrs[i] = d.Run(donorCtx)
		}()
	}
	setup := time.Since(setupStart)

	id := inst.problem.ID
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clockStart := time.Now()
	if err := srv.Submit(ctx, inst.problem); err != nil {
		return nil, err
	}
	out, err := srv.Wait(ctx, id)
	makespan := time.Since(clockStart)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	// Wait returns when the server has folded the last result, which is
	// before the donor that sent it has its reply: let the donors finish so
	// that the last dist.submit span is recorded.
	stopDonors()
	wg.Wait()

	stats, err := srv.Stats(ctx, id)
	if err != nil {
		return nil, err
	}
	if err := inst.check(out); err != nil {
		return nil, err
	}
	r = &round{
		Traced:     traced,
		SetupS:     setup.Seconds(),
		MakespanS:  makespan.Seconds(),
		UnitsPerS:  float64(inst.items) / makespan.Seconds(),
		Units:      stats.Completed,
		Dispatched: stats.Dispatched,
		Failed:     stats.Reissued,
		AllocMB:    float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		result:     out,
	}
	if inst.answer != nil {
		if r.answer, err = inst.answer(out); err != nil {
			return nil, err
		}
	}
	if !traced {
		return r, nil
	}

	// Shift the spans so that zero is the start of the clock.
	rec.mu.Lock()
	r.spans = rec.spans
	rec.mu.Unlock()
	offset := int64(clockStart.Sub(setupStart))
	for i := range r.spans {
		r.spans[i].Start -= offset
		r.spans[i].End -= offset
	}
	r.layer = spanMetrics(r.spans, int64(makespan), stats, srv.BulkStats())
	if w.durable {
		bytesPerFold, recoverMs, err := journalProbe(dataDir, stats.Completed)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		r.layer["journal.bytes_per_fold"] = bytesPerFold
		r.layer["journal.recover_ms"] = recoverMs
	}
	return r, nil
}

// spanMetrics reads the per-layer metrics of one traced round off its spans
// and the server's counters. makespan is in nanoseconds.
func spanMetrics(spans []span, makespan int64, stats dist.ProblemStats, bulk wire.BulkStats) map[string]float64 {
	byName := make(map[string][]float64) // durations in ns
	var processed, parked, delivered, replies, empty float64
	self := selfTimes(spans)
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i]))
		switch s.Name {
		case "alg.process":
			processed += float64(s.dur())
		case "dist.wait_tasks":
			// Only the part of a call inside the clock counts as a donor
			// waiting: a donor parked before Submit was not waiting for work
			// that existed.
			if in := min(s.End, makespan) - max(s.Start, 0); in > 0 {
				parked += float64(in)
			}
			if len(s.Units) == 0 {
				empty++
			} else {
				replies++
				delivered += float64(len(s.Units))
			}
		}
	}
	donorNs := float64(donors) * float64(makespan)
	turn := turnarounds(spans)
	m := map[string]float64{
		"alg.busy_share":         processed / donorNs,
		"alg.init_ms":            median(byName["alg.init"]) / 1e6,
		"dist.unit_overhead_us":  (donorNs - processed) / float64(max(stats.Completed, 1)) / 1e3,
		"dist.wait_tasks_us":     median(byName["dist.wait_tasks"]) / 1e3,
		"dist.wait_tasks_p99_us": percentile(byName["dist.wait_tasks"], 99) / 1e3,
		"dist.wait_tasks_calls":  float64(len(byName["dist.wait_tasks"])),
		"dist.submit_us":         median(byName["dist.submit"]) / 1e3,
		"dist.submit_p99_us":     percentile(byName["dist.submit"], 99) / 1e3,
		"dist.submit_calls":      float64(len(byName["dist.submit"])),
		"dist.batch_fill":        delivered / max(replies, 1),
		"dist.empty_polls":       empty,
		"dist.turnaround_ms":     median(turn),
		"dist.turnaround_p99_ms": percentile(turn, 99),
		"dist.reissued":          float64(stats.Reissued),
		"dist.verified":          float64(stats.Verified),
		"dist.conflicts":         float64(stats.Conflicts),
		"dm.next_unit_us":        median(byName["dm.next_unit"]) / 1e3,
		"dm.consume_us":          median(byName["dm.consume"]) / 1e3,
		"dm.final_ms":            median(byName["dm.final"]) / 1e6,
		"dprml.stage_idle_share": parked / donorNs,
		"wire.bulk_bytes":        float64(bulk.BytesServed),
		"wire.bulk_fetches":      float64(bulk.Fetches),
		"wire.bulk_fetch_ms":     median(byName["wire.bulk_fetch"]) / 1e6,
		"journal.bytes_per_fold": 0,
		"journal.recover_ms":     0,
	}
	return m
}

// journalProbe inspects a durable round's data directory after the clock
// has stopped and before the server closes (a clean Close checkpoints, and a
// checkpoint drops finished problems). It works on copies, so the live
// journal is untouched.
//
// recoverMs is how long dist.OpenServer takes to rebuild the coordinator
// from the directory. Its Recovery must account for every fold of the round,
// replayed or skipped — skipped is the rule here, because a fold replays
// only onto a unit that was pending in the last snapshot and the round's
// only state record is the one Submit wrote. Folds reach the disk with the
// group commit, up to one sync interval after Wait returned, so the probe
// retries until the copy is complete.
//
// bytesPerFold is exact: the fold records journal.Open finds in the copy
// are appended to a scratch store, and the store reports the bytes it framed
// them into.
func journalProbe(dataDir string, folds int) (bytesPerFold, recoverMs float64, err error) {
	scratch, err := os.MkdirTemp("", "bench-probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(scratch)

	const attempts = 20
	for attempt := 1; ; attempt++ {
		logDir := filepath.Join(scratch, fmt.Sprintf("log-%d", attempt))
		recDir := filepath.Join(scratch, fmt.Sprintf("recover-%d", attempt))
		if err := os.CopyFS(logDir, os.DirFS(dataDir)); err != nil {
			return 0, 0, err
		}
		if err := os.CopyFS(recDir, os.DirFS(logDir)); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		srv, err := dist.OpenServer(dist.WithDataDir(recDir))
		if err != nil {
			return 0, 0, err
		}
		recoverMs = float64(time.Since(start)) / 1e6
		rec := srv.Recovery()
		if err := srv.Close(); err != nil {
			return 0, 0, err
		}
		if rec != nil && len(rec.Problems) == 1 && rec.FoldsReplayed+rec.FoldsSkipped == folds {
			bytesPerFold, err = foldBytes(logDir, filepath.Join(scratch, "frames"), folds)
			return bytesPerFold, recoverMs, err
		}
		if attempt == attempts {
			return 0, 0, fmt.Errorf("the journal never accounted for all %d folds (last recovery: %+v)", folds, rec)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// foldBytes re-frames the fold records found in the journal at dir, which
// must be folds of them, and returns their mean framed size.
func foldBytes(dir, scratch string, folds int) (float64, error) {
	st, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	frames, _, err := journal.Open(scratch, journal.Options{})
	if err != nil {
		return 0, err
	}
	defer frames.Close()
	n := 0
	for _, r := range rec.Tail {
		if f, ok := r.(*journal.Fold); ok {
			if err := frames.Append(f); err != nil {
				return 0, err
			}
			n++
		}
	}
	if n != folds {
		return 0, fmt.Errorf("journal holds %d fold records, want %d", n, folds)
	}
	size, _ := frames.LogSize()
	return float64(size) / float64(n), nil
}
