// Command server runs the distributed system's coordinating node and
// submits one problem to it, then waits for donors to complete the work and
// prints the result. The two bioinformatics applications of the paper are
// built in; pick one with -app.
//
// DSEARCH:
//
//	server -app dsearch -db db.fasta -queries q.fasta [-config dsearch.conf]
//
// DPRml:
//
//	server -app dprml -alignment aln.fasta [-model HKY85:kappa=2] [-gamma 4 -alpha 0.5]
//
// Donors then connect with:  donor -server <host>:7070
//
// Progress is streamed from the server's Watch event channel (no Status
// polling). An interrupt (SIGINT) forgets the problem, which cancels the
// donors' in-flight units before the server exits. With -data-dir the
// coordinator is durable: mutations are journaled, SIGTERM checkpoints and
// exits cleanly instead of forgetting, and a restart on the same directory
// resumes the problem where it left off — donors redial and keep working.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/dprml"
	"repro/internal/dsearch"
	"repro/internal/sched"
	"repro/internal/seq"
)

func main() {
	var (
		rpcAddr     = flag.String("rpc", ":7070", "control (RPC) listen address")
		bulkAddr    = flag.String("bulk", ":7071", "bulk data listen address")
		policy      = flag.String("policy", "adaptive:5s", "scheduling policy (fixed:N | adaptive:DUR | gss[:k] | factoring)")
		lease       = flag.Duration("lease", 2*time.Minute, "work unit reissue timeout")
		longPoll    = flag.Duration("long-poll", 45*time.Second, "max server-side park per WaitTask long-poll (<=0 keeps the default)")
		batch       = flag.Int("dispatch-batch", 8, "max units per batched WaitTask reply (<=1 = single-unit dispatch)")
		speculate   = flag.Float64("speculate-after", 0, "re-dispatch straggler units to idle donors once this fraction of the problem is complete, first result wins (0 = off; 0.9 is a reasonable start)")
		verifyFrac  = flag.Float64("verify-fraction", 0, "spot-check this fraction of units by redundant dispatch to distinct donors, folding only quorum-agreed results (0 = trust every donor; 0.05 is a reasonable start)")
		verifyQuo   = flag.Int("verify-quorum", 2, "replica results that must agree before a spot-checked unit folds (min 2; needs -verify-fraction)")
		quarBelow   = flag.Float64("quarantine-below", 0, "trust floor under which a donor stops receiving work and its results are rejected (0 = default 0.3, negative = never quarantine; needs -verify-fraction)")
		dataDir     = flag.String("data-dir", "", "durability directory: journal mutations and resume the problem after a crash or SIGTERM (empty = in-memory only)")
		snapRecords = flag.Int("snapshot-records", 0, "journal records that trigger a background checkpoint (0 = default; needs -data-dir)")
		app         = flag.String("app", "", "application: dsearch | dprml")
		progress    = flag.Duration("progress", 10*time.Second, "minimum interval between progress log lines")

		// DSEARCH flags
		dbPath    = flag.String("db", "", "dsearch: FASTA database")
		queryPath = flag.String("queries", "", "dsearch: FASTA query set")
		confPath  = flag.String("config", "", "dsearch: configuration file")

		// DPRml flags
		alnPath = flag.String("alignment", "", "dprml: FASTA alignment")
		model   = flag.String("model", "HKY85:kappa=2", "dprml: substitution model spec")
		gamma   = flag.Int("gamma", 1, "dprml: discrete gamma categories")
		alpha   = flag.Float64("alpha", 0.5, "dprml: gamma shape")
	)
	flag.Parse()

	// SIGINT and SIGTERM both cancel ctx, but they mean different things at
	// shutdown: SIGINT abandons the problem (forget + cancel donor work),
	// SIGTERM asks for a graceful stop — with -data-dir that is "checkpoint
	// and exit so a restart resumes". Remember which one fired.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var gotTerm atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-sigCh
		if !ok {
			return
		}
		if sig == syscall.SIGTERM {
			gotTerm.Store(true)
		}
		stop()
	}()
	defer signal.Stop(sigCh)

	pol, err := sched.ByName(*policy)
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	// "-dispatch-batch 1" (or less) disables batching; the option layer
	// treats 0 as "default", so map it to the negative sentinel.
	dispatchBatch := *batch
	if dispatchBatch <= 1 {
		dispatchBatch = -1
	}
	if *app != "dsearch" && *app != "dprml" {
		log.Fatalf("server: -app must be dsearch or dprml")
	}
	ns, err := dist.ListenAndServe(*rpcAddr, *bulkAddr,
		dist.WithPolicy(pol),
		dist.WithLeaseTTL(*lease),
		dist.WithLongPoll(*longPoll),
		dist.WithDispatchBatch(dispatchBatch),
		dist.WithDataDir(*dataDir),
		dist.WithSnapshotBudget(0, *snapRecords),
		dist.WithSpeculation(*speculate),
		dist.WithVerify(*verifyFrac, *verifyQuo),
		dist.WithQuarantineBelow(*quarBelow),
	)
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	defer ns.Close()
	log.Printf("server: control on %s, bulk data on %s, policy %s", ns.RPCAddr(), ns.BulkAddr(), pol.Name())

	// Both applications register their problem under the app name, so that
	// is the ID a restarted durable server finds in its journal.
	problemID := *app
	resumed := false
	if rec := ns.Recovery(); rec != nil {
		for _, rp := range rec.Problems {
			log.Printf("server: recovered problem %q from journal (epoch %d, %d units completed, %d requeued)",
				rp.ProblemID, rp.Epoch, rp.Completed, rp.Requeued)
			if rp.ProblemID == problemID {
				resumed = true
			}
		}
		if rec.FoldsReplayed > 0 || rec.FoldsSkipped > 0 {
			log.Printf("server: replayed %d journaled results (%d skipped)", rec.FoldsReplayed, rec.FoldsSkipped)
		}
		if rec.Truncated {
			log.Printf("server: journal tail was torn; recovered to the last intact record")
		}
		for _, skipped := range rec.Skipped {
			log.Printf("server: could not restore problem %s", skipped)
		}
	}

	if resumed {
		log.Printf("server: resuming recovered problem %q — waiting for donors to redial", problemID)
	} else {
		var problem *dist.Problem
		switch *app {
		case "dsearch":
			problem, err = buildDSearch(*dbPath, *queryPath, *confPath)
		case "dprml":
			problem, err = buildDPRml(*alnPath, *model, *gamma, *alpha)
		}
		if err != nil {
			log.Fatalf("server: %v", err)
		}
		if err := ns.Submit(ctx, problem); err != nil {
			log.Fatalf("server: %v", err)
		}
		log.Printf("server: problem %q submitted — waiting for donors", problem.ID)
	}

	// Event-stream progress: the Watch channel replaces the old Status
	// polling ticker. Unit-level events are folded into at most one log
	// line per -progress interval; terminal events always log.
	events, err := ns.Watch(ctx, problemID)
	if err != nil {
		log.Fatalf("server: watch: %v", err)
	}
	go logProgress(ns, events, *progress)

	start := time.Now()
	out, err := ns.Wait(ctx, problemID)
	if err != nil {
		if ctx.Err() != nil {
			if gotTerm.Load() && *dataDir != "" {
				// SIGTERM on a durable server: checkpoint and exit without
				// forgetting, so a restart on the same -data-dir resumes the
				// problem. Close writes the final snapshot.
				log.Printf("server: SIGTERM — checkpointing %q to %s for resumption", problemID, *dataDir)
				if cerr := ns.Close(); cerr != nil {
					log.Printf("server: checkpoint: %v", cerr)
					os.Exit(1)
				}
				os.Exit(0)
			}
			// Interrupted: forget the problem so donors holding its units
			// receive cancel notices and abort instead of computing
			// results nobody will fold.
			log.Printf("server: interrupted — forgetting %q to cancel donor work", problemID)
			_ = ns.Forget(problemID)
			// Busy donors learn of the cancellation by polling CancelNotices
			// (default every 500ms); keep the control channel up a couple of
			// poll periods so they abort their in-flight unit instead of
			// discovering a dead socket only after finishing it.
			time.Sleep(1200 * time.Millisecond)
			_ = ns.Close() // os.Exit skips the deferred Close
			os.Exit(1)
		}
		log.Fatalf("server: problem failed: %v", err)
	}
	elapsed := time.Since(start)
	st, _ := ns.Stats(ctx, problemID)
	log.Printf("server: done in %s (%d units dispatched, %d completed, %d reissued, %d donors)",
		elapsed.Round(time.Millisecond), st.Dispatched, st.Completed, st.Reissued, ns.DonorCount())
	// Retire the problem now that its stats have been read: a long-lived
	// server submitting job after job evicts each one's state and bulk
	// blobs this way instead of growing without bound.
	if err := ns.Forget(problemID); err != nil {
		log.Printf("server: forget: %v", err)
	}

	switch *app {
	case "dsearch":
		hits, err := dsearch.DecodeResult(out, 1<<30)
		if err != nil {
			log.Fatalf("server: %v", err)
		}
		fmt.Print(hits.Report())
	case "dprml":
		res, err := dprml.DecodeResult(out)
		if err != nil {
			log.Fatalf("server: %v", err)
		}
		fmt.Print(res.String())
	}
}

// logProgress consumes one problem's Watch stream, printing a progress
// line at most every interval (terminal events always print). The channel
// closes with the stream, ending the goroutine.
func logProgress(ns *dist.NetworkServer, events <-chan dist.Event, interval time.Duration) {
	var lastLog time.Time
	for ev := range events {
		switch {
		case ev.Kind.Terminal():
			switch ev.Kind {
			case dist.EventFinished:
				log.Printf("server: %s finished (%d units)", ev.ProblemID, ev.Completed)
			case dist.EventForgotten:
				log.Printf("server: %s forgotten", ev.ProblemID)
			default:
				if !errors.Is(ev.Err, dist.ErrClosed) {
					log.Printf("server: %s failed: %v", ev.ProblemID, ev.Err)
				}
			}
		case ev.Kind == dist.EventDonorQuarantined:
			log.Printf("server: donor %s quarantined — trust fell below the floor; its leases on %s were requeued", ev.Donor, ev.ProblemID)
		case ev.Kind == dist.EventQuorumConflict:
			log.Printf("server: quorum conflict on %s unit %d — discarded a disagreeing result from donor %s", ev.ProblemID, ev.UnitID, ev.Donor)
		case ev.Kind == dist.EventProgress && time.Since(lastLog) >= interval:
			lastLog = time.Now()
			if ev.AppTotal > 0 {
				log.Printf("server: progress %d/%d, %d units done (%d in flight, %d donors)",
					ev.AppDone, ev.AppTotal, ev.Completed, ev.Inflight, ns.DonorCount())
			} else {
				log.Printf("server: %d units done (%d in flight, %d donors)",
					ev.Completed, ev.Inflight, ns.DonorCount())
			}
		}
	}
}

func buildDSearch(dbPath, queryPath, confPath string) (*dist.Problem, error) {
	if dbPath == "" || queryPath == "" {
		return nil, fmt.Errorf("dsearch needs -db and -queries")
	}
	db, err := seq.ReadFASTAFile(dbPath)
	if err != nil {
		return nil, err
	}
	queries, err := seq.ReadFASTAFile(queryPath)
	if err != nil {
		return nil, err
	}
	cfg := dsearch.DefaultConfig()
	if confPath != "" {
		f, err := os.Open(confPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		cfg, err = dsearch.ParseConfig(f)
		if err != nil {
			return nil, err
		}
	}
	return dsearch.NewProblem("dsearch", db, queries, cfg)
}

func buildDPRml(alnPath, model string, gamma int, alpha float64) (*dist.Problem, error) {
	if alnPath == "" {
		return nil, fmt.Errorf("dprml needs -alignment")
	}
	f, err := os.Open(alnPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	aln, err := seq.ReadAlignmentFASTA(f)
	if err != nil {
		return nil, err
	}
	return dprml.NewProblem("dprml", aln, dprml.Options{
		Model:           model,
		GammaCategories: gamma,
		GammaAlpha:      alpha,
	})
}
