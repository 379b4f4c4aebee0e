// Command donor runs one donor (client) process: it connects to a running
// server, fetches work units, computes them with the algorithms compiled
// into this binary (DSEARCH and DPRml are registered), and returns results.
// Run it as a low-priority background service on any machine with spare
// cycles — the paper deployed it on ~200 lab PCs and cluster nodes.
//
// Usage:
//
//	donor -server host:7070 [-name lab-pc-17] [-throttle 50ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/dist"

	// Register the bioinformatics algorithms in this donor binary.
	_ "repro/internal/dprml"
	_ "repro/internal/dsearch"
)

func main() {
	var (
		server     = flag.String("server", "127.0.0.1:7070", "server RPC address")
		name       = flag.String("name", hostnameOr("donor"), "donor display name")
		throttle   = flag.Duration("throttle", 0, "pause between units (be a polite background service)")
		retry      = flag.Duration("retry", 30*time.Second, "max backoff while reconnecting to a vanished server (0 = exit instead of retrying)")
		cancelPoll = flag.Duration("cancel-poll", 500*time.Millisecond, "how often to poll for server cancel notices mid-unit (<0 disables)")
		longPoll   = flag.Duration("long-poll", 45*time.Second, "max park per WaitTask long-poll (<=0 keeps the default)")
		blobCache  = flag.Int64("blob-cache", 256<<20, "shared-blob cache budget in bytes (<=0 keeps only the most recent blob); also bounds resident per-problem state")
		batch      = flag.Int("batch", 8, "units requested per WaitTask long-poll (<=1 = single-unit)")
	)
	flag.Parse()

	const dialTimeout = 30 * time.Second
	client, err := dist.Dial(*server, dialTimeout)
	if err != nil {
		log.Fatalf("donor: %v", err)
	}
	defer client.Close()

	// A background-service donor outlives server restarts: when the
	// connection drops without an explicit close, keep redialing with
	// capped exponential backoff. Only the server's own Close — or an
	// interrupt — ends the loop.
	var redial func() (dist.Coordinator, error)
	if *retry > 0 {
		redial = func() (dist.Coordinator, error) { return dist.Dial(*server, dialTimeout) }
	}

	// "-blob-cache 0" means no caching beyond the blob in use; the option
	// layer treats 0 as "default", so map it to the negative sentinel.
	blobBudget := *blobCache
	if blobBudget <= 0 {
		blobBudget = -1
	}

	// "-batch 1" (or less) keeps single-unit dispatch; the option layer
	// treats 0 as "default", so map it to the negative sentinel.
	taskBatch := *batch
	if taskBatch <= 1 {
		taskBatch = -1
	}

	d := dist.NewDonor(client,
		dist.WithName(*name),
		dist.WithThrottle(*throttle),
		dist.WithLogf(log.Printf),
		dist.WithRedial(redial),
		dist.WithRedialBackoff(0, *retry),
		dist.WithCancelPoll(*cancelPoll),
		dist.WithLongPollWait(*longPoll),
		dist.WithBlobCacheBytes(blobBudget),
		dist.WithTaskBatch(taskBatch),
	)

	// First interrupt: finish (or abort, via the cancelled context) the
	// unit in progress and exit cleanly. Unregistering the handler as soon
	// as the context cancels restores default SIGINT behaviour, so a
	// second interrupt kills us outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() { <-ctx.Done(); stop() }()

	log.Printf("donor %q connecting to %s (algorithms: %v)", *name, *server, dist.RegisteredAlgorithms())
	if err := d.Run(ctx); err != nil {
		log.Fatalf("donor: %v", err)
	}
	fmt.Printf("donor %q processed %d units (%d aborted on cancel notices)\n", *name, d.Units(), d.Aborted())
}

func hostnameOr(def string) string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return def
	}
	return h
}
