package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/sched"
)

// RunLocal executes one problem to completion with n in-process workers —
// the zero-configuration deployment shape for tests and single-machine
// runs. The full coordinator drives it (scheduling policy budgets, leases,
// failure requeue), so results are identical to the networked deployment.
//
// Cancelling ctx abandons the run: the problem is forgotten, which
// propagates cancel notices to the workers so in-flight ProcessCtx calls
// abort promptly, and ctx's error is returned.
func RunLocal(ctx context.Context, p *Problem, n int, policy sched.Policy) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background() //dist:allow-background nil-ctx normalisation in a public entry point
	}
	if n < 1 {
		n = 1
	}
	srv := NewServer(
		WithPolicy(policy),
		// In-process workers cannot vanish: an hour's ceiling keeps a
		// worker that has not been measured yet from ever expiring.
		WithLeaseTTL(time.Hour),
	)
	defer srv.Close()
	if err := srv.Submit(ctx, p); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	donors := make([]*Donor, n)
	// One blob cache for the whole pool: the workers singleflight their
	// shared-data fetch instead of each taking its own copy.
	blobs := NewBlobCache(defaultBlobCacheBytes)
	for i := range donors {
		donors[i] = NewDonor(srv,
			WithName(fmt.Sprintf("local-%d", i)),
			// In-process notice delivery is cheap; poll fast so a
			// cancelled ctx stops worker compute almost immediately.
			WithCancelPoll(2*time.Millisecond),
			WithBlobCache(blobs),
		)
		wg.Add(1)
		go func(d *Donor) {
			defer wg.Done()
			_ = d.Run(ctx)
		}(donors[i])
	}
	out, err := srv.Wait(ctx, p.ID)
	if err != nil && ctxErr(ctx) != nil {
		// Abandoned run: evict the problem so the cancel notices reach the
		// workers before they are stopped below.
		_ = srv.Forget(p.ID)
	}
	for _, d := range donors {
		d.Stop()
	}
	wg.Wait()
	return out, err
}
