package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// The content-bulk test algorithm echoes the problem's shared blob back as
// every unit's result, so a test can tell exactly which bytes a donor's
// Init saw — stale shared data becomes a visible wrong answer instead of a
// silent one.

type echoAlg struct{ shared []byte }

func (a *echoAlg) Init(shared []byte) error {
	a.shared = append([]byte(nil), shared...)
	return nil
}

func (a *echoAlg) ProcessCtx(_ context.Context, _ []byte) ([]byte, error) {
	return a.shared, nil
}

var registerEchoOnce sync.Once

func registerEcho(t *testing.T) {
	t.Helper()
	registerEchoOnce.Do(func() {
		RegisterAlgorithm("content-test/echo", func() Algorithm { return &echoAlg{} })
	})
}

// echoDM hands out `units` trivial units and keeps every consumed payload.
type echoDM struct {
	units   int
	seq     int64
	results map[int64][]byte
}

func newEchoDM(units int) *echoDM {
	return &echoDM{units: units, results: make(map[int64][]byte)}
}

func (d *echoDM) NextUnit(int64) (*Unit, bool, error) {
	if d.seq >= int64(d.units) {
		return nil, false, nil
	}
	d.seq++
	return &Unit{ID: d.seq, Algorithm: "content-test/echo", Cost: 1}, true, nil
}

func (d *echoDM) Consume(id int64, payload []byte) error {
	d.results[id] = payload
	return nil
}

func (d *echoDM) Done() bool                   { return len(d.results) >= d.units }
func (d *echoDM) FinalResult() ([]byte, error) { return d.results[1], nil }

// TestContentBulkDedupAcrossProblems is content addressing's core property
// over a real loopback deployment: two problems sharing one alignment cost
// the donor one wire fetch, and the bytes stop being served under their
// digest when the last problem carrying them is forgotten.
func TestContentBulkDedupAcrossProblems(t *testing.T) {
	registerEcho(t)
	shared := bytes.Repeat([]byte("alignment"), 8192)
	digest := wire.Digest(shared)

	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, id := range []string{"ca-1", "ca-2"} {
		if err := srv.Submit(bg, &Problem{ID: id, DM: newEchoDM(2), SharedData: shared}); err != nil {
			t.Fatal(err)
		}
	}

	cl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d := newTestDonor(cl, DonorOptions{Name: "ca-donor", Logf: t.Logf})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()

	for _, id := range []string{"ca-1", "ca-2"} {
		out, err := srv.Wait(bg, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if !bytes.Equal(out, shared) {
			t.Errorf("%s: result is not the shared blob (%d bytes)", id, len(out))
		}
	}
	d.Stop()
	wg.Wait()

	if got := d.opts.BlobCache.Fetches(); got != 1 {
		t.Errorf("donor performed %d shared-blob wire fetches for 2 problems, want 1", got)
	}
	if st := srv.BulkStats(); st.Fetches != 1 {
		t.Errorf("bulk channel answered %d fetches, want 1 (digest-cached donor)", st.Fetches)
	}

	// The last Forget ends the digest's and the per-problem keys' life.
	for _, id := range []string{"ca-1", "ca-2"} {
		if err := srv.Forget(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wire.FetchBlob(srv.BulkAddr(), wire.ContentKey(digest), time.Second); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Errorf("content blob after last Forget: err = %v, want not found", err)
	}
	if _, err := wire.FetchBlob(srv.BulkAddr(), sharedKey("ca-1"), time.Second); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Errorf("per-problem alias after Forget: err = %v, want not found", err)
	}
}

// TestEpochResubmitDoesNotServeStaleBytes: a forgotten ID resubmitted with
// different shared data must be computed from the new bytes — the digest
// changes, so the stale bytes are unreachable by cache key.
func TestEpochResubmitDoesNotServeStaleBytes(t *testing.T) {
	registerEcho(t)
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d := newTestDonor(cl, DonorOptions{Name: "resub-donor", Logf: t.Logf})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	defer func() { d.Stop(); wg.Wait() }()

	first := []byte("incarnation one bytes")
	second := []byte("incarnation TWO bytes — different")
	if err := srv.Submit(bg, &Problem{ID: "resub", DM: newEchoDM(1), SharedData: first}); err != nil {
		t.Fatal(err)
	}
	out, err := srv.Wait(bg, "resub")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, first) {
		t.Fatalf("first incarnation echoed %q", out)
	}
	if err := srv.Forget("resub"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(bg, &Problem{ID: "resub", DM: newEchoDM(1), SharedData: second}); err != nil {
		t.Fatal(err)
	}
	out, err = srv.Wait(bg, "resub")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, first) {
		t.Fatal("resubmitted incarnation served the predecessor's stale shared bytes")
	}
	if !bytes.Equal(out, second) {
		t.Fatalf("second incarnation echoed %q", out)
	}
}

// TestDigestMismatchIsTransportFailure tampers with the content blob on
// the wire: the donor must reject the bytes (wire.ErrDigestMismatch), the
// report must requeue as a transport failure — well past the compute
// poisoned-unit cap of maxUnitAttempts without failing the problem — and
// the problem must complete once the store serves honest bytes again.
func TestDigestMismatchIsTransportFailure(t *testing.T) {
	registerEcho(t)
	shared := []byte("the honest alignment bytes")
	digest := wire.Digest(shared)

	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "tamper", DM: newEchoDM(1), SharedData: shared}); err != nil {
		t.Fatal(err)
	}
	// Shadow the coordinator's answer: the bulk server's own map resolves
	// first, so every fetch of the digest key now returns bytes that do not
	// hash to it.
	srv.bulk.Put(wire.ContentKey(digest), []byte("evil bytes"))

	var sawMismatch atomic.Bool
	cl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d := newTestDonor(cl, DonorOptions{Name: "tamper-donor", Logf: func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "does not match its content digest") {
			sawMismatch.Store(true)
		}
		t.Logf(format, args...)
	}})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	defer func() { d.Stop(); wg.Wait() }()

	// Let the unit bounce well past the compute-failure cap: if mismatches
	// were charged as compute failures the problem would be dead by now.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := srv.Stats(bg, "tamper")
		if err != nil {
			t.Fatalf("problem died while tampered (mismatch fed the compute caps?): %v", err)
		}
		if st.Reissued > maxUnitAttempts+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d reissues before deadline", st.Reissued)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawMismatch.Load() {
		t.Error("donor never logged a digest mismatch")
	}
	if d.Units() != 0 {
		t.Errorf("donor completed %d units from tampered bytes", d.Units())
	}

	// Heal the store; the next reissue verifies and completes.
	srv.bulk.Delete(wire.ContentKey(digest))
	out, err := srv.Wait(bg, "tamper")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, shared) {
		t.Errorf("healed run echoed %q", out)
	}
}

// bareCoord narrows an RPCClient to the four Coordinator verbs — the shape
// of a foreign coordinator client with no WaitTask, no batching and no
// ContentFetcher. With stripDigest it also drops the content digest from
// every task, as an implementation unaware of content addressing would.
type bareCoord struct {
	c           *RPCClient
	stripDigest bool
}

func (b bareCoord) RequestTask(ctx context.Context, donor string) (*Task, time.Duration, error) {
	task, wait, err := b.c.RequestTask(ctx, donor)
	if task != nil && b.stripDigest {
		task.SharedDigest = ""
	}
	return task, wait, err
}

func (b bareCoord) SharedData(ctx context.Context, problemID string) ([]byte, error) {
	return b.c.SharedData(ctx, problemID)
}

func (b bareCoord) SubmitResult(ctx context.Context, res *Result) error {
	return b.c.SubmitResult(ctx, res)
}

func (b bareCoord) ReportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string) error {
	return b.c.ReportFailure(ctx, donor, problemID, unitID, reason)
}

// TestBareCoordinatorDonorsDrain runs donors that know only the Coordinator
// interface beside a full one on a loopback deployment: they poll
// RequestTask, fetch shared data through the "shared/<problemID>" alias
// (verified against the task's digest when it has one, uncached when it has
// none), and every unit is dispatched and folded exactly once.
func TestBareCoordinatorDonorsDrain(t *testing.T) {
	registerEcho(t)
	shared := bytes.Repeat([]byte("mixed"), 4096)

	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const problems, units = 6, 4
	for i := 0; i < problems; i++ {
		if err := srv.Submit(bg, &Problem{ID: fmt.Sprintf("mix-%d", i), DM: newEchoDM(units), SharedData: shared}); err != nil {
			t.Fatal(err)
		}
	}

	mkClient := func() *RPCClient {
		t.Helper()
		cl, err := Dial(srv.RPCAddr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}

	// The full donor is throttled so the bare ones are guaranteed a share
	// of the 24 units — and the bare ones a little, so that whichever of
	// them starts first cannot drain every unit before the other's first
	// request arrives.
	full := newTestDonor(mkClient(), DonorOptions{Name: "full", Throttle: 10 * time.Millisecond})
	bare := newTestDonor(bareCoord{c: mkClient()}, DonorOptions{Name: "bare", Throttle: 2 * time.Millisecond})
	digestless := newTestDonor(bareCoord{c: mkClient(), stripDigest: true}, DonorOptions{Name: "digestless", Throttle: 2 * time.Millisecond})

	donors := []*Donor{full, bare, digestless}
	var wg sync.WaitGroup
	for _, d := range donors {
		wg.Add(1)
		go func(d *Donor) { defer wg.Done(); _ = d.Run(bg) }(d)
	}
	for i := 0; i < problems; i++ {
		out, err := srv.Wait(bg, fmt.Sprintf("mix-%d", i))
		if err != nil {
			t.Fatalf("mix-%d: %v", i, err)
		}
		if !bytes.Equal(out, shared) {
			t.Errorf("mix-%d echoed wrong bytes", i)
		}
	}
	// Exact accounting lives server-side: every unit dispatched once and
	// folded once, no reissues. (Donor-side Units() can read one short — a
	// Stop racing the final in-flight SubmitResult abandons the call
	// client-side after the server already folded it.)
	for i := 0; i < problems; i++ {
		st, err := srv.Stats(bg, fmt.Sprintf("mix-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Dispatched != units || st.Completed != units || st.Reissued != 0 {
			t.Errorf("mix-%d: dispatched/completed/reissued = %d/%d/%d, want %d/%d/0",
				i, st.Dispatched, st.Completed, st.Reissued, units, units)
		}
	}
	for _, d := range donors {
		d.Stop()
	}
	wg.Wait()
	if bare.Units() == 0 {
		t.Error("bare-Coordinator donor drained nothing")
	}
	if digestless.Units() == 0 {
		t.Error("digest-less donor drained nothing")
	}
}

// TestBlobCacheSingleflight: N concurrent Gets of one key cost one fetch,
// and every caller sees the fetched bytes.
func TestBlobCacheSingleflight(t *testing.T) {
	c := NewBlobCache(1 << 20)
	blob := bytes.Repeat([]byte{0xAB}, 4096)
	var fetchCalls atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := c.Get(bg, "sha256:deadbeef", func(context.Context) ([]byte, error) {
				fetchCalls.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open so followers pile up
				return blob, nil
			})
			if err == nil && !bytes.Equal(got, blob) {
				err = errors.New("wrong bytes")
			}
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := fetchCalls.Load(); n != 1 {
		t.Errorf("%d concurrent gets performed %d fetches, want 1", goroutines, n)
	}
	if n := c.Fetches(); n != 1 {
		t.Errorf("Fetches() = %d, want 1", n)
	}
}

// TestBlobCacheEviction: LRU under byte pressure, with the floor that the
// most recently used blob always survives — even one bigger than the
// whole budget.
func TestBlobCacheEviction(t *testing.T) {
	fetches := make(map[string]int)
	mk := func(key string, size int) func(context.Context) ([]byte, error) {
		return func(context.Context) ([]byte, error) {
			fetches[key]++
			return make([]byte, size), nil
		}
	}
	c := NewBlobCache(100)
	for _, key := range []string{"sha256:a", "sha256:b", "sha256:c"} {
		if _, err := c.Get(bg, key, mk(key, 40)); err != nil {
			t.Fatal(err)
		}
	}
	// 120 bytes > 100: the oldest (a) was evicted, b and c remain.
	if _, err := c.Get(bg, "sha256:b", mk("sha256:b", 40)); err != nil {
		t.Fatal(err)
	}
	if fetches["sha256:b"] != 1 {
		t.Errorf("b refetched (%d fetches): evicted despite fitting", fetches["sha256:b"])
	}
	if _, err := c.Get(bg, "sha256:a", mk("sha256:a", 40)); err != nil {
		t.Fatal(err)
	}
	if fetches["sha256:a"] != 2 {
		t.Errorf("a fetched %d times, want 2 (evicted as oldest)", fetches["sha256:a"])
	}

	// A blob bigger than the budget is kept while it is the newest entry...
	huge := NewBlobCache(10)
	if _, err := huge.Get(bg, "sha256:big", mk("sha256:big", 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := huge.Get(bg, "sha256:big", mk("sha256:big", 50)); err != nil {
		t.Fatal(err)
	}
	if fetches["sha256:big"] != 1 {
		t.Errorf("oversized blob fetched %d times, want 1 (floor keeps the active blob)", fetches["sha256:big"])
	}
	// ...and makes way once something newer arrives.
	if _, err := huge.Get(bg, "sha256:next", mk("sha256:next", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := huge.Get(bg, "sha256:big", mk("sha256:big", 50)); err != nil {
		t.Fatal(err)
	}
	if fetches["sha256:big"] != 2 {
		t.Errorf("oversized blob fetched %d times after displacement, want 2", fetches["sha256:big"])
	}
}

// TestBlobCacheFlightSurvivesInitiatorCancel: the fetch runs detached from
// the initiating caller's context, so one donor's aborted unit (a Forget
// cancelling its ctx mid-fetch) cannot poison the blob for the other
// donors parked on the same flight.
func TestBlobCacheFlightSurvivesInitiatorCancel(t *testing.T) {
	c := NewBlobCache(1 << 20)
	blob := []byte("survives the initiator")
	initiatorCtx, cancelInitiator := context.WithCancel(bg)
	fetchStarted := make(chan struct{})
	initiatorCancelled := make(chan struct{})

	flightDone := make(chan error, 1)
	go func() {
		_, err := c.Get(initiatorCtx, "sha256:flight", func(ctx context.Context) ([]byte, error) {
			close(fetchStarted)
			<-initiatorCancelled // the initiator's unit dies mid-fetch
			if ctx.Err() != nil {
				return nil, ctx.Err() // would poison every waiter
			}
			return blob, nil
		})
		flightDone <- err
	}()

	<-fetchStarted
	waiterDone := make(chan error, 1)
	go func() {
		got, err := c.Get(bg, "sha256:flight", func(context.Context) ([]byte, error) {
			return nil, errors.New("waiter must join the flight, not refetch")
		})
		if err == nil && !bytes.Equal(got, blob) {
			err = errors.New("waiter got wrong bytes")
		}
		waiterDone <- err
	}()

	cancelInitiator()
	close(initiatorCancelled)
	if err := <-flightDone; err != nil {
		t.Errorf("initiator's Get = %v (fetch ran under a cancellable ctx?)", err)
	}
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter poisoned by initiator's cancellation: %v", err)
	}
}

// TestBlobCacheFailedFetchNotCached: an error is delivered to the flight's
// callers but never cached; the next Get retries.
func TestBlobCacheFailedFetchNotCached(t *testing.T) {
	c := NewBlobCache(1 << 10)
	boom := errors.New("boom")
	if _, err := c.Get(bg, "k", func(context.Context) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, err := c.Get(bg, "k", func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(got) != "ok" {
		t.Fatalf("retry = %q, %v", got, err)
	}
	if c.Fetches() != 1 {
		t.Errorf("Fetches() = %d, want 1 (failures not counted)", c.Fetches())
	}
}

// TestBlobCacheStress churns a small cache from many goroutines so the
// race detector can chew on Get/evict interleavings.
func TestBlobCacheStress(t *testing.T) {
	c := NewBlobCache(1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("sha256:%d", (g+i)%13)
				blob, err := c.Get(bg, key, func(context.Context) ([]byte, error) {
					return bytes.Repeat([]byte(key), 40), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(blob, bytes.Repeat([]byte(key), 40)) {
					t.Errorf("key %s returned foreign bytes", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSharedCacheSingleflightAcrossDonors is the deployment-shaped
// singleflight check: a pool of donors sharing one BlobCache (the RunLocal
// wiring) starts on one problem over a real loopback server, and the
// shared blob crosses the wire exactly once.
func TestSharedCacheSingleflightAcrossDonors(t *testing.T) {
	registerEcho(t)
	shared := bytes.Repeat([]byte("pool"), 8192)
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "pool", DM: newEchoDM(16), SharedData: shared}); err != nil {
		t.Fatal(err)
	}
	cache := NewBlobCache(1 << 20)
	var wg sync.WaitGroup
	var donors []*Donor
	for i := 0; i < 4; i++ {
		cl, err := Dial(srv.RPCAddr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		d := NewDonor(cl, WithName(fmt.Sprintf("pool-%d", i)), WithBlobCache(cache))
		donors = append(donors, d)
		wg.Add(1)
		go func() { defer wg.Done(); _ = d.Run(bg) }()
	}
	if _, err := srv.Wait(bg, "pool"); err != nil {
		t.Fatal(err)
	}
	for _, d := range donors {
		d.Stop()
	}
	wg.Wait()
	if n := cache.Fetches(); n != 1 {
		t.Errorf("4-donor pool performed %d shared-blob fetches, want 1", n)
	}
	if st := srv.BulkStats(); st.Fetches != 1 {
		t.Errorf("bulk channel saw %d fetches, want 1", st.Fetches)
	}
}
