// Package swarm is an in-process donor-swarm harness: it spins up
// hundreds to thousands of real dist donors against a live
// NetworkServer, shaping each donor from a simnet.DonorSpec profile.
// Where package simnet *predicts* fleet behaviour in virtual time, swarm
// *exercises* the real runtime on the wall clock — the RPC stack, the
// flat codec, long-poll dispatch, lease recovery, speculation and
// priority scheduling — under the same heterogeneity the simulator
// models:
//
//   - Speed and Load throttle the donor's effective throughput by
//     stretching each unit's compute time (an algorithm wrapper, so the
//     registered algorithm itself stays untouched).
//   - Latency and Bandwidth shape the control connection at the socket
//     seam (dist.WithConnWrapper).
//   - JoinAt, LeaveAt and Offline windows script churn: a departure is
//     an abrupt socket close mid-whatever — the powered-off lab machine —
//     and the server's lease expiry is what recovers the units it held.
//
// All donors share one BlobCache, so a swarm of a thousand in-process
// donors fetches each shared blob once, not a thousand times — the same
// economics as a thousand-process fleet with per-host caches, scaled to
// fit one test binary.
package swarm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/simnet"
)

// Config parameterises a swarm. How long a member's WaitTask parks and how
// many units one reply carries are not set here: the server under test
// decides both.
type Config struct {
	// RPCAddr is the control-channel address of the server under test.
	RPCAddr string
	// Specs describes the fleet, one entry per donor (see the simnet
	// profile factories: Uniform, HeterogeneousLab, StragglerLab,
	// DiurnalLab — compressed with simnet.Compress for wall-clock runs).
	Specs []simnet.DonorSpec
	// Seed drives the per-donor load jitter; runs with the same seed
	// draw the same load sequences.
	Seed int64
}

// Stats is a point-in-time summary of swarm activity. Units is exact
// once Stop has returned; while sessions are being torn down a donor's
// tally moves from the live count to the retired count non-atomically.
type Stats struct {
	// Donors is the configured fleet size; Online counts members with a
	// live session right now.
	Donors, Online int
	// Dials counts successful control-channel connections (including
	// churn re-joins); Drops counts abrupt departures the harness
	// injected; DialErrors counts failed dial attempts.
	Dials, Drops, DialErrors int64
	// Units is the fleet-wide completed-unit total.
	Units int64
}

// segment is one online interval of a member's schedule, as offsets from
// swarm start. to < 0 means "until the swarm stops".
type segment struct {
	from, to time.Duration
}

// member is one donor slot: a spec, its schedule, and whatever session
// is currently live.
type member struct {
	spec     simnet.DonorSpec
	segments []segment
	rng      *lockedRand

	mu sync.Mutex
	// conn is the live session's shaped control connection, recorded by
	// the dial wrapper so a churn event can sever it abruptly.
	conn *shapedConn //dist:guardedby mu
	// donor is the live session's donor, nil between sessions.
	donor *dist.Donor //dist:guardedby mu
	// online marks whether a session is currently running.
	online bool //dist:guardedby mu
}

func (m *member) wrapConn(c *shapedConn) {
	m.mu.Lock()
	m.conn = c
	m.mu.Unlock()
}

// sever closes the live control connection out from under the donor —
// the abrupt-departure half of churn. Safe when no session is live.
func (m *member) sever() {
	m.mu.Lock()
	c := m.conn
	m.conn = nil
	m.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

func (m *member) setLive(d *dist.Donor) {
	m.mu.Lock()
	m.donor = d
	m.online = d != nil
	m.mu.Unlock()
}

// Swarm drives a configured fleet. Create with New, run with Start,
// tear down with Stop.
type Swarm struct {
	cfg     Config
	cache   *dist.BlobCache
	members []*member

	mu     sync.Mutex
	cancel context.CancelFunc //dist:guardedby mu
	start  time.Time          //dist:guardedby mu
	wg     sync.WaitGroup

	dials        atomic.Int64
	drops        atomic.Int64
	dialErrors   atomic.Int64
	unitsRetired atomic.Int64
}

// New validates the config and builds the fleet without connecting
// anything.
func New(cfg Config) (*Swarm, error) {
	if cfg.RPCAddr == "" {
		return nil, errors.New("swarm: Config.RPCAddr required")
	}
	if len(cfg.Specs) == 0 {
		return nil, errors.New("swarm: Config.Specs empty")
	}
	s := &Swarm{cfg: cfg, cache: dist.NewBlobCache(256 << 20)}
	for i, spec := range cfg.Specs {
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("swarm%04d", i)
		}
		s.members = append(s.members, &member{
			spec:     spec,
			segments: onlineSegments(spec),
			rng:      &lockedRand{rng: rand.New(rand.NewSource(cfg.Seed ^ int64(i*2654435761)))},
		})
	}
	return s, nil
}

// Start launches every member's schedule. The swarm stops when ctx is
// cancelled or Stop is called, whichever comes first.
func (s *Swarm) Start(ctx context.Context) error {
	s.mu.Lock()
	if s.cancel != nil {
		s.mu.Unlock()
		return errors.New("swarm: already started")
	}
	ctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.start = time.Now()
	start := s.start
	s.mu.Unlock()
	for _, m := range s.members {
		s.wg.Add(1)
		go s.runMember(ctx, m, start)
	}
	return nil
}

// Stop gracefully winds the fleet down — live donors finish their
// in-flight unit, report it, and disconnect — and waits for every
// member goroutine to exit. Safe to call more than once.
func (s *Swarm) Stop() {
	s.mu.Lock()
	cancel := s.cancel
	s.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	s.wg.Wait()
}

// Stats reports current fleet counters.
func (s *Swarm) Stats() Stats {
	st := Stats{
		Donors:     len(s.members),
		Dials:      s.dials.Load(),
		Drops:      s.drops.Load(),
		DialErrors: s.dialErrors.Load(),
		Units:      s.unitsRetired.Load(),
	}
	for _, m := range s.members {
		m.mu.Lock()
		if m.online {
			st.Online++
			if m.donor != nil {
				st.Units += int64(m.donor.Units())
			}
		}
		m.mu.Unlock()
	}
	return st
}

// runMember walks one member's schedule: sleep to each segment's start,
// hold a session for its duration, sever it at the end.
func (s *Swarm) runMember(ctx context.Context, m *member, start time.Time) {
	defer s.wg.Done()
	for _, seg := range m.segments {
		if !sleepUntil(ctx, start.Add(seg.from)) {
			return
		}
		var deadline time.Time
		if seg.to >= 0 {
			deadline = start.Add(seg.to)
		}
		s.runSession(ctx, m, deadline)
		if ctx.Err() != nil {
			return
		}
	}
}

// runSession keeps one member connected until the deadline (zero =
// until the swarm stops). A donor that dies early — the server
// restarted, a transport hiccup — is re-dialled, so a segment is a
// promise of availability, not of a single connection.
func (s *Swarm) runSession(ctx context.Context, m *member, deadline time.Time) {
	for ctx.Err() == nil && (deadline.IsZero() || time.Now().Before(deadline)) {
		cl := s.dialRetry(ctx, m, deadline)
		if cl == nil {
			return
		}
		s.dials.Add(1)
		d := dist.NewDonor(cl, s.donorOptions(m)...)
		m.setLive(d)

		runCtx, cancelRun := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			_ = d.Run(runCtx)
			close(done)
		}()

		var endC <-chan time.Time
		if !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			endC = t.C
			defer t.Stop()
		}
		abrupt := false
		select {
		case <-done:
			// Donor exited on its own; loop re-dials if time remains.
		case <-endC:
			// Scheduled departure: the machine powers off mid-whatever.
			// Sever the socket, then cancel so Run observes the loss and
			// returns; the server recovers held leases by expiry.
			abrupt = true
			m.sever()
			s.drops.Add(1)
			cancelRun()
			<-done
		case <-ctx.Done():
			// Swarm shutdown: finish the in-flight unit and report it.
			d.Stop()
			<-done
		}
		cancelRun()
		m.setLive(nil)
		s.unitsRetired.Add(int64(d.Units()))
		_ = cl.Close()
		if abrupt {
			return
		}
		// Brief pause before re-dialling a session that died early.
		if !sleepCtx(ctx, 20*time.Millisecond) {
			return
		}
	}
}

// dialTimeout bounds each control-channel dial.
const dialTimeout = 5 * time.Second

// dialRetry dials the server with backoff until it succeeds, the
// deadline passes, or the swarm stops.
func (s *Swarm) dialRetry(ctx context.Context, m *member, deadline time.Time) *dist.RPCClient {
	backoff := 50 * time.Millisecond
	for {
		if ctx.Err() != nil || (!deadline.IsZero() && !time.Now().Before(deadline)) {
			return nil
		}
		cl, err := dist.Dial(s.cfg.RPCAddr, dialTimeout, dist.WithConnWrapper(func(c net.Conn) net.Conn {
			sc := &shapedConn{Conn: c, latency: m.spec.Latency, bandwidth: m.spec.Bandwidth}
			m.wrapConn(sc)
			return sc
		}))
		if err == nil {
			return cl
		}
		s.dialErrors.Add(1)
		if !sleepCtx(ctx, backoff) {
			return nil
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func (s *Swarm) donorOptions(m *member) []dist.DonorOption {
	opts := []dist.DonorOption{
		dist.WithName(m.spec.Name),
		// A thousand cancel-poll tickers would dominate the scheduler;
		// churn and shutdown already bound unit lifetimes.
		dist.WithCancelPoll(-1),
		dist.WithBlobCache(s.cache),
		// A thousand donors re-dialling through churn is noise.
		dist.WithLogf(func(string, ...any) {}),
	}
	// Throttle and malice share the one algorithm-wrapper slot: malice
	// wraps outermost so a Byzantine donor still honours its spec's speed.
	throttle := throttleWrapper(m.spec, m.rng)
	malice := maliceWrapper(m.spec.Malice)
	switch {
	case throttle != nil && malice != nil:
		opts = append(opts, dist.WithAlgorithmWrapper(func(name string, a dist.Algorithm) dist.Algorithm {
			return malice(name, throttle(name, a))
		}))
	case throttle != nil:
		opts = append(opts, dist.WithAlgorithmWrapper(throttle))
	case malice != nil:
		opts = append(opts, dist.WithAlgorithmWrapper(malice))
	}
	return opts
}

// onlineSegments converts a spec's schedule — JoinAt, Offline windows,
// LeaveAt — into the member's online intervals.
func onlineSegments(spec simnet.DonorSpec) []segment {
	wins := append([]simnet.Window(nil), spec.Offline...)
	sort.Slice(wins, func(i, j int) bool { return wins[i].From < wins[j].From })
	var segs []segment
	cur := spec.JoinAt
	if cur < 0 {
		cur = 0
	}
	for _, w := range wins {
		if w.To <= w.From || w.To <= cur {
			continue
		}
		if w.From > cur {
			segs = append(segs, segment{from: cur, to: w.From})
		}
		cur = w.To
	}
	segs = append(segs, segment{from: cur, to: -1})
	if spec.LeaveAt > 0 {
		clipped := segs[:0]
		for _, g := range segs {
			if g.from >= spec.LeaveAt {
				break
			}
			if g.to < 0 || g.to > spec.LeaveAt {
				g.to = spec.LeaveAt
			}
			clipped = append(clipped, g)
		}
		segs = clipped
	}
	return segs
}

// sleepCtx sleeps for d, returning false if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// sleepUntil sleeps until at, returning false if ctx ends first.
func sleepUntil(ctx context.Context, at time.Time) bool {
	return sleepCtx(ctx, time.Until(at))
}

// lockedRand is a mutex-guarded rand.Rand: the throttle wrapper draws
// load samples from donor goroutines while the harness owns the seed.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand //dist:guardedby mu
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}
