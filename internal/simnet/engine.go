package simnet

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/sched"
)

// DonorSpec describes one simulated donor machine.
type DonorSpec struct {
	// Name labels the donor in metrics.
	Name string
	// Speed is the donor's compute rate in cost units per (virtual)
	// second at zero background load. The paper's homogeneous lab is
	// Speed=1 scaled donors; the heterogeneous pool mixes Pentium IIs
	// (slow) through cluster nodes (fast).
	Speed float64
	// Load is the mean fraction of the machine consumed by its
	// owner's foreground work ("semi-idle" donors in Fig. 1). Each unit's
	// effective speed is Speed * (1 - l) with l drawn uniformly from
	// [0, 2*Load], clamped to [0, 0.95].
	Load float64
	// JoinAt is when the donor first contacts the server.
	JoinAt time.Duration
	// LeaveAt, if positive, is when the donor silently vanishes
	// (powered-off lab machine). Units it holds are lost until lease
	// expiry.
	LeaveAt time.Duration
	// Offline lists windows during which the donor is unavailable and any
	// unit it held is lost (owner using the machine, reboots, nightly
	// power-down). The donor re-contacts the server at each window's end.
	Offline []Window
	// Latency is the one-way network latency to the server.
	Latency time.Duration
	// Bandwidth is the link bandwidth in bytes/second (0 = infinite).
	Bandwidth float64
	// Malice makes the donor Byzantine in the swarm harness (the virtual
	// simulation ignores it — simnet models capacity, not correctness).
	// Recognised modes, all computing promptly but lying about results:
	//
	//	""             honest (the default)
	//	"wrong-result" deterministic corruption of every result
	//	"lazy"         skip the computation, return a constant
	//	"collude"      wrong answers derived from the payload alone, so
	//	               every colluding donor submits the same wrong bytes
	//	"flaky"        corrupt the first few results, honest afterwards
	Malice string
}

// Window is a half-open interval of virtual time [From, To).
type Window struct {
	From, To time.Duration
}

// DiurnalLab returns n donor specs modelling a university laboratory over
// several days: machines are unavailable to the system during working
// hours (owners at the keyboard, 9:00-17:00 each day) and donate fully
// outside them — the deployment rhythm behind the paper's "low priority
// background service" on ~200 lab PCs.
func DiurnalLab(n, days int, speed float64, seed int64) []DonorSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]DonorSpec, n)
	for i := range out {
		var off []Window
		for d := 0; d < days; d++ {
			day := time.Duration(d) * 24 * time.Hour
			// Owners arrive and leave with +/- 1h jitter per machine/day.
			start := day + 9*time.Hour + time.Duration(rng.Intn(120)-60)*time.Minute
			end := day + 17*time.Hour + time.Duration(rng.Intn(120)-60)*time.Minute
			off = append(off, Window{From: start, To: end})
		}
		out[i] = DonorSpec{
			Name:      fmt.Sprintf("lab%03d", i),
			Speed:     speed,
			Load:      0.05, // background daemons even at night
			Latency:   2 * time.Millisecond,
			Bandwidth: 100e6 / 8,
			Offline:   off,
		}
	}
	return out
}

// Uniform returns n identical donor specs — the homogeneous laboratory of
// Figure 1.
func Uniform(n int, speed, load float64, latency time.Duration, bandwidth float64) []DonorSpec {
	out := make([]DonorSpec, n)
	for i := range out {
		out[i] = DonorSpec{
			Name:      fmt.Sprintf("pc%03d", i),
			Speed:     speed,
			Load:      load,
			Latency:   latency,
			Bandwidth: bandwidth,
		}
	}
	return out
}

// HeterogeneousLab returns a mixed pool patterned on the paper's
// deployment: Pentium II desktops (slow), Pentium III and IV desktops, and
// dual-PIII cluster nodes, in roughly the given proportions.
func HeterogeneousLab(n int, seed int64) []DonorSpec {
	rng := rand.New(rand.NewSource(seed))
	classes := []struct {
		name  string
		speed float64
		load  float64
		frac  float64
	}{
		{"p2", 0.35, 0.25, 0.25}, // Pentium II, busy lab machine
		{"p3", 0.6, 0.2, 0.30},   // Pentium III desktop
		{"p4", 1.0, 0.2, 0.25},   // Pentium IV desktop
		{"node", 0.8, 0.0, 0.20}, // dedicated cluster node (no owner load)
	}
	out := make([]DonorSpec, n)
	for i := range out {
		x := rng.Float64()
		acc := 0.0
		c := classes[len(classes)-1]
		for _, cl := range classes {
			acc += cl.frac
			if x < acc {
				c = cl
				break
			}
		}
		out[i] = DonorSpec{
			Name:      fmt.Sprintf("%s-%03d", c.name, i),
			Speed:     c.speed * (0.9 + 0.2*rng.Float64()),
			Load:      c.load,
			Latency:   time.Duration(1+rng.Intn(5)) * time.Millisecond,
			Bandwidth: 100e6 / 8, // 100 Mbit/s shared LAN
		}
	}
	return out
}

// StragglerLab returns n donor specs in which roughly the given fraction
// are severe stragglers running at slowSpeed while the rest run at full
// speed. The profile isolates the tail-latency pathology speculation is
// built for: a handful of near-dead machines each holding one last unit
// hostage while the healthy majority idles. At least one straggler is
// produced whenever fraction > 0 and n > 1.
func StragglerLab(n int, fraction, slowSpeed float64, seed int64) []DonorSpec {
	rng := rand.New(rand.NewSource(seed))
	slow := int(float64(n) * fraction)
	if slow < 1 && fraction > 0 && n > 1 {
		slow = 1
	}
	out := make([]DonorSpec, n)
	perm := rng.Perm(n)
	for i := range out {
		out[i] = DonorSpec{
			Name:      fmt.Sprintf("fast%03d", i),
			Speed:     1.0,
			Latency:   time.Millisecond,
			Bandwidth: 100e6 / 8,
		}
	}
	for _, idx := range perm[:slow] {
		out[idx].Name = fmt.Sprintf("slow%03d", idx)
		out[idx].Speed = slowSpeed
	}
	return out
}

// Compress scales every schedule field of the specs — JoinAt, LeaveAt and
// Offline windows — by the given factor, so a profile authored in virtual
// hours (DiurnalLab days, say) can drive a wall-clock harness run lasting
// seconds. Speeds, loads, latency and bandwidth are left untouched; only
// the calendar shrinks. The input slice is not modified.
func Compress(specs []DonorSpec, factor float64) []DonorSpec {
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * factor)
	}
	out := make([]DonorSpec, len(specs))
	for i, s := range specs {
		c := s
		c.JoinAt = scale(s.JoinAt)
		c.LeaveAt = scale(s.LeaveAt)
		if len(s.Offline) > 0 {
			c.Offline = make([]Window, len(s.Offline))
			for j, w := range s.Offline {
				c.Offline[j] = Window{From: scale(w.From), To: scale(w.To)}
			}
		}
		out[i] = c
	}
	return out
}

// Config parameterises one simulation run.
type Config struct {
	Donors []DonorSpec
	// Policy is the unit-sizing policy (the real scheduler code); nil is
	// the server's default.
	Policy sched.Policy
	// ServerOverhead is the server's service time per request (dispatch or
	// result ingest) — the single P-III 500 server is a shared resource.
	ServerOverhead time.Duration
	// Lease is the server's dist.ServerOptions.Lease: the ceiling of its
	// overdue rule, and the lease of a donor it has not measured yet.
	Lease time.Duration
	// Seed drives the load jitter.
	Seed int64
	// MaxVirtual aborts runaway simulations (default 100 days).
	MaxVirtual time.Duration
}

func (c *Config) applyDefaults() {
	if c.ServerOverhead <= 0 {
		c.ServerOverhead = 2 * time.Millisecond
	}
	if c.Lease <= 0 {
		c.Lease = 5 * time.Minute
	}
	if c.MaxVirtual <= 0 {
		c.MaxVirtual = 100 * 24 * time.Hour
	}
}

// Metrics summarises a simulation run.
type Metrics struct {
	// Makespan is the virtual time at which the last workload completed.
	Makespan time.Duration
	// UnitsDispatched and UnitsCompleted count the server's leases
	// (including reissues and speculative copies) and folds; UnitsLost
	// counts the leases it reissued after a failure or expiry.
	UnitsDispatched, UnitsCompleted, UnitsLost int64
	// BusyTime is summed donor compute time, cut where a cancel notice, a
	// leave or the end of the run stopped a unit; Efficiency is
	// BusyTime / (donors * Makespan) for always-on donors.
	BusyTime   time.Duration
	Efficiency float64
	// ServerBusy is total server service time (dispatch + ingest).
	ServerBusy time.Duration
	// PerDonorUnits maps donor name to the units whose result it folded.
	PerDonorUnits map[string]int64
}

// event kinds. A donor's request and result each wait in the server's
// service queue (ServerOverhead) before the server acts on them: the kind
// after each is the server's act.
const (
	evRequest  = iota // a donor's request reaches the server
	evDispatch        // the server serves it: RequestTask
	evResult          // a donor's result reaches the server
	evIngest          // the server serves it: SubmitResult
	evLeave           // the donor vanishes
	evRejoin          // the donor returns after an Offline window
	evTimer           // a server timer (its lease sweep) fires
)

type event struct {
	at    time.Duration
	seq   int64
	kind  int
	donor int
	// epoch is the donor's epoch (a timer event: the timer's) when the
	// event was scheduled; a leave, a rejoin or a cancel moves the donor's
	// on, and a Stop or Reset the timer's, so what came before is stale.
	epoch int
	timer *timer
}

type simDonor struct {
	spec         DonorSpec
	gone, parked bool
	epoch        int
	task         *dist.Task // the unit in hand, from dispatch to ingest
	from, to     time.Duration
	busy         time.Duration
	units        int64
}

// cut drops the donor's unit at now. Dispatch counted its whole compute,
// [from, to), as busy; cut takes back what lies after now.
func (d *simDonor) cut(now time.Duration) {
	if d.task != nil {
		d.busy -= max(d.to-max(now, d.from), 0)
		d.task = nil
	}
}

// problem adapts a Workload to dist.DataManager: the server cuts, leases,
// reissues and folds its units as it does any application's. units holds
// the outstanding units' transfer sizes; folded records that a Consume ran
// since the driver last cleared it.
type problem struct {
	w      Workload
	units  map[int64]Unit
	folded bool
}

func (p *problem) NextUnit(budget int64) (*dist.Unit, bool, error) {
	u, ok := p.w.Next(budget)
	if !ok {
		return nil, false, nil
	}
	p.units[u.ID] = u
	return &dist.Unit{ID: u.ID, Algorithm: "simnet", Cost: u.Cost}, true, nil
}

func (p *problem) Consume(id int64, _ []byte) error {
	p.w.Complete(id)
	delete(p.units, id)
	p.folded = true
	return nil
}

func (p *problem) Done() bool                   { return p.w.Done() }
func (p *problem) FinalResult() ([]byte, error) { return nil, nil }
func (p *problem) RemainingCost() int64         { return p.w.Remaining() }

// origin is virtual time zero on the server's clock.
var origin = time.Date(2005, 4, 4, 0, 0, 0, 0, time.UTC)

// sim is one run's event queue, kept in (at, seq) order, and the server's
// dist.Clock. donorEvs counts the donor events queued, stale ones included.
type sim struct {
	q        []*event
	seq      int64
	now      time.Duration
	donorEvs int
}

func (s *sim) push(e *event) {
	s.seq++
	e.seq = s.seq
	if e.timer == nil {
		s.donorEvs++
	}
	i, _ := slices.BinarySearchFunc(s.q, e, func(a, b *event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	s.q = slices.Insert(s.q, i, e)
}

// Now implements dist.Clock.
func (s *sim) Now() time.Time { return origin.Add(s.now) }

// AfterFunc implements dist.Clock: f runs from the event loop when virtual
// time reaches now+d.
func (s *sim) AfterFunc(d time.Duration, f func()) dist.Timer {
	t := &timer{s: s, f: f}
	t.Reset(d)
	return t
}

// timer is a dist.Timer in virtual time.
type timer struct {
	s     *sim
	f     func()
	epoch int
	armed bool
}

func (t *timer) Stop() bool {
	was := t.armed
	t.armed, t.epoch = false, t.epoch+1
	return was
}

func (t *timer) Reset(d time.Duration) bool {
	was := t.Stop()
	t.armed = true
	t.s.push(&event{at: t.s.now + max(d, 0), kind: evTimer, epoch: t.epoch, timer: t})
	return was
}

// Run simulates the workloads — each its own problem on one real
// dist.Server, which dispatches, leases, reissues, speculates and folds in
// virtual time — to completion and returns metrics. The event queue models
// only the donors (speed, load, transfers, churn) and the server's service
// queue. The simulation is deterministic for a given Config and workloads.
func Run(cfg Config, ws ...Workload) (*Metrics, error) {
	cfg.applyDefaults()
	if len(cfg.Donors) == 0 || len(ws) == 0 {
		return nil, fmt.Errorf("simnet: %d donors and %d workloads configured, want at least one of each", len(cfg.Donors), len(ws))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &sim{}
	donors := make([]*simDonor, len(cfg.Donors))
	request := func(at time.Duration, i int) {
		s.push(&event{at: at, kind: evRequest, donor: i, epoch: donors[i].epoch})
	}
	for i, spec := range cfg.Donors {
		if spec.Speed <= 0 {
			return nil, fmt.Errorf("simnet: donor %s has speed %g", spec.Name, spec.Speed)
		}
		donors[i] = &simDonor{spec: spec}
		request(spec.JoinAt, i)
		if spec.LeaveAt > 0 {
			s.push(&event{at: spec.LeaveAt, kind: evLeave, donor: i})
		}
		for _, w := range spec.Offline {
			if w.To <= w.From {
				return nil, fmt.Errorf("simnet: donor %s has inverted offline window %v", spec.Name, w)
			}
			s.push(&event{at: w.From, kind: evLeave, donor: i})
			s.push(&event{at: w.To, kind: evRejoin, donor: i})
		}
	}

	ctx := context.Background() //dist:allow-background the simulation is the root of every call it makes
	srv := dist.NewServer(dist.WithServerOptions(dist.ServerOptions{Policy: cfg.Policy, Lease: cfg.Lease, Clock: s}))
	defer srv.Close()
	probs := make(map[string]*problem, len(ws))
	ids := make([]string, len(ws))
	left := 0 // workloads not done
	for i, w := range ws {
		ids[i] = fmt.Sprintf("w%d", i)
		probs[ids[i]] = &problem{w: w, units: make(map[int64]Unit)}
		if !w.Done() {
			left++
		}
		if err := srv.Submit(ctx, &dist.Problem{ID: ids[i], DM: probs[ids[i]]}); err != nil {
			return nil, err
		}
	}

	m := &Metrics{PerDonorUnits: make(map[string]int64)}
	var serverFreeAt time.Duration
	serve := func(arrive time.Duration) time.Duration {
		serverFreeAt = max(arrive, serverFreeAt) + cfg.ServerOverhead
		m.ServerBusy += cfg.ServerOverhead
		return serverFreeAt
	}
	xfer := func(spec DonorSpec, bytes int64) time.Duration {
		d := spec.Latency
		if spec.Bandwidth > 0 && bytes > 0 {
			d += time.Duration(float64(bytes) / spec.Bandwidth * float64(time.Second))
		}
		return d
	}
	// settle acts on what a server call may have changed: a donor still
	// computing a unit a cancel notice names drops it and asks again, as a
	// production donor's cancel poller makes it; and after a fold or a
	// sweep every parked donor rescans, as a WaitTasks park wakes.
	settle := func(wake bool) {
		for i, d := range donors {
			if d.task != nil && s.now < d.to {
				notices, _ := srv.CancelNotices(ctx, d.spec.Name) // fails only after Close
				if slices.Contains(notices, dist.CancelNotice{ProblemID: d.task.ProblemID, Epoch: d.task.Epoch, UnitID: d.task.Unit.ID}) {
					d.cut(s.now)
					d.epoch++
					request(s.now, i)
				}
			}
			if wake && d.parked {
				d.parked = false
				request(s.now, i)
			}
		}
	}

	for left > 0 {
		if len(s.q) == 0 || (s.donorEvs == 0 && !slices.ContainsFunc(donors, func(d *simDonor) bool { return d.parked })) {
			return nil, fmt.Errorf("simnet: every donor gone before completion")
		}
		e := s.q[0]
		s.q = s.q[1:]
		if e.at > cfg.MaxVirtual {
			return nil, fmt.Errorf("simnet: exceeded virtual time limit %s (workload stuck?)", cfg.MaxVirtual)
		}
		s.now = e.at
		if e.timer != nil {
			if e.epoch == e.timer.epoch {
				e.timer.armed = false
				e.timer.f()
				settle(true)
			}
			continue
		}
		s.donorEvs--
		d := donors[e.donor]
		if (d.gone && e.kind != evRejoin) || (e.epoch != d.epoch && e.kind != evLeave && e.kind != evRejoin) {
			continue // the donor left, or moved on from what this event was for
		}
		switch e.kind {
		case evLeave:
			// Whatever the donor was computing is lost with it; its lease
			// stands until the server's overdue rule expires it.
			d.cut(e.at)
			d.gone, d.parked = true, false
			d.epoch++

		case evRejoin:
			if d.gone {
				d.gone = false
				d.epoch++
				request(e.at, e.donor)
			}

		case evRequest, evResult:
			e.kind++ // to evDispatch or evIngest, once the server is free
			e.at = serve(e.at)
			s.push(e)

		case evDispatch:
			task, _, err := srv.RequestTask(ctx, d.spec.Name)
			if err != nil {
				return nil, err
			}
			if task == nil {
				for _, id := range ids { // a problem the server ended unfinished stays so
					if st, _ := srv.Status(ctx, id); st.Done && !probs[id].w.Done() { // every id is registered
						_, err := srv.Wait(ctx, id)
						return nil, fmt.Errorf("simnet: problem %s ended unfinished: %w", id, err)
					}
				}
				d.parked = true
				continue
			}
			// A notice queued while the donor held no unit names none it
			// could be computing now (and the call fails only after Close).
			_, _ = srv.CancelNotices(ctx, d.spec.Name)
			u := probs[task.ProblemID].units[task.Unit.ID]
			load := min(d.spec.Load*2*rng.Float64(), 0.95)
			compute := time.Duration(float64(u.Cost) / (d.spec.Speed * (1 - load)) * float64(time.Second))
			d.task, d.from = task, e.at+xfer(d.spec, u.DataBytes)
			d.to = d.from + compute
			d.busy += compute
			s.push(&event{at: d.to + xfer(d.spec, u.ResultBytes), kind: evResult, donor: e.donor, epoch: d.epoch})

		case evIngest:
			p := probs[d.task.ProblemID]
			p.folded = false
			err := srv.SubmitResult(ctx, &dist.Result{
				ProblemID: d.task.ProblemID, UnitID: d.task.Unit.ID, Epoch: d.task.Epoch,
				Donor: d.spec.Name, Elapsed: d.to - d.from,
			})
			if err != nil {
				return nil, err
			}
			d.task = nil
			if p.folded {
				d.units++
				if p.w.Done() {
					left--
				}
			}
			m.Makespan = e.at
			settle(p.folded)
			request(e.at, e.donor)
		}
	}

	for _, id := range ids {
		st, _ := srv.Stats(ctx, id) // every id is registered
		m.UnitsDispatched += int64(st.Dispatched)
		m.UnitsCompleted += int64(st.Completed)
		m.UnitsLost += int64(st.Reissued)
	}
	for _, d := range donors {
		d.cut(m.Makespan)
		m.BusyTime += d.busy
		m.PerDonorUnits[d.spec.Name] = d.units
	}
	if m.Makespan > 0 {
		m.Efficiency = m.BusyTime.Seconds() / (m.Makespan.Seconds() * float64(len(donors)))
	}
	return m, nil
}

// SpeedupPoint is one (processors, speedup) sample of a scaling curve.
type SpeedupPoint struct {
	Donors     int
	Makespan   time.Duration
	Speedup    float64
	Efficiency float64
}

// SpeedupCurve runs the workload factory's instances at each donor count and
// reports speedup relative to the single-donor makespan — the exact
// construction of the paper's Figures 1 and 2.
func SpeedupCurve(counts []int, mkDonors func(n int) []DonorSpec, mkWorkloads func() []Workload, cfg Config) ([]SpeedupPoint, error) {
	sort.Ints(counts)
	if len(counts) == 0 || counts[0] < 1 {
		return nil, fmt.Errorf("simnet: speedup curve needs donor counts >= 1")
	}
	base := cfg
	base.Donors = mkDonors(1)
	m1, err := Run(base, mkWorkloads()...)
	if err != nil {
		return nil, fmt.Errorf("simnet: baseline run: %w", err)
	}
	t1 := m1.Makespan
	var out []SpeedupPoint
	for _, n := range counts {
		c := cfg
		c.Donors = mkDonors(n)
		m, err := Run(c, mkWorkloads()...)
		if err != nil {
			return nil, fmt.Errorf("simnet: run with %d donors: %w", n, err)
		}
		out = append(out, SpeedupPoint{
			Donors:     n,
			Makespan:   m.Makespan,
			Speedup:    t1.Seconds() / m.Makespan.Seconds(),
			Efficiency: t1.Seconds() / m.Makespan.Seconds() / float64(n),
		})
	}
	return out, nil
}
