package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

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
	// Policy is the unit-sizing policy (the real scheduler code).
	Policy sched.Policy
	// ServerOverhead is the server's service time per request (dispatch or
	// result ingest) — the single P-III 500 server is a shared resource.
	ServerOverhead time.Duration
	// Lease is the reissue timeout for lost units.
	Lease time.Duration
	// WaitHint is how long an idle donor waits when no unit is available.
	WaitHint time.Duration
	// Seed drives the load jitter.
	Seed int64
	// MaxVirtual aborts runaway simulations (default 100 days).
	MaxVirtual time.Duration
}

func (c *Config) applyDefaults() {
	if c.Policy == nil {
		c.Policy = sched.Adaptive{Target: 5 * time.Second, Bootstrap: 1000, Min: 1}
	}
	if c.ServerOverhead <= 0 {
		c.ServerOverhead = 2 * time.Millisecond
	}
	if c.Lease <= 0 {
		c.Lease = 5 * time.Minute
	}
	if c.WaitHint <= 0 {
		c.WaitHint = 250 * time.Millisecond
	}
	if c.MaxVirtual <= 0 {
		c.MaxVirtual = 100 * 24 * time.Hour
	}
}

// Metrics summarises a simulation run.
type Metrics struct {
	// Makespan is the virtual time at which the workload completed.
	Makespan time.Duration
	// UnitsDispatched and UnitsCompleted count dispatches (including
	// reissues) and successful completions.
	UnitsDispatched int64
	UnitsCompleted  int64
	UnitsLost       int64
	// BusyTime is summed donor compute time; Efficiency is
	// BusyTime / (donors * Makespan) for always-on donors.
	BusyTime   time.Duration
	Efficiency float64
	// ServerBusy is total server service time (dispatch + ingest).
	ServerBusy time.Duration
	// PerDonorUnits maps donor name to completed units.
	PerDonorUnits map[string]int64
}

// event kinds
const (
	evDonorRequest = iota // donor asks the server for work
	evUnitDone            // donor finished computing; result arrives at server
	evLeaseCheck          // server checks whether a unit is overdue
	evDonorLeave          // donor vanishes
	evDonorRejoin         // donor returns after an Offline window
)

type event struct {
	at    time.Duration
	seq   int64
	kind  int
	donor int
	unit  Unit
	// sentAt stamps dispatch time for lease checks.
	sentAt time.Duration
	// epoch is the donor's availability epoch at scheduling time; requests
	// and completions from before a leave are stale in later epochs.
	epoch int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type simDonor struct {
	spec  DonorSpec
	stats sched.DonorStats
	gone  bool
	epoch int
	busy  time.Duration
	units int64
}

// Run simulates the workload to completion and returns metrics. The
// simulation is deterministic for a given (Config, Workload) pair.
func Run(cfg Config, w Workload) (*Metrics, error) {
	cfg.applyDefaults()
	if len(cfg.Donors) == 0 {
		return nil, fmt.Errorf("simnet: no donors configured")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	donors := make([]*simDonor, len(cfg.Donors))
	for i, spec := range cfg.Donors {
		donors[i] = &simDonor{spec: spec}
	}

	var q eventQueue
	seq := int64(0)
	push := func(at time.Duration, kind, donor int, u Unit, sentAt time.Duration) {
		seq++
		heap.Push(&q, &event{
			at: at, seq: seq, kind: kind, donor: donor, unit: u, sentAt: sentAt,
			epoch: donors[donor].epoch,
		})
	}
	for i, d := range donors {
		push(d.spec.JoinAt, evDonorRequest, i, Unit{}, 0)
		if d.spec.LeaveAt > 0 {
			push(d.spec.LeaveAt, evDonorLeave, i, Unit{}, 0)
		}
		for _, w := range d.spec.Offline {
			if w.To <= w.From {
				return nil, fmt.Errorf("simnet: donor %s has inverted offline window %v", d.spec.Name, w)
			}
			push(w.From, evDonorLeave, i, Unit{}, 0)
			push(w.To, evDonorRejoin, i, Unit{}, 0)
		}
	}

	m := &Metrics{PerDonorUnits: make(map[string]int64)}
	// meanSpeed lets the server estimate how long a unit *should* take when
	// a donor has no throughput history yet; the reissue deadline scales
	// with that estimate so leases never fire mid-computation on healthy
	// donors (the live system's lease is likewise set well above the
	// scheduler's target unit duration).
	meanSpeed := 0.0
	for _, d := range donors {
		meanSpeed += d.spec.Speed
	}
	meanSpeed /= float64(len(donors))
	if meanSpeed <= 0 {
		return nil, fmt.Errorf("simnet: donors have zero mean speed")
	}
	leaseFor := func(d *simDonor, cost int64) time.Duration {
		tp := d.stats.Throughput
		if tp <= 0 {
			tp = meanSpeed
		}
		expected := time.Duration(float64(cost) / tp * float64(time.Second))
		if 4*expected > cfg.Lease {
			return 4 * expected
		}
		return cfg.Lease
	}
	var serverFreeAt time.Duration
	// pending maps unit ID -> donor index for lease accounting. completed
	// tracks IDs so late/lost duplicates are ignored.
	pending := make(map[int64]int)
	completed := make(map[int64]bool)

	serverService := func(arrive time.Duration) time.Duration {
		start := arrive
		if serverFreeAt > start {
			start = serverFreeAt
		}
		serverFreeAt = start + cfg.ServerOverhead
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

	for q.Len() > 0 {
		e := heap.Pop(&q).(*event)
		if e.at > cfg.MaxVirtual {
			return nil, fmt.Errorf("simnet: exceeded virtual time limit %s (workload stuck?)", cfg.MaxVirtual)
		}
		switch e.kind {
		case evDonorLeave:
			// Invalidate the donor's outstanding request/completion events:
			// whatever it was computing is lost with it.
			donors[e.donor].gone = true
			donors[e.donor].epoch++

		case evDonorRejoin:
			d := donors[e.donor]
			if !d.gone {
				continue
			}
			d.gone = false
			d.epoch++
			push(e.at, evDonorRequest, e.donor, Unit{}, 0)

		case evDonorRequest:
			d := donors[e.donor]
			if d.gone || e.epoch != d.epoch || w.Done() {
				continue
			}
			decideAt := serverService(e.at)
			budget := cfg.Policy.Budget(d.stats, w.Remaining(), len(donors))
			u, ok := w.Next(budget)
			if !ok {
				push(decideAt+cfg.WaitHint, evDonorRequest, e.donor, Unit{}, 0)
				continue
			}
			m.UnitsDispatched++
			pending[u.ID] = e.donor
			// Unit data travels to the donor; compute; result travels back.
			arrive := decideAt + xfer(d.spec, u.DataBytes)
			load := d.spec.Load * 2 * rng.Float64()
			if load > 0.95 {
				load = 0.95
			}
			eff := d.spec.Speed * (1 - load)
			compute := time.Duration(float64(u.Cost) / eff * float64(time.Second))
			d.busy += compute
			doneAt := arrive + compute + xfer(d.spec, u.ResultBytes)
			push(doneAt, evUnitDone, e.donor, u, decideAt)
			push(decideAt+leaseFor(d, u.Cost), evLeaseCheck, e.donor, u, decideAt)

		case evUnitDone:
			d := donors[e.donor]
			if d.gone || e.epoch != d.epoch {
				continue // result lost with the donor (or with its old epoch)
			}
			if _, still := pending[e.unit.ID]; !still || completed[e.unit.ID] {
				// Late result for a unit already reissued (and possibly
				// completed elsewhere): drop it, but the donor is alive and
				// idle, so it immediately asks for more work.
				ingestAt := serverService(e.at)
				push(ingestAt, evDonorRequest, e.donor, Unit{}, 0)
				continue
			}
			ingestAt := serverService(e.at)
			delete(pending, e.unit.ID)
			completed[e.unit.ID] = true
			w.Complete(e.unit.ID)
			m.UnitsCompleted++
			d.units++
			// Throughput sample: cost / wall time since dispatch.
			wall := (e.at - e.sentAt).Seconds()
			if wall > 0 {
				d.stats.Throughput = sched.EWMA(d.stats.Throughput, float64(e.unit.Cost)/wall, 0.3)
			}
			d.stats.Completed++
			if w.Done() {
				m.Makespan = ingestAt
				finish(m, donors)
				return m, nil
			}
			// Donor immediately asks for more work.
			push(ingestAt, evDonorRequest, e.donor, Unit{}, 0)

		case evLeaseCheck:
			if completed[e.unit.ID] {
				continue
			}
			if _, still := pending[e.unit.ID]; !still {
				continue
			}
			// Overdue: requeue for another donor.
			delete(pending, e.unit.ID)
			w.Requeue(e.unit)
			m.UnitsLost++
		}
	}
	if !w.Done() {
		return nil, fmt.Errorf("simnet: event queue drained before completion (all donors gone?)")
	}
	finish(m, donors)
	return m, nil
}

func finish(m *Metrics, donors []*simDonor) {
	for _, d := range donors {
		m.BusyTime += d.busy
		m.PerDonorUnits[d.spec.Name] = d.units
	}
	if m.Makespan > 0 && len(donors) > 0 {
		m.Efficiency = m.BusyTime.Seconds() / (m.Makespan.Seconds() * float64(len(donors)))
	}
}

// SpeedupPoint is one (processors, speedup) sample of a scaling curve.
type SpeedupPoint struct {
	Donors     int
	Makespan   time.Duration
	Speedup    float64
	Efficiency float64
}

// SpeedupCurve runs the workload factory at each donor count and reports
// speedup relative to the single-donor makespan — the exact construction of
// the paper's Figures 1 and 2.
func SpeedupCurve(counts []int, mkDonors func(n int) []DonorSpec, mkWorkload func() Workload, cfg Config) ([]SpeedupPoint, error) {
	sort.Ints(counts)
	if len(counts) == 0 || counts[0] < 1 {
		return nil, fmt.Errorf("simnet: speedup curve needs donor counts >= 1")
	}
	base := cfg
	base.Donors = mkDonors(1)
	m1, err := Run(base, mkWorkload())
	if err != nil {
		return nil, fmt.Errorf("simnet: baseline run: %w", err)
	}
	t1 := m1.Makespan
	var out []SpeedupPoint
	for _, n := range counts {
		c := cfg
		c.Donors = mkDonors(n)
		m, err := Run(c, mkWorkload())
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
