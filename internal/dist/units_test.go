package dist

// An exhaustive bounded explorer of the unit lifecycle, in the manner of
// stateless model checking (Godefroid, VeriSoft, POPL 1997): every sequence
// of table events up to exploreDepth is enumerated over three donors and a
// two-item DataManager, with visited states deduplicated by a hash of a
// canonical encoding (up to a renaming of the donors). Time passes in two
// events besides the millisecond every event takes: past the next lease's
// speculation instant, and past the next lease's deadline, each followed by
// the sweep that instant would run. After every step the invariants are
// checked — checkUnits, plus what only a step shows: a spot-checked unit
// folds only with a quorum of distinct agreeing donors and, once a trusted
// donor exists, only with a trusted member unless no tie-breaker can ever
// arrive; no result of another incarnation is held or folded; a speculative
// copy goes only to an idle donor off probation and only of a lease overdue
// by speculateFactor times its expectation; and a lease expires only past
// the overdue rule's bound, recomputed here from the explorer's throughput.
// The search deepens iteratively, so the first violation found is one of
// the shortest; its trace is printed. Each branch clones the state, so
// memory stays at one path plus the visited set.
//
// Every visited state is also crashed, twice: a restarted coordinator
// rebuilds the table by replaying the journal records the path owed so far
// onto a fresh DataManager (crashCheck, after every step: the records are
// the path's own), and by replaying a checkpoint taken at that state
// (checkpointCheck, once per distinct state: a checkpoint depends on the
// state alone); each rebuild must match the live table — folded units stay
// folded and none folds twice, every outstanding unit comes back open with
// its held replicas, and no journaled fold is skipped.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// exploreDepth bounds the event sequences the explorer enumerates.
const exploreDepth = 6

var exDonors = [3]string{"d0", "d1", "d2"}

// exRate is every measured throughput in the explorer, the fleet's
// included, in cost units per second; exLease is its Lease. A one-cost unit
// is expected in exExpect, so a measured donor's lease expires at the floor
// and an unmeasured one's at exLease.
const (
	exRate   = 100
	exLease  = 2 * time.Second
	exExpect = time.Second/exRate + batchLatencyTarget
)

// exConfig is one explored configuration.
type exConfig struct {
	quorum   int  // 1: verification off; 2: units may be spot-checked
	measured bool // the donors have a throughput; otherwise only the fleet has
	requeue  bool // the DataManager implements Requeuer
}

func (c exConfig) String() string {
	return fmt.Sprintf("quorum %d, measured %v, requeue %v", c.quorum, c.measured, c.requeue)
}

// bound is how long after its grant the overdue rule lets a lease live.
func (c exConfig) bound() time.Duration {
	if !c.measured {
		return exLease
	}
	return min(exLease, max(expiryFloor, expireFactor*exExpect))
}

type exOp uint8

const (
	opFresh   exOp = iota // a fresh unit granted to donor; arg is its quorum
	opReissue             // an open set granted to donor
	opIdle                // donor's scan found nothing fresh: speculate or starve
	opSubmit              // donor submits a result for uid: arg 0 agrees, 1 lies, 2 is another incarnation's
	opFail                // donor reports its lease on uid lost; arg is the failureKind
	opOverdue             // time passes past the next speculation instant, then a sweep
	opExpire              // time passes past the next deadline, then a sweep
	opSweep               // a sweep with no time passing
	opEvict               // donor is quarantined
	opTrust               // donor's trust crosses the bar
	opLive                // donor's liveness flips
	opRelease             // the problem is forgotten
)

// exEvent is one step of an explored sequence.
type exEvent struct {
	op    exOp
	donor int8
	arg   int8
	uid   int64
}

func (e exEvent) String() string {
	d := exDonors[e.donor]
	switch e.op {
	case opFresh:
		return fmt.Sprintf("fresh unit to %s, quorum %d", d, e.arg)
	case opReissue:
		return "reissue to " + d
	case opIdle:
		return "idle scan by " + d
	case opSubmit:
		return fmt.Sprintf("%s submits unit %d: %s", d, e.uid, [...]string{"agrees", "lies", "stale epoch"}[e.arg])
	case opFail:
		return fmt.Sprintf("%s loses unit %d: %s", d, e.uid, [...]string{"compute", "transport", "expiry", "verify"}[e.arg])
	case opOverdue:
		return "time passes past the next lease's speculation instant"
	case opExpire:
		return "time passes past the next lease's deadline"
	case opSweep:
		return "lease sweep"
	case opEvict:
		return d + " quarantined"
	case opTrust:
		return d + " trust flips"
	case opLive:
		return d + " liveness flips"
	default:
		return "problem forgotten"
	}
}

// payload is what a submit event offers for the set's unit.
func (e exEvent) payload(set *attemptSet) []byte {
	switch e.arg {
	case 0:
		return set.unit.Payload
	case 1:
		return []byte("lie")
	}
	return []byte("stale")
}

// fakeFleet is the explorer's donor standing.
type fakeFleet struct{ trusted, live, quarantined [3]bool }

func (f *fakeFleet) trustedDonorExists() bool {
	for i := range exDonors {
		if f.trusted[i] && !f.quarantined[i] {
			return true
		}
	}
	return false
}

func (f *fakeFleet) throughput() float64 { return exRate }

func (f *fakeFleet) liveDonors(_ time.Time, skip func(string) bool) int {
	n := 0
	for i, d := range exDonors {
		if f.live[i] && !f.quarantined[i] && (skip == nil || !skip(d)) {
			n++
		}
	}
	return n
}

// exState is one explored state: a table, its DataManager and the fleet,
// and the journal records its path owed.
type exState struct {
	cfg      exConfig
	inflight atomic.Int64
	t        unitTable
	dm       *lifeDM
	f        fakeFleet
	clock    time.Time
	journal  []journal.Record
}

func newExState(cfg exConfig) *exState {
	x := &exState{cfg: cfg, dm: newLifeDM(2), clock: time.Unix(0, 0)}
	var dm DataManager = x.dm
	if cfg.requeue {
		dm = lifeRequeueDM{x.dm}
	}
	opts := ServerOptions{Lease: exLease, VerifyQuorum: 2}
	x.t = newUnitTable(Task{ProblemID: "x", Epoch: 1}, dm, opts, &x.inflight)
	x.f.live = [3]bool{true, true, true}
	return x
}

func (x *exState) uids() []int64 {
	uids := make([]int64, 0, len(x.t.sets))
	for uid := range x.t.sets {
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	return uids
}

func (x *exState) probation(d int8) bool { return x.cfg.quorum > 1 && !x.f.trusted[d] }

// enabled lists the events that can change the state.
func (x *exState) enabled() []exEvent {
	if x.t.done {
		return nil
	}
	uids := x.uids()
	var evs []exEvent
	for di := range exDonors {
		d := int8(di)
		if x.f.quarantined[d] {
			continue
		}
		if len(x.t.open) > 0 {
			evs = append(evs, exEvent{op: opReissue, donor: d})
		}
		switch {
		case x.dm.next == x.dm.n && len(x.dm.again) == 0:
			evs = append(evs, exEvent{op: opIdle, donor: d})
		case !x.probation(d):
			evs = append(evs, exEvent{op: opFresh, donor: d, arg: 1})
			if x.cfg.quorum > 1 {
				evs = append(evs, exEvent{op: opFresh, donor: d, arg: 2})
			}
		case !x.t.verifyBacklog(exDonors[d], 1):
			evs = append(evs, exEvent{op: opFresh, donor: d, arg: 2})
		}
		for _, uid := range uids {
			evs = append(evs, exEvent{op: opSubmit, donor: d, uid: uid}, exEvent{op: opSubmit, donor: d, uid: uid, arg: 1})
			if x.t.sets[uid].leaseOf(exDonors[d]) >= 0 {
				for k := failCompute; k <= failVerify; k++ {
					evs = append(evs, exEvent{op: opFail, donor: d, uid: uid, arg: int8(k)})
				}
				evs = append(evs, exEvent{op: opSubmit, donor: d, uid: uid, arg: 2})
			}
		}
		if x.cfg.quorum > 1 {
			evs = append(evs, exEvent{op: opTrust, donor: d}, exEvent{op: opEvict, donor: d})
		}
		evs = append(evs, exEvent{op: opLive, donor: d})
	}
	if x.inflight.Load() > 0 {
		evs = append(evs, exEvent{op: opExpire})
	}
	if !x.nextDue().IsZero() {
		evs = append(evs, exEvent{op: opOverdue})
	}
	if x.cfg.quorum > 1 {
		evs = append(evs, exEvent{op: opSweep})
	}
	return append(evs, exEvent{op: opRelease})
}

// nextDue returns the earliest speculation instant still ahead of the
// clock, or zero.
func (x *exState) nextDue() (next time.Time) {
	for _, set := range x.t.sets {
		for _, l := range set.leases {
			if due := x.t.due(set, l, exRate); due.After(x.clock) && (next.IsZero() || due.Before(next)) {
				next = due
			}
		}
	}
	return next
}

// apply performs one event the way the server would reach the table.
func (x *exState) apply(e exEvent) {
	x.clock = x.clock.Add(time.Millisecond)
	d, name, probation := e.donor, exDonors[e.donor], x.probation(e.donor)
	switch e.op {
	case opFresh, opReissue, opIdle:
		x.f.live[d] = true // a request is a sign of life
		v := dispatchView{now: x.clock, probation: probation}
		if x.cfg.measured {
			v.stats.Throughput = exRate
		}
		switch e.op {
		case opFresh:
			if u, ok, _ := x.t.dm.NextUnit(1); ok {
				x.t.cut(u, 1, int(e.arg), name, v)
			}
		case opReissue:
			othersAlive := x.f.liveDonors(x.clock, func(n string) bool { return n == name }) > 0
			x.t.reissue(name, v, probation && x.t.verifyBacklog(name, 1), othersAlive)
		default:
			x.t.idle(name, v, &x.f)
		}
	case opSubmit:
		x.f.live[d] = true
		res := &Result{ProblemID: "x", UnitID: e.uid, Donor: name, Epoch: 1, Payload: e.payload(x.t.sets[e.uid])}
		if e.arg == 2 {
			res.Epoch = 2
		}
		x.t.offer(res, x.f.trusted[d], x.clock, &x.f)
	case opFail:
		if x.t.lose(e.uid, name, "injected", failureKind(e.arg), 1, x.clock, &x.f) {
			x.f.live[d] = true
		}
	case opOverdue:
		x.clock = x.nextDue().Add(time.Nanosecond)
		x.t.expire(x.clock, &x.f)
	case opExpire:
		var next time.Time
		for _, set := range x.t.sets {
			for _, l := range set.leases {
				if next.IsZero() || l.deadline.Before(next) {
					next = l.deadline
				}
			}
		}
		if at := next.Add(time.Nanosecond); at.After(x.clock) {
			x.clock = at
		}
		x.t.expire(x.clock, &x.f)
	case opSweep:
		x.t.expire(x.clock, &x.f)
	case opEvict:
		x.f.quarantined[d] = true
		x.t.evict(name, x.clock, &x.f)
	case opTrust:
		x.f.trusted[d] = !x.f.trusted[d]
	case opLive:
		x.f.live[d] = !x.f.live[d]
	case opRelease:
		x.t.finish(ErrForgotten)
	}
}

// clone returns an independent copy of the state.
func (x *exState) clone() *exState {
	y := &exState{cfg: x.cfg, f: x.f, clock: x.clock, journal: slices.Clip(x.journal)}
	y.inflight.Store(x.inflight.Load())
	dm := *x.dm
	dm.byID = maps.Clone(x.dm.byID)
	dm.again, dm.folds = slices.Clone(x.dm.again), slices.Clone(x.dm.folds)
	y.dm = &dm
	y.t = x.t
	y.t.dm, y.t.inflight, y.t.fx = y.dm, &y.inflight, nil
	if x.cfg.requeue {
		y.t.dm = lifeRequeueDM{y.dm}
	}
	if x.t.sets == nil {
		return y
	}
	y.t.sets = make(map[int64]*attemptSet, len(x.t.sets))
	for uid, set := range x.t.sets {
		c := *set
		c.leases = append(c.first[:0], set.leases...)
		c.results, c.donors = slices.Clone(set.results), slices.Clone(set.donors)
		y.t.sets[uid] = &c
	}
	y.t.open = make([]*attemptSet, len(x.t.open))
	for i, set := range x.t.open {
		y.t.open[i] = y.t.sets[set.uid]
	}
	return y
}

// check asserts every invariant after event e took pre to x, returning the
// first violation. The effects e owed are inspected and then dropped, as
// Server.unlock would apply them; the journal records among them are kept.
func (x *exState) check(pre *exState, e exEvent) error {
	defer func() { x.t.fx = x.t.fx[:0] }()
	x.journal = append(x.journal, journalOf(x.t.fx)...)
	if err := checkUnits(&x.t, x.dm); err != nil {
		return err
	}
	for _, set := range x.t.sets {
		for _, r := range set.results {
			if string(r.payload) == "stale" {
				return fmt.Errorf("unit %d holds another incarnation's result", set.uid)
			}
		}
	}
	if err := x.checkOverdue(pre, e); err != nil {
		return err
	}
	for _, fx := range x.t.fx {
		if fx.kind != fxFold {
			continue
		}
		if string(fx.payload) == "stale" {
			return fmt.Errorf("unit %d folded another incarnation's result", fx.uid)
		}
		set := pre.t.sets[fx.uid]
		if set.quorum < 2 {
			continue
		}
		// What the quorum rule saw: the results, leases and involved donors
		// of the set as the event left them just before the fold.
		gone := func(donor string) bool { return e.op == opEvict && donor == exDonors[e.donor] }
		results := slices.DeleteFunc(slices.Clone(set.results), func(r heldResult) bool { return gone(r.donor) })
		if e.op == opSubmit {
			results = append(results, heldResult{donor: exDonors[e.donor], payload: e.payload(set), trusted: x.f.trusted[e.donor]})
		}
		swept := e.op == opExpire || e.op == opOverdue || e.op == opSweep
		leases := slices.DeleteFunc(slices.Clone(set.leases), func(l lease) bool {
			return gone(l.donor) || (e.op == opSubmit && l.donor == exDonors[e.donor]) || (swept && x.clock.After(l.deadline))
		})
		var agree []string
		groupTrusted, anyTrusted := false, false
		for _, r := range results {
			anyTrusted = anyTrusted || r.trusted
			if bytes.Equal(r.payload, fx.payload) && !slices.Contains(agree, r.donor) {
				agree = append(agree, r.donor)
				groupTrusted = groupTrusted || r.trusted
			}
		}
		if len(agree) < set.quorum {
			return fmt.Errorf("unit %d folded %q agreed by %v, quorum %d", fx.uid, fx.payload, agree, set.quorum)
		}
		if groupTrusted || !x.f.trustedDonorExists() {
			continue
		}
		uninvolved := x.f.liveDonors(x.clock, func(n string) bool {
			return (slices.Contains(set.donors, n) && !gone(n)) || slices.ContainsFunc(leases, func(l lease) bool { return l.donor == n })
		}) > 0
		if anyTrusted || len(leases) > 0 || uninvolved {
			return fmt.Errorf("unit %d folded %q agreed only by untrusted %v while a tie-breaker could arrive (trusted result held %v, replicas out %d, live donor uninvolved %v)",
				fx.uid, fx.payload, agree, anyTrusted, len(leases), uninvolved)
		}
	}
	return x.crashCheck()
}

// checkOverdue asserts the overdue rule over event e, which took pre to x,
// against bounds recomputed from the explorer's throughput rather than read
// off the leases: a set that gained a second lease while it had one
// ordinary lease was speculated, which only an idle scan by a donor off
// probation may do, and only past speculateFactor times the expectation; a
// lease a sweep took from a set that did not fold was expired, which must
// not happen before the rule's bound.
func (x *exState) checkOverdue(pre *exState, e exEvent) error {
	folded := func(uid int64) bool {
		return slices.ContainsFunc(x.t.fx, func(fx effect) bool { return fx.kind == fxFold && fx.uid == uid })
	}
	for uid, before := range pre.t.sets {
		after := x.t.sets[uid]
		if after != nil && before.quorum == 1 && len(before.leases) == 1 && len(after.leases) == 2 {
			l := before.leases[0]
			switch {
			case e.op != opIdle:
				return fmt.Errorf("unit %d gained a second lease outside an idle scan", uid)
			case pre.probation(e.donor):
				return fmt.Errorf("unit %d speculated to %s on probation", uid, exDonors[e.donor])
			case !x.clock.After(l.granted.Add(speculateFactor * exExpect)):
				return fmt.Errorf("unit %d speculated %v after its grant, before it was overdue (%v)", uid, x.clock.Sub(l.granted), speculateFactor*exExpect)
			}
		}
		if (e.op != opOverdue && e.op != opExpire && e.op != opSweep) || folded(uid) || (x.t.done && !pre.t.done) {
			continue
		}
		for _, l := range before.leases {
			if (after == nil || after.leaseOf(l.donor) < 0) && x.clock.Sub(l.granted) <= x.cfg.bound() {
				return fmt.Errorf("%s's lease on unit %d expired %v after its grant, within the bound %v", l.donor, uid, x.clock.Sub(l.granted), x.cfg.bound())
			}
		}
	}
	return nil
}

// journalOf returns the journal records a durable problem owes for fx.
func journalOf(fx []effect) []journal.Record {
	var recs []journal.Record
	for i := range fx {
		if k := fx[i].kind; k == fxGrant || k == fxReplica || k == fxFold {
			recs = append(recs, fx[i].record("x", 1))
		}
	}
	return recs
}

// restored is the DataManager a checkpoint of d restores (DurableDM): the
// same state, re-emitting its pending units first, in ID order.
func (d *lifeDM) restored() *lifeDM {
	r := *d
	r.byID, r.folds = maps.Clone(d.byID), slices.Clone(d.folds)
	r.resume = slices.Sorted(maps.Keys(d.byID))
	return &r
}

// crashable reports whether a crash at this state has a table to rebuild:
// a Requeuer is never durable, and a problem that failed or was forgotten
// is gone.
func (x *exState) crashable() bool {
	return !x.cfg.requeue && (!x.t.done || x.dm.Done())
}

// crashCheck crashes the coordinator at this state and rebuilds the table
// as recovery would from the journal records owed so far, replayed onto a
// fresh DataManager. The rebuild must match the live table.
func (x *exState) crashCheck() error {
	if !x.crashable() {
		return nil
	}
	if err := x.rebuilt(newExState(x.cfg), x.journal); err != nil {
		return fmt.Errorf("rebuilt from the journal: %w", err)
	}
	return nil
}

// checkpointCheck crashes the coordinator at this state and rebuilds the
// table from a checkpoint taken now — the restored DataManager plus the
// records rejournal owes — which must match the live table. What it reads
// is the DataManager, the sets with their held results, the done flag, the
// quarantined donors and the counters resume seeds; all but reissued enter
// the state key, and explore adds reissued to the key it runs this once
// per. A finished problem is not checkpointed.
func (x *exState) checkpointCheck() error {
	if !x.crashable() || x.t.done {
		return nil
	}
	n := len(x.t.fx)
	x.t.rejournal()
	ckpt := journalOf(x.t.fx[n:])
	x.t.fx = x.t.fx[:n]
	y := newExState(x.cfg)
	y.dm = x.dm.restored()
	y.t.dm = y.dm
	y.t.resume(x.t.dispatched, x.t.completed, x.t.reissued)
	if err := x.rebuilt(y, ckpt); err != nil {
		return fmt.Errorf("rebuilt from a checkpoint: %w", err)
	}
	return nil
}

// rebuilt replays recs into y, as recovery replays them into a restored
// problem, and compares the result with the live state x: the lifecycle
// invariants hold, no fold is skipped, the same items are folded, every
// outstanding unit is back open with the same held replicas (up to the
// results of donors quarantined since: quarantine, like all trust, is soft
// state), and nothing else is.
func (x *exState) rebuilt(y *exState, recs []journal.Record) error {
	for _, r := range recs {
		if f, fold := r.(*journal.Fold); !y.t.replay(r) && fold {
			return fmt.Errorf("fold of unit %d skipped", f.UnitID)
		}
	}
	if y.t.done != x.t.done {
		for _, fx := range y.t.fx {
			if fx.kind == fxEnd {
				return fmt.Errorf("ended (%v), live table did not", fx.err)
			}
		}
		return fmt.Errorf("ended %v, live table ended %v", y.t.done, x.t.done)
	}
	if err := checkUnits(&y.t, y.dm); err != nil {
		return err
	}
	if !slices.Equal(y.dm.folds, x.dm.folds) || y.t.completed != x.t.completed {
		return fmt.Errorf("item folds %v, %d completed; live %v, %d", y.dm.folds, y.t.completed, x.dm.folds, x.t.completed)
	}
	held := func(set *attemptSet) []string {
		var rs []string
		for _, r := range set.results {
			if !x.f.quarantined[r.donor[1]-'0'] {
				rs = append(rs, r.donor+":"+string(r.payload))
			}
		}
		slices.Sort(rs)
		return rs
	}
	for uid, set := range x.t.sets {
		got := y.t.sets[uid]
		if got == nil || !got.open {
			return fmt.Errorf("unit %d did not come back open", uid)
		}
		if want, have := held(set), held(got); !slices.Equal(want, have) {
			return fmt.Errorf("unit %d holds %v, live %v", uid, have, want)
		}
	}
	if len(y.t.sets) != len(x.t.sets) {
		return fmt.Errorf("%d units outstanding, live %d", len(y.t.sets), len(x.t.sets))
	}
	return nil
}

// donorPerms are the six renamings of the three donors.
var donorPerms = [...][3]byte{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// key hashes everything in the state that can steer a later transition or
// an invariant. The donors are interchangeable — the initial state and every
// event treat them alike — so the key is the least hash over the six
// renamings of the donors. The clock and every lease's speculation instant
// and deadline enter as their rank among one another.
func (x *exState) key(buf []byte) (uint64, []byte) {
	t := &x.t
	flags := func(vs ...bool) byte {
		var f byte
		for i, v := range vs {
			if v {
				f |= 1 << i
			}
		}
		return f
	}
	num := func(b []byte, vs ...int64) []byte {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	b := num(buf[:0], int64(t.dispatched), int64(t.completed), int64(t.consecFails), int64(t.consecTransport), x.inflight.Load(), int64(len(t.open)))
	b = append(b, flags(t.done))
	for _, set := range t.open {
		b = num(b, set.uid)
	}
	ids := make([]int64, 0, len(x.dm.byID))
	for id := range x.dm.byID {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = num(b, int64(x.dm.next), x.dm.seq, int64(x.dm.unknown), int64(len(ids)))
	for _, id := range ids {
		b = num(b, id, int64(x.dm.byID[id]))
	}
	b = num(b, int64(len(x.dm.again)))
	for _, item := range x.dm.again {
		b = num(b, int64(item))
	}
	for _, f := range x.dm.folds {
		b = num(b, int64(f))
	}
	uids := x.uids()
	instants := []time.Time{x.clock}
	for _, set := range t.sets {
		for _, l := range set.leases {
			instants = append(instants, x.t.due(set, l, exRate), l.deadline)
		}
	}
	slices.SortFunc(instants, time.Time.Compare)
	rank := func(at time.Time) byte { return byte(slices.IndexFunc(instants, at.Equal)) }
	common, least := len(b), uint64(math.MaxUint64)
	for _, perm := range donorPerms {
		donor := func(name string) byte {
			if name == "" {
				return 9
			}
			return perm[name[1]-'0']
		}
		b = b[:common]
		for _, uid := range uids {
			set := t.sets[uid]
			b = num(b, uid, int64(set.quorum), int64(set.fails), int64(len(set.leases)), int64(len(set.results)), int64(len(set.donors)))
			b = append(b, donor(set.lastDonor), flags(set.open, set.trustedOnly, set.speculated))
			for _, l := range set.leases {
				b = append(b, donor(l.donor), rank(x.t.due(set, l, exRate)), rank(l.deadline))
			}
			for _, r := range set.results {
				b = append(b, donor(r.donor), flags(r.trusted), byte(len(r.payload)))
				b = append(b, r.payload...)
			}
			for _, d := range set.donors {
				b = append(b, donor(d))
			}
		}
		var standing [3]byte
		for i := range exDonors {
			standing[perm[i]] = flags(x.f.trusted[i], x.f.live[i], x.f.quarantined[i])
		}
		b = append(b, standing[:]...)
		h := uint64(14695981039346656037) // FNV-1a
		for _, c := range b {
			h = (h ^ uint64(c)) * 1099511628211
		}
		least = min(least, h)
	}
	return least, b
}

// explore enumerates every event sequence of cfg up to depth by iterative
// deepening: a depth-first search per limit, skipping a state already
// reached with at least as many events left, so the first violation is
// found at the shortest length that has one. It returns the distinct states
// of the last search, or the trace to a violation.
func explore(cfg exConfig, depth int) (states int, trace []exEvent, err error) {
	var buf []byte
	key := func(x *exState) (k uint64) {
		k, buf = x.key(buf)
		return k
	}
	var visited map[uint64]int
	// checkpointed holds the states whose checkpoint has been checked,
	// across every depth limit.
	checkpointed := make(map[[2]uint64]bool)
	var walk func(x *exState, tr []exEvent, left int) error
	walk = func(x *exState, tr []exEvent, left int) error {
		for _, e := range x.enabled() {
			y := x.clone()
			y.apply(e)
			trace = append(tr, e)
			k := key(y)
			if err := y.check(x, e); err != nil {
				return err
			}
			if ck := [2]uint64{k, uint64(y.t.reissued)}; !checkpointed[ck] {
				checkpointed[ck] = true
				if err := y.checkpointCheck(); err != nil {
					return err
				}
			}
			if left > 1 && visited[k] < left {
				visited[k] = left
				if err := walk(y, trace, left-1); err != nil {
					return err
				}
			} else if _, ok := visited[k]; !ok {
				visited[k] = left
			}
		}
		return nil
	}
	for limit := 1; limit <= depth; limit++ {
		x := newExState(cfg)
		visited = map[uint64]int{key(x): limit + 1}
		if err := walk(x, nil, limit); err != nil {
			return len(visited), trace, err
		}
	}
	return len(visited), nil, nil
}

// TestUnitLifecycleExplorer runs the explorer over every configuration:
// quorum 1 and 2, donors measured or not, with and without Requeuer.
func TestUnitLifecycleExplorer(t *testing.T) {
	start := time.Now()
	total := 0
	for _, quorum := range []int{1, 2} {
		for _, measured := range []bool{false, true} {
			for _, requeue := range []bool{false, true} {
				cfg := exConfig{quorum: quorum, measured: measured, requeue: requeue}
				states, trace, err := explore(cfg, exploreDepth)
				total += states
				if err != nil {
					var b strings.Builder
					for i, e := range trace {
						fmt.Fprintf(&b, "\n\t%d. %v", i+1, e)
					}
					t.Fatalf("%v: %v after %d events:%s", cfg, err, len(trace), b.String())
				}
				t.Logf("%v: %d states", cfg, states)
			}
		}
	}
	t.Logf("explored %d states to depth %d in %v", total, exploreDepth, time.Since(start).Round(time.Millisecond))
}

// TestUnitTableReplaysIdentically replays one schedule 20 times under a
// Requeuer DataManager: three units leased at one instant, one folds, once
// the other two are overdue an idle donor speculates between them, then
// both lapse together. Every replay must owe the same effects, speculate
// the lower unit ID and regenerate the same items under the same IDs.
func TestUnitTableReplaysIdentically(t *testing.T) {
	replay := func() string {
		var inflight atomic.Int64
		dm := newLifeDM(3)
		opts := ServerOptions{Lease: exLease, VerifyQuorum: 2}
		tb := newUnitTable(Task{ProblemID: "x", Epoch: 1}, lifeRequeueDM{dm}, opts, &inflight)
		var f fakeFleet
		now := time.Unix(0, 0)
		v := dispatchView{now: now}
		v.stats.Throughput = exRate
		for _, donor := range exDonors {
			u, _, _ := dm.NextUnit(1)
			tb.grant(tb.add(u.ID, u, 1), donor, v)
		}
		tb.offer(&Result{ProblemID: "x", UnitID: 3, Donor: "d2", Epoch: 1, Payload: []byte{2}}, true, now, &f)
		var b strings.Builder
		v.now = now.Add(speculateFactor*exExpect + time.Millisecond)
		if task := tb.idle("d2", v, &f); task != nil {
			fmt.Fprintf(&b, "speculated unit %d\n", task.Unit.ID)
		}
		tb.expire(now.Add(exLease+time.Millisecond), &f)
		for _, fx := range tb.fx {
			fmt.Fprintf(&b, "effect %d %d unit %d donor %q\n", fx.kind, fx.event, fx.uid, fx.donor)
		}
		for {
			u, ok, _ := dm.NextUnit(1)
			if !ok {
				break
			}
			fmt.Fprintf(&b, "regenerated item %d as unit %d\n", u.Payload[0], u.ID)
		}
		return b.String()
	}
	first := replay()
	if !strings.Contains(first, "speculated unit 1\n") {
		t.Fatalf("speculation should take the lower unit ID of a deadline tie:\n%s", first)
	}
	for i := 1; i < 20; i++ {
		if got := replay(); got != first {
			t.Fatalf("replay %d differs:\n%s\nfirst replay:\n%s", i, got, first)
		}
	}
}
