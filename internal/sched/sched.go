// Package sched implements the adaptive scheduling strategies of the
// paper's distributed system (Page, Keane, Naughton — ISPDC 2004): the
// server tunes the parallel granularity (cost budget per work unit) to the
// measured processing ability of each donor machine, so slow Pentium IIs
// receive small units while fast cluster nodes receive large ones, keeping
// completion times balanced and the dispatch overhead amortised.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DonorStats summarises the server's view of one donor machine's measured
// performance. Throughput is in cost units per second (for DSEARCH a cost
// unit is one database residue; for DPRml one candidate topology).
type DonorStats struct {
	// Throughput is an exponentially weighted moving average of observed
	// cost/elapsed; zero means no completed unit yet.
	Throughput float64
	// Completed is the number of units this donor has finished.
	Completed int
}

// Policy chooses the cost budget for the next work unit handed to a donor.
type Policy interface {
	// Budget returns the cost budget for the next unit. remaining is the
	// problem's estimate of outstanding cost (may be 0 if unknown);
	// donors is the current pool size.
	Budget(d DonorStats, remaining int64, donors int) int64
	// Name identifies the policy in logs and benchmarks.
	Name() string
}

// Fixed hands every donor the same unit size — the non-adaptive baseline
// the paper's adaptive strategy is compared against.
type Fixed struct{ Size int64 }

// Budget implements Policy.
func (f Fixed) Budget(DonorStats, int64, int) int64 {
	if f.Size <= 0 {
		return 1
	}
	return f.Size
}

// Name implements Policy.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%d)", f.Size) }

// Adaptive is the paper's strategy: size each unit so the donor takes
// approximately Target wall-clock time, based on its measured throughput.
// Donors with no history receive Bootstrap. Budgets are clamped to
// [Min, Max].
type Adaptive struct {
	// Target is the desired unit duration (the paper tunes granularity so
	// donors report back at a steady cadence).
	Target time.Duration
	// Bootstrap is the budget for a donor with no measured throughput.
	Bootstrap int64
	// Min and Max clamp the computed budget. Max <= 0 means no upper clamp.
	Min, Max int64
}

// Budget implements Policy.
func (a Adaptive) Budget(d DonorStats, remaining int64, donors int) int64 {
	var b int64
	if d.Throughput <= 0 {
		b = a.Bootstrap
		if b <= 0 {
			b = 1
		}
	} else {
		b = int64(d.Throughput * a.Target.Seconds())
	}
	if b < a.Min {
		b = a.Min
	}
	if a.Max > 0 && b > a.Max {
		b = a.Max
	}
	if b <= 0 {
		b = 1
	}
	return b
}

// Name implements Policy.
func (a Adaptive) Name() string { return fmt.Sprintf("adaptive(%s)", a.Target) }

// GSS implements guided self-scheduling: each request receives
// remaining/(k*donors) of the outstanding work, shrinking as the
// computation tails off. Classic loop-scheduling baseline.
type GSS struct {
	// K is the divisor multiplier (1 = classic GSS). Larger K gives
	// smaller units.
	K int
	// Min clamps the smallest unit.
	Min int64
}

// Budget implements Policy.
func (g GSS) Budget(d DonorStats, remaining int64, donors int) int64 {
	k := g.K
	if k <= 0 {
		k = 1
	}
	if donors <= 0 {
		donors = 1
	}
	b := remaining / int64(k*donors)
	if b < g.Min {
		b = g.Min
	}
	if b <= 0 {
		b = 1
	}
	return b
}

// Name implements Policy.
func (g GSS) Name() string { return fmt.Sprintf("gss(k=%d)", g.K) }

// Factoring implements factoring scheduling: work is dispensed in batches;
// within a batch all units have equal size remaining/(2*donors), halving
// batch by batch. A well-known refinement of GSS for high-variance donors.
type Factoring struct {
	Min int64
}

// Budget implements Policy.
func (f Factoring) Budget(d DonorStats, remaining int64, donors int) int64 {
	if donors <= 0 {
		donors = 1
	}
	b := remaining / int64(2*donors)
	if b < f.Min {
		b = f.Min
	}
	if b <= 0 {
		b = 1
	}
	return b
}

// Name implements Policy.
func (f Factoring) Name() string { return "factoring" }

// TSS implements trapezoid self-scheduling: unit sizes decrease linearly
// from First to Last over the estimated run, giving a gentler taper than
// GSS's geometric decay. First/Last <= 0 derive classic defaults from the
// remaining work: First = remaining/(2*donors), Last = Min.
type TSS struct {
	First, Last int64
	// Min clamps the smallest unit.
	Min int64
}

// Budget implements Policy.
func (t TSS) Budget(d DonorStats, remaining int64, donors int) int64 {
	if donors <= 0 {
		donors = 1
	}
	first, last := t.First, t.Last
	if first <= 0 {
		first = remaining / int64(2*donors)
	}
	if last <= 0 {
		last = t.Min
	}
	if last < 1 {
		last = 1
	}
	if first < last {
		first = last
	}
	// Classic TSS issues N = 2*remaining/(first+last) units stepping down by
	// (first-last)/(N-1) each time. We have no per-unit counter (donors
	// request independently), so interpolate on remaining work instead: a
	// full queue gets First, a drained queue gets Last.
	total := first + last
	var b int64
	if total <= 0 || remaining <= 0 {
		b = last
	} else {
		// Fraction of the initial trapezoid still outstanding, approximated
		// by remaining work relative to a First-sized queue per donor.
		den := first * int64(2*donors)
		if den <= 0 {
			den = 1
		}
		frac := float64(remaining) / float64(den)
		if frac > 1 {
			frac = 1
		}
		b = last + int64(frac*float64(first-last))
	}
	if b < t.Min {
		b = t.Min
	}
	if b <= 0 {
		b = 1
	}
	return b
}

// Name implements Policy.
func (t TSS) Name() string { return "tss" }

// TrustNeutral is the reputation a donor starts with: the midpoint of the
// [0, 1] trust scale, above which the dispatch scan treats the donor as
// ordinary and below which it steers the donor toward less critical work.
// The coordinator seeds every new donor's trust EWMA here.
const TrustNeutral = 0.5

// DispatchKey summarises one problem's urgency for the dispatch scan:
// which problem a free donor should be offered first. The server builds
// one key per registered problem from fields it can read without taking
// the problem's lock (priority and deadline are immutable after Submit;
// inflight is an atomic counter), so ordering the scan costs no lock
// acquisitions on problems that will not be visited.
type DispatchKey struct {
	// Priority orders problems explicitly; higher is served first.
	Priority int
	// Deadline is the problem's completion target; the zero time means
	// none. Among equal priorities, a problem with a deadline outranks one
	// without, and earlier deadlines outrank later ones.
	Deadline time.Time
	// Inflight counts the problem's currently leased units. Among problems
	// tied on priority and deadline, fewer leases ranks first — that is the
	// work-stealing rule: a starved problem (few or no donors working it)
	// borrows the next free donor from a hot one.
	Inflight int64
	// Trust is the requesting donor's reputation score in (0, 1], stamped
	// identically on every key of one scan. A donor below TrustNeutral has
	// its priority and deadline preferences inverted — it is steered toward
	// the least critical problems first, so a low-reputation machine's
	// (possibly wrong, possibly verified-at-extra-cost) results land where
	// they hurt least. Zero or negative means trust is not tracked
	// (verification disabled) and ordering is unchanged.
	Trust float64
}

// Less reports whether the problem keyed a is more urgent than b:
// priority descending, then deadline (set before unset, earlier before
// later), then inflight ascending. Ties leave the scan's rotation order
// intact, which is what keeps equal problems fairly rotated. When both
// keys carry a below-neutral Trust (one scan's keys always share the
// requesting donor's trust), the priority and deadline preferences invert:
// the low-trust donor is offered the least urgent problem first.
func Less(a, b DispatchKey) bool {
	lowTrust := a.Trust > 0 && a.Trust < TrustNeutral && b.Trust > 0 && b.Trust < TrustNeutral
	if a.Priority != b.Priority {
		if lowTrust {
			return a.Priority < b.Priority
		}
		return a.Priority > b.Priority
	}
	aHas, bHas := !a.Deadline.IsZero(), !b.Deadline.IsZero()
	if aHas != bHas {
		if lowTrust {
			return bHas
		}
		return aHas
	}
	if aHas && !a.Deadline.Equal(b.Deadline) {
		if lowTrust {
			return a.Deadline.After(b.Deadline)
		}
		return a.Deadline.Before(b.Deadline)
	}
	return a.Inflight < b.Inflight
}

// ScanOrder returns the order in which a dispatch scan should visit the
// problems described by keys: indices 0..len(keys)-1 rotated to begin at
// start (the fairness tiebreak a round-robin scan would use on its own),
// then stably sorted by Less. Problems with equal keys are therefore
// visited in rotation order, while an urgent problem is pulled to the
// front of every donor's scan regardless of where the rotation points.
func ScanOrder(keys []DispatchKey, start int) []int {
	n := len(keys)
	if n == 0 {
		return nil
	}
	if start < 0 || start >= n {
		start = 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = (start + i) % n
	}
	sort.SliceStable(order, func(i, j int) bool {
		return Less(keys[order[i]], keys[order[j]])
	})
	return order
}

// EWMA updates a throughput moving average with a new observation, using
// weight alpha for the new sample (alpha in (0, 1]).
func EWMA(old, sample, alpha float64) float64 {
	if old <= 0 {
		return sample
	}
	return old*(1-alpha) + sample*alpha
}

// ByName resolves a policy from a config-file string: "fixed:1000",
// "adaptive:5s", "gss", "gss:2", "factoring", "tss". An argument must parse
// whole and be positive; the error names the spec.
func ByName(spec string) (Policy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	var n int64
	var err error
	switch {
	case !hasArg:
	case name == "adaptive":
		var d time.Duration
		d, err = time.ParseDuration(arg)
		n = int64(d)
	case name == "fixed" || name == "gss":
		n, err = strconv.ParseInt(arg, 10, 64)
	default:
		err = errors.New("takes no argument")
	}
	if err == nil && hasArg && n <= 0 {
		err = errors.New("must be positive")
	}
	if err != nil {
		return nil, fmt.Errorf("sched: policy %q: bad argument %q: %w", spec, arg, err)
	}
	switch name {
	case "fixed":
		return Fixed{Size: cmp.Or(n, 1000)}, nil
	case "adaptive":
		return Adaptive{Target: cmp.Or(time.Duration(n), 5*time.Second), Bootstrap: 1000, Min: 1}, nil
	case "gss":
		return GSS{K: int(cmp.Or(n, 1)), Min: 1}, nil
	case "factoring":
		return Factoring{Min: 1}, nil
	case "tss":
		return TSS{Min: 1}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q (have fixed, adaptive, gss, factoring, tss)", name)
	}
}
