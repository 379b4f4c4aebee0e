package sched

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestFixed(t *testing.T) {
	p := Fixed{Size: 500}
	if got := p.Budget(DonorStats{}, 1e9, 10); got != 500 {
		t.Errorf("Budget = %d", got)
	}
	if got := (Fixed{}).Budget(DonorStats{}, 0, 0); got != 1 {
		t.Errorf("zero-size fixed budget = %d, want 1", got)
	}
}

func TestAdaptive(t *testing.T) {
	p := Adaptive{Target: 2 * time.Second, Bootstrap: 100, Min: 10, Max: 100000}
	// No history: bootstrap.
	if got := p.Budget(DonorStats{}, 0, 5); got != 100 {
		t.Errorf("bootstrap budget = %d", got)
	}
	// 1000 cost/s donor, 2 s target -> 2000.
	if got := p.Budget(DonorStats{Throughput: 1000}, 0, 5); got != 2000 {
		t.Errorf("adaptive budget = %d, want 2000", got)
	}
	// Clamps.
	if got := p.Budget(DonorStats{Throughput: 1}, 0, 5); got != 10 {
		t.Errorf("min clamp = %d", got)
	}
	if got := p.Budget(DonorStats{Throughput: 1e9}, 0, 5); got != 100000 {
		t.Errorf("max clamp = %d", got)
	}
	// Faster donors get proportionally bigger units (the paper's core
	// heterogeneity mechanism).
	slow := p.Budget(DonorStats{Throughput: 500}, 0, 5)
	fast := p.Budget(DonorStats{Throughput: 5000}, 0, 5)
	if fast != 10*slow {
		t.Errorf("budgets not proportional: slow=%d fast=%d", slow, fast)
	}
}

func TestGSS(t *testing.T) {
	p := GSS{K: 1, Min: 1}
	if got := p.Budget(DonorStats{}, 1000, 10); got != 100 {
		t.Errorf("GSS budget = %d, want 100", got)
	}
	// Shrinks as work drains.
	if a, b := p.Budget(DonorStats{}, 1000, 10), p.Budget(DonorStats{}, 100, 10); b >= a {
		t.Errorf("GSS did not shrink: %d -> %d", a, b)
	}
	// Min floor.
	if got := p.Budget(DonorStats{}, 5, 10); got != 1 {
		t.Errorf("GSS floor = %d", got)
	}
	// Degenerate inputs.
	if got := (GSS{}).Budget(DonorStats{}, 0, 0); got != 1 {
		t.Errorf("degenerate GSS = %d", got)
	}
}

func TestFactoring(t *testing.T) {
	p := Factoring{Min: 1}
	if got := p.Budget(DonorStats{}, 1000, 10); got != 50 {
		t.Errorf("factoring budget = %d, want 50", got)
	}
}

func TestTSS(t *testing.T) {
	p := TSS{Min: 10}
	// Full queue: roughly remaining/(2*donors).
	full := p.Budget(DonorStats{}, 10000, 10)
	if full < 400 || full > 500 {
		t.Errorf("full-queue TSS budget = %d, want ~500", full)
	}
	// Taper: budgets shrink monotonically as the queue drains.
	prev := full
	for _, rem := range []int64{5000, 2000, 500, 100, 10} {
		b := p.Budget(DonorStats{}, rem, 10)
		if b > prev {
			t.Errorf("TSS grew as work drained: %d -> %d at remaining=%d", prev, b, rem)
		}
		prev = b
	}
	// Floor.
	if got := p.Budget(DonorStats{}, 1, 10); got != 10 {
		t.Errorf("TSS floor = %d, want 10", got)
	}
	// Degenerate inputs survive.
	if got := (TSS{}).Budget(DonorStats{}, 0, 0); got < 1 {
		t.Errorf("degenerate TSS = %d", got)
	}
	// Explicit First/Last are respected at the endpoints.
	e := TSS{First: 1000, Last: 100, Min: 1}
	if got := e.Budget(DonorStats{}, 1<<40, 4); got != 1000 {
		t.Errorf("explicit full-queue TSS = %d, want 1000", got)
	}
	if got := e.Budget(DonorStats{}, 0, 4); got != 100 {
		t.Errorf("explicit drained TSS = %d, want 100", got)
	}
}

func TestPolicyBudgetsAlwaysPositive(t *testing.T) {
	policies := []Policy{
		Fixed{}, Fixed{Size: -5},
		Adaptive{}, Adaptive{Target: time.Second},
		GSS{}, GSS{K: -1},
		Factoring{}, TSS{}, TSS{First: -10, Last: -10},
	}
	stats := []DonorStats{{}, {Throughput: 1e-12}, {Throughput: 1e12}, {Completed: 100}}
	for _, p := range policies {
		for _, d := range stats {
			for _, rem := range []int64{-1, 0, 1, 1 << 40} {
				for _, n := range []int{-1, 0, 1, 1000} {
					if got := p.Budget(d, rem, n); got < 1 {
						t.Errorf("%s.Budget(%+v, %d, %d) = %d", p.Name(), d, rem, n, got)
					}
				}
			}
		}
	}
}

// propPolicies is the exhaustive policy grid the property suites sweep:
// every implemented policy, with both default-ish and adversarial
// parameters.
func propPolicies() []Policy {
	return []Policy{
		Fixed{Size: 1}, Fixed{Size: 1000}, Fixed{Size: -7}, Fixed{},
		Adaptive{Target: time.Second, Bootstrap: 100, Min: 1},
		Adaptive{Target: 5 * time.Second, Bootstrap: 1000, Min: 10, Max: 1 << 20},
		Adaptive{},
		GSS{K: 1, Min: 1}, GSS{K: 4, Min: 1}, GSS{},
		Factoring{Min: 1}, Factoring{},
		TSS{Min: 1}, TSS{First: 1000, Last: 10, Min: 1}, TSS{},
	}
}

func randStats(rng *rand.Rand) DonorStats {
	return DonorStats{
		Throughput: rng.Float64() * float64(int64(1)<<rng.Intn(40)),
		Completed:  rng.Intn(1 << 20),
	}
}

// TestPolicyBudgetAtLeastOneProperty: under any donor history and any
// remaining/donor-count inputs — including nonsense negatives — every
// policy returns a budget of at least 1, the invariant the server's
// dispatch loop relies on to make progress.
func TestPolicyBudgetAtLeastOneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, p := range propPolicies() {
		for trial := 0; trial < 500; trial++ {
			d := randStats(rng)
			rem := rng.Int63n(1<<41) - 10
			n := rng.Intn(2050) - 2
			if got := p.Budget(d, rem, n); got < 1 {
				t.Fatalf("%s.Budget(%+v, %d, %d) = %d, want >= 1", p.Name(), d, rem, n, got)
			}
		}
	}
}

// TestDecreasingPoliciesMonotone: the self-scheduling family (GSS,
// Factoring, TSS) hands out non-increasing budgets as the remaining work
// drains, for any fixed donor population — the taper that bounds the
// finish-line imbalance.
func TestDecreasingPoliciesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	decreasing := []Policy{
		GSS{K: 1, Min: 1}, GSS{K: 4, Min: 1},
		Factoring{Min: 1},
		TSS{Min: 1}, TSS{First: 1000, Last: 10, Min: 1},
	}
	for _, p := range decreasing {
		for trial := 0; trial < 100; trial++ {
			donors := 1 + rng.Intn(64)
			d := randStats(rng)
			rem := int64(1 << (10 + rng.Intn(20)))
			prev := p.Budget(d, rem, donors)
			for rem > 0 {
				rem -= rem/3 + 1
				b := p.Budget(d, rem, donors)
				if b > prev {
					t.Fatalf("%s grew as work drained: %d -> %d at remaining=%d donors=%d",
						p.Name(), prev, b, rem, donors)
				}
				prev = b
			}
		}
	}
}

// TestPolicyTermination: repeatedly drawing a budget and subtracting it
// from the remaining work reaches zero in at most `remaining` draws for
// every policy — i.e. budgets both cover the workload and never stall.
// This is the policy-level half of the server's liveness argument.
func TestPolicyTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range propPolicies() {
		for trial := 0; trial < 20; trial++ {
			donors := 1 + rng.Intn(32)
			d := randStats(rng)
			rem := int64(1 + rng.Intn(1<<16))
			steps := int64(0)
			for rem > 0 {
				b := p.Budget(d, rem, donors)
				if b < 1 {
					t.Fatalf("%s stalled: budget %d at remaining=%d", p.Name(), b, rem)
				}
				rem -= b
				if steps++; steps > 1<<17 {
					t.Fatalf("%s did not terminate: %d steps, remaining=%d", p.Name(), steps, rem)
				}
			}
		}
	}
}

// nameToSpec maps a policy's Name() rendering back to the ByName spec
// grammar: "fixed(2000)" -> "fixed:2000", "gss(k=4)" -> "gss:4".
func nameToSpec(name string) string {
	open := strings.IndexByte(name, '(')
	if open < 0 {
		return name
	}
	arg := strings.TrimSuffix(name[open+1:], ")")
	if eq := strings.IndexByte(arg, '='); eq >= 0 {
		arg = arg[eq+1:]
	}
	return name[:open] + ":" + arg
}

// TestByNameRoundTrip: parsing a spec, rendering its Name, mapping that
// back to a spec and reparsing yields the same policy — Name() is a
// faithful, re-ingestible description of every ByName-reachable policy.
func TestByNameRoundTrip(t *testing.T) {
	specs := []string{
		"fixed", "fixed:1", "fixed:2000", "fixed:1000000",
		"adaptive", "adaptive:1s", "adaptive:250ms", "adaptive:2m",
		"gss", "gss:1", "gss:4", "gss:16",
		"factoring", "tss",
	}
	for _, spec := range specs {
		p1, err := ByName(spec)
		if err != nil {
			t.Fatalf("ByName(%q): %v", spec, err)
		}
		back := nameToSpec(p1.Name())
		p2, err := ByName(back)
		if err != nil {
			t.Fatalf("ByName(%q) (round-tripped from %q via %q): %v", back, spec, p1.Name(), err)
		}
		if p1.Name() != p2.Name() {
			t.Errorf("round trip drifted: %q -> %q -> %q -> %q", spec, p1.Name(), back, p2.Name())
		}
	}
}

// randKeys draws a random dispatch-key slice: a few priority tiers, a
// mix of set/unset deadlines, small inflight counts — the shapes the
// server's scan actually sees.
func randKeys(rng *rand.Rand, n int) []DispatchKey {
	base := time.Unix(1700000000, 0)
	keys := make([]DispatchKey, n)
	for i := range keys {
		k := DispatchKey{Priority: rng.Intn(5) - 2, Inflight: int64(rng.Intn(8))}
		if rng.Intn(2) == 0 {
			k.Deadline = base.Add(time.Duration(rng.Intn(1000)) * time.Second)
		}
		keys[i] = k
	}
	return keys
}

// TestLessProperties: Less is irreflexive and asymmetric over random key
// pairs, and orders by the documented hierarchy — priority descending,
// then set-before-unset / earlier-first deadlines, then fewest inflight.
func TestLessProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		a, b := randKeys(rng, 2)[0], randKeys(rng, 2)[1]
		if Less(a, a) {
			t.Fatalf("Less(%+v, same) = true; must be irreflexive", a)
		}
		if Less(a, b) && Less(b, a) {
			t.Fatalf("Less not asymmetric for %+v / %+v", a, b)
		}
		if a.Priority > b.Priority && !Less(a, b) {
			t.Fatalf("higher priority not fronted: %+v vs %+v", a, b)
		}
	}
	base := time.Unix(1700000000, 0)
	withDL := DispatchKey{Deadline: base}
	noDL := DispatchKey{}
	if !Less(withDL, noDL) || Less(noDL, withDL) {
		t.Error("deadline-bearing key must sort before deadline-free peer")
	}
	early := DispatchKey{Deadline: base}
	late := DispatchKey{Deadline: base.Add(time.Hour)}
	if !Less(early, late) {
		t.Error("earlier deadline must sort first")
	}
	idle := DispatchKey{Inflight: 0}
	busy := DispatchKey{Inflight: 9}
	if !Less(idle, busy) {
		t.Error("fewer inflight must sort first among equals (work stealing)")
	}
}

// TestScanOrderProperties: ScanOrder returns a permutation, never
// inverts the Less order, and — when every key is equal — degenerates to
// the pure round-robin rotation, preserving the pre-PR 9 fairness.
func TestScanOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		keys := randKeys(rng, n)
		start := rng.Intn(n)
		order := ScanOrder(keys, start)
		if len(order) != n {
			t.Fatalf("ScanOrder returned %d indices for %d keys", len(order), n)
		}
		seen := make(map[int]bool, n)
		for _, idx := range order {
			if idx < 0 || idx >= n || seen[idx] {
				t.Fatalf("not a permutation: %v", order)
			}
			seen[idx] = true
		}
		for j := 0; j+1 < n; j++ {
			if Less(keys[order[j+1]], keys[order[j]]) {
				t.Fatalf("scan order inverts Less at %d: %v (keys %+v)", j, order, keys)
			}
		}
	}
	// All-equal keys: rotation is preserved exactly (stable sort).
	for _, n := range []int{1, 2, 5, 8} {
		keys := make([]DispatchKey, n)
		for start := 0; start < n; start++ {
			order := ScanOrder(keys, start)
			for i, idx := range order {
				if idx != (start+i)%n {
					t.Fatalf("equal keys broke rotation: n=%d start=%d order=%v", n, start, order)
				}
			}
		}
	}
	if ScanOrder(nil, 0) != nil {
		t.Error("empty key set should scan nothing")
	}
	// Out-of-range start clamps rather than panicking.
	if got := ScanOrder(make([]DispatchKey, 3), 99); len(got) != 3 {
		t.Errorf("out-of-range start: %v", got)
	}
}

func TestEWMA(t *testing.T) {
	if got := EWMA(0, 100, 0.3); got != 100 {
		t.Errorf("first sample EWMA = %g", got)
	}
	got := EWMA(100, 200, 0.5)
	if got != 150 {
		t.Errorf("EWMA = %g, want 150", got)
	}
}

func TestByName(t *testing.T) {
	cases := map[string]string{
		"fixed:2000":  "fixed(2000)",
		"fixed":       "fixed(1000)",
		"adaptive:3s": "adaptive(3s)",
		"adaptive":    "adaptive(5s)",
		"gss":         "gss(k=1)",
		"gss:4":       "gss(k=4)",
		"factoring":   "factoring",
		"tss":         "tss",
	}
	for spec, want := range cases {
		p, err := ByName(spec)
		if err != nil {
			t.Errorf("ByName(%q): %v", spec, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("ByName(%q).Name() = %q, want %q", spec, p.Name(), want)
		}
	}
	for _, bad := range []string{"", "nope", "fixed:x", "adaptive:zzz", "gss:x"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}

// TestByNameRejectsMalformedArguments: the whole argument must parse, and a
// size, k or target must be positive. Each spec here once parsed to a
// policy: a scan that stopped at the first non-digit, or no sign check.
func TestByNameRejectsMalformedArguments(t *testing.T) {
	for _, spec := range []string{
		"fixed:10x", "fixed:0", "fixed:-3", "fixed: 10", "fixed:", "fixed:1e3",
		"gss:2junk", "gss:0", "gss:-1", "gss:",
		"adaptive:0s", "adaptive:-1s", "adaptive:",
		"factoring:3", "tss:x",
	} {
		p, err := ByName(spec)
		if err == nil {
			t.Errorf("ByName(%q) = %s, want an error", spec, p.Name())
			continue
		}
		if !strings.Contains(err.Error(), strconv.Quote(spec)) {
			t.Errorf("ByName(%q): error %q does not name the spec", spec, err)
		}
	}
}
