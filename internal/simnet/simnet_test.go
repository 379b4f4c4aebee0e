package simnet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

func TestDivisibleWorkloadInvariants(t *testing.T) {
	w := NewDivisibleWorkload(100, 1, 10)
	var units []Unit
	total := int64(0)
	for {
		u, ok := w.Next(30)
		if !ok {
			break
		}
		units = append(units, u)
		total += u.Cost
	}
	if total != 100 {
		t.Fatalf("dispatched cost %d, want 100", total)
	}
	if w.Done() {
		t.Fatal("done before any completion")
	}
	for _, u := range units {
		w.Complete(u.ID)
	}
	if !w.Done() {
		t.Fatal("not done after all completions")
	}
	if w.Remaining() != 0 {
		t.Fatalf("remaining = %d", w.Remaining())
	}
}

func TestStagedWorkloadBarrier(t *testing.T) {
	w := NewStagedWorkload([]int{3, 2}, []int64{10, 20}, 0, 0)
	// Budget 100 covers all 3 stage-1 tasks in one unit.
	u, ok := w.Next(100)
	if !ok || u.Cost != 30 {
		t.Fatalf("stage-1 batch: %+v ok=%v", u, ok)
	}
	// Barrier: nothing until the batch completes.
	if _, ok := w.Next(100); ok {
		t.Fatal("barrier violated")
	}
	w.Complete(u.ID)
	u2, ok := w.Next(20)
	if !ok || u2.Cost != 20 {
		t.Fatalf("stage-2 unit: %+v", u2)
	}
	u3, ok := w.Next(20)
	if !ok {
		t.Fatal("second stage-2 unit missing")
	}
	w.Complete(u2.ID)
	w.Complete(u3.ID)
	if !w.Done() {
		t.Fatal("not done after both stages")
	}
}

func TestStagedBatchRespectesBudget(t *testing.T) {
	w := NewStagedWorkload([]int{10}, []int64{5}, 0, 0)
	u, ok := w.Next(12) // 12/5 = 2 tasks
	if !ok || u.Cost != 10 {
		t.Fatalf("batch cost %d, want 10", u.Cost)
	}
	// Tiny budget still gets one task.
	u2, ok := w.Next(1)
	if !ok || u2.Cost != 5 {
		t.Fatalf("min batch cost %d, want 5", u2.Cost)
	}
}

func TestDPRmlWorkloadShape(t *testing.T) {
	w := DPRmlWorkload(10, 100, 0, 0)
	// Stages: k=4..10 -> 7 stages, tasks 3,5,7,9,11,13,15.
	if len(w.Tasks) != 7 {
		t.Fatalf("%d stages, want 7", len(w.Tasks))
	}
	wantTasks := []int{3, 5, 7, 9, 11, 13, 15}
	for i, n := range wantTasks {
		if w.Tasks[i] != n {
			t.Errorf("stage %d: %d tasks, want %d", i, w.Tasks[i], n)
		}
	}
	if w.TaskCost[0] != 400 || w.TaskCost[6] != 1000 {
		t.Errorf("task costs %v", w.TaskCost)
	}
}

func baseConfig() Config {
	return Config{
		Policy:         sched.Adaptive{Target: 5 * time.Second, Bootstrap: 500, Min: 1},
		ServerOverhead: time.Millisecond,
		Lease:          time.Minute,
		Seed:           1,
	}
}

func TestRunSingleDonor(t *testing.T) {
	cfg := baseConfig()
	cfg.Donors = Uniform(1, 1.0, 0, time.Millisecond, 0)
	m, err := Run(cfg, NewDivisibleWorkload(1000, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// 1000 cost units at speed 1 => >= 1000 s of compute.
	if m.Makespan < 1000*time.Second {
		t.Errorf("makespan %s < compute lower bound", m.Makespan)
	}
	if m.UnitsCompleted != m.UnitsDispatched {
		t.Errorf("dispatched %d != completed %d", m.UnitsDispatched, m.UnitsCompleted)
	}
	if m.Efficiency < 0.9 {
		t.Errorf("single-donor efficiency %.3f < 0.9", m.Efficiency)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := baseConfig()
	cfg.Donors = Uniform(8, 1.0, 0.2, time.Millisecond, 100e6/8)
	m1, err := Run(cfg, NewDivisibleWorkload(20000, 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(cfg, NewDivisibleWorkload(20000, 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Makespan != m2.Makespan || m1.UnitsDispatched != m2.UnitsDispatched {
		t.Errorf("same seed diverged: %s/%d vs %s/%d",
			m1.Makespan, m1.UnitsDispatched, m2.Makespan, m2.UnitsDispatched)
	}
	cfg.Seed = 2
	m3, err := Run(cfg, NewDivisibleWorkload(20000, 10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if m3.Makespan == m1.Makespan {
		t.Log("different seeds produced identical makespans (possible but unlikely)")
	}
}

func TestRunNearLinearSpeedupDivisible(t *testing.T) {
	// Idle homogeneous donors, negligible overhead: speedup ~ N.
	mk := func(n int) []DonorSpec { return Uniform(n, 1.0, 0, time.Millisecond, 0) }
	cfg := baseConfig()
	pts, err := SpeedupCurve([]int{1, 4, 16}, mk, func() []Workload {
		return []Workload{NewDivisibleWorkload(200000, 0, 0)}
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Efficiency < 0.85 {
			t.Errorf("%d donors: efficiency %.3f < 0.85 (speedup %.2f)", p.Donors, p.Efficiency, p.Speedup)
		}
		if p.Speedup > float64(p.Donors)*1.02 {
			t.Errorf("%d donors: superlinear speedup %.2f", p.Donors, p.Speedup)
		}
	}
}

func TestStagedSingleInstanceSaturates(t *testing.T) {
	// A single DPRml instance has limited stage-level parallelism; with
	// many donors speedup must fall well short of linear (the paper's
	// motivation for running 6 instances).
	mk := func(n int) []DonorSpec { return Uniform(n, 1.0, 0, time.Millisecond, 0) }
	cfg := baseConfig()
	cfg.Policy = sched.Fixed{Size: 1} // one task per unit
	single := func() []Workload { return []Workload{DPRmlWorkload(20, 10, 0, 0)} }
	pts, err := SpeedupCurve([]int{1, 40}, mk, single, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p40 := pts[len(pts)-1]
	if p40.Speedup > 30 {
		t.Errorf("single staged instance speedup %.1f at 40 donors — barrier not modelled?", p40.Speedup)
	}

	// Six concurrent instances keep donors busy: speedup must rise
	// substantially above the single-instance case.
	multi := func() []Workload {
		var ws []Workload
		for i := 0; i < 6; i++ {
			ws = append(ws, DPRmlWorkload(20, 10, 0, 0))
		}
		return ws
	}
	mpts, err := SpeedupCurve([]int{1, 40}, mk, multi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m40 := mpts[len(mpts)-1]
	if m40.Speedup < p40.Speedup*1.2 {
		t.Errorf("6 instances (%.1f) not clearly better than 1 (%.1f) at 40 donors", m40.Speedup, p40.Speedup)
	}
}

func TestChurnRecovery(t *testing.T) {
	// Half the donors vanish mid-run; lease expiry must reissue their units
	// and the workload still completes.
	cfg := baseConfig()
	cfg.Lease = 30 * time.Second
	donors := Uniform(8, 1.0, 0, time.Millisecond, 0)
	for i := 0; i < 4; i++ {
		donors[i].LeaveAt = 60 * time.Second
	}
	cfg.Donors = donors
	m, err := Run(cfg, NewDivisibleWorkload(5000, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.UnitsLost == 0 {
		t.Error("expected lost units from churn")
	}
	if m.UnitsCompleted == 0 {
		t.Error("nothing completed")
	}
}

func TestAllDonorsGoneFails(t *testing.T) {
	cfg := baseConfig()
	donors := Uniform(2, 1.0, 0, time.Millisecond, 0)
	donors[0].LeaveAt = time.Second
	donors[1].LeaveAt = time.Second
	cfg.Donors = donors
	// Huge workload cannot finish in 1 s.
	if _, err := Run(cfg, NewDivisibleWorkload(1e9, 0, 0)); err == nil {
		t.Error("completed with all donors gone")
	}
}

func TestNoDonors(t *testing.T) {
	cfg := baseConfig()
	if _, err := Run(cfg, NewDivisibleWorkload(10, 0, 0)); err == nil {
		t.Error("no-donor run succeeded")
	}
}

func TestHeterogeneousFasterDonorsDoMoreWork(t *testing.T) {
	cfg := baseConfig()
	cfg.Donors = []DonorSpec{
		{Name: "slow", Speed: 0.2, Latency: time.Millisecond},
		{Name: "fast", Speed: 2.0, Latency: time.Millisecond},
	}
	m, err := Run(cfg, NewDivisibleWorkload(100000, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.PerDonorUnits["fast"] <= m.PerDonorUnits["slow"] {
		t.Errorf("fast donor completed %d units vs slow %d — adaptive sizing broken?",
			m.PerDonorUnits["fast"], m.PerDonorUnits["slow"])
	}
}

func TestServerOverheadLimitsScaling(t *testing.T) {
	// With a large per-request overhead and tiny fixed units, the server
	// becomes the bottleneck and efficiency collapses at high donor counts
	// — the effect that bends Figure 1 away from linear.
	mk := func(n int) []DonorSpec { return Uniform(n, 1.0, 0, time.Millisecond, 0) }
	cfg := baseConfig()
	cfg.ServerOverhead = 50 * time.Millisecond
	cfg.Policy = sched.Fixed{Size: 20} // 20 s of compute per unit
	pts, err := SpeedupCurve([]int{1, 64}, mk, func() []Workload {
		return []Workload{NewDivisibleWorkload(50000, 0, 0)}
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[len(pts)-1]
	// 64 donors each needing a dispatch every ~20 s, server can serve 20/s
	// => at most ~400 donors; 64 is feasible but with visible degradation.
	if p.Efficiency > 0.99 {
		t.Errorf("efficiency %.3f suspiciously perfect under heavy server load", p.Efficiency)
	}
}

func TestHeterogeneousLabGenerator(t *testing.T) {
	specs := HeterogeneousLab(50, 7)
	if len(specs) != 50 {
		t.Fatalf("%d specs", len(specs))
	}
	for _, s := range specs {
		if s.Speed <= 0 || s.Speed > 1.3 {
			t.Errorf("%s: speed %g out of range", s.Name, s.Speed)
		}
	}
	// Determinism.
	specs2 := HeterogeneousLab(50, 7)
	for i := range specs {
		if specs[i].Name != specs2[i].Name || specs[i].Speed != specs2[i].Speed ||
			specs[i].Load != specs2[i].Load || specs[i].Latency != specs2[i].Latency {
			t.Fatal("HeterogeneousLab not deterministic")
		}
	}
}

// TestRunReplaysExactly: a run is a function of its Config and workloads —
// the server it drives reads only the virtual clock, and the event heap
// breaks ties by insertion order — so two runs agree on every metric, the
// per-donor unit counts and busy time included. Checked on Figure 1's
// 83-donor lab and on a churning pool of leaves and offline windows.
func TestRunReplaysExactly(t *testing.T) {
	churn := Uniform(12, 1, 0.2, 2*time.Millisecond, 100e6/8)
	for i := 0; i < 4; i++ {
		churn[i].LeaveAt = time.Duration(20+10*i) * time.Minute
	}
	for i := 4; i < 8; i++ {
		from := time.Duration(10*i) * time.Minute
		churn[i].Offline = []Window{{From: from, To: from + 45*time.Minute}}
	}
	cases := []struct {
		name string
		cfg  Config
		ws   func() []Workload
	}{
		{"figure1-83", Config{
			Donors:         Uniform(83, 1.0, 0.15, 2*time.Millisecond, 100e6/8),
			Policy:         sched.Adaptive{Target: 30 * time.Second, Bootstrap: 1000, Min: 100},
			ServerOverhead: 3 * time.Millisecond,
			Lease:          5 * time.Minute,
			Seed:           1,
		}, func() []Workload { return []Workload{NewDivisibleWorkload(80_000, 40, 4096)} }},
		{"churn", Config{
			Donors:         churn,
			Policy:         sched.Adaptive{Target: 30 * time.Second, Bootstrap: 200, Min: 20},
			ServerOverhead: 3 * time.Millisecond,
			Lease:          2 * time.Minute,
			Seed:           3,
		}, func() []Workload {
			return []Workload{NewDivisibleWorkload(50_000, 40, 4096), DPRmlWorkload(12, 20, 64<<10, 2048)}
		}},
	}
	for _, c := range cases {
		m1, err := Run(c.cfg, c.ws()...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m2, err := Run(c.cfg, c.ws()...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Errorf("%s: replay diverged:\n%+v\n%+v", c.name, m1, m2)
		}
		if c.name == "churn" && m1.UnitsLost == 0 {
			t.Errorf("churn: no unit lost, so the churn path went unexercised: %+v", m1)
		}
	}
}

// stalled never has a unit to give and is never done.
type stalled struct{}

func (stalled) Next(int64) (Unit, bool) { return Unit{}, false }
func (stalled) Complete(int64)          {}
func (stalled) Done() bool              { return false }
func (stalled) Remaining() int64        { return 1 }

// TestStalledWorkloadFails: a workload the server fails (nothing to hand
// out, nothing in flight, not done) ends the run with the server's error
// instead of parking the donors until MaxVirtual.
func TestStalledWorkloadFails(t *testing.T) {
	cfg := baseConfig()
	cfg.Donors = Uniform(2, 1.0, 0, time.Millisecond, 0)
	_, err := Run(cfg, NewDivisibleWorkload(100, 0, 0), stalled{})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("Run = %v, want the server's stalled-problem error", err)
	}
}
