package dprml

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/likelihood"
	"repro/internal/phylo"
	"repro/internal/sched"
	"repro/internal/seq"
)

// simAlignment generates a test alignment on a known random tree.
func simAlignment(t *testing.T, nTaxa, nSites int, seed int64) (*seq.Alignment, *phylo.Tree) {
	t.Helper()
	taxa := make([]string, nTaxa)
	for i := range taxa {
		taxa[i] = "t" + string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	tree, err := likelihood.RandomTree(taxa, 0.05, 0.35, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := likelihood.NewHKY85(2, [4]float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	aln, err := likelihood.Simulate(tree, m, likelihood.UniformRates(), nSites, seed+100)
	if err != nil {
		t.Fatal(err)
	}
	return aln, tree
}

func testOpts() Options {
	return Options{
		Model:           "HKY85:kappa=2",
		LocalRounds:     1,
		FinalRounds:     1,
		BranchTolerance: 1e-3,
	}
}

func TestAdditionOrderValidation(t *testing.T) {
	aln, _ := simAlignment(t, 4, 50, 1)
	if _, err := additionOrder(aln, Options{AdditionOrder: []string{"x", "y", "z", "w"}}); err == nil {
		t.Error("bogus taxa accepted")
	}
	if _, err := additionOrder(aln, Options{AdditionOrder: aln.Taxa()[:3]}); err == nil {
		t.Error("partial order accepted")
	}
	dup := []string{aln.Taxa()[0], aln.Taxa()[0], aln.Taxa()[1], aln.Taxa()[2]}
	if _, err := additionOrder(aln, Options{AdditionOrder: dup}); err == nil {
		t.Error("duplicate taxa accepted")
	}
	order, err := additionOrder(aln, Options{})
	if err != nil || len(order) != 4 {
		t.Errorf("default order failed: %v %v", order, err)
	}
}

func TestBuildTreeLocalSmall(t *testing.T) {
	aln, truth := simAlignment(t, 6, 800, 42)
	res, err := BuildTreeLocal(aln, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.LogL, 0) || res.LogL >= 0 {
		t.Fatalf("bad logL %g", res.LogL)
	}
	got, err := phylo.ParseNewick(res.Newick)
	if err != nil {
		t.Fatal(err)
	}
	if got.NLeaves() != 6 {
		t.Fatalf("%d leaves", got.NLeaves())
	}
	// With 800 sites on a 6-taxon tree, stepwise insertion should recover
	// the true topology (or at worst be very close).
	d, err := phylo.RobinsonFoulds(got, truth)
	if err != nil {
		t.Fatal(err)
	}
	if d > 2 {
		t.Errorf("RF distance to truth = %d (>2):\n got %s\ntrue %s", d, res.Newick, truth.String())
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	aln, _ := simAlignment(t, 7, 300, 7)
	opts := testOpts()
	ref, err := BuildTreeLocal(aln, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []sched.Policy{
		sched.Fixed{Size: 1},       // one candidate per unit
		sched.Fixed{Size: 1 << 40}, // whole stage per unit
		sched.Adaptive{Target: 1, Bootstrap: 2000, Min: 1},
	} {
		p, err := NewProblem("dprml-"+policy.Name(), aln, opts)
		if err != nil {
			t.Fatal(err)
		}
		out, err := dist.RunLocal(context.Background(), p, 3, policy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResult(out)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := phylo.ParseNewick(got.Newick)
		if err != nil {
			t.Fatal(err)
		}
		rt, _ := phylo.ParseNewick(ref.Newick)
		if !phylo.SameTopology(gt, rt) {
			t.Errorf("policy %s: topology differs:\n dist  %s\n local %s", policy.Name(), got.Newick, ref.Newick)
		}
		if math.Abs(got.LogL-ref.LogL) > 1e-6 {
			t.Errorf("policy %s: logL %g vs local %g", policy.Name(), got.LogL, ref.LogL)
		}
	}
}

func TestDataManagerStageFlow(t *testing.T) {
	aln, _ := simAlignment(t, 5, 100, 3)
	dm, err := NewDataManager(aln, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: exactly one triplet unit; no more until consumed.
	u1, ok, err := dm.NextUnit(1 << 40)
	if err != nil || !ok {
		t.Fatalf("no triplet unit: %v", err)
	}
	if _, ok, _ := dm.NextUnit(1 << 40); ok {
		t.Fatal("second unit issued during triplet phase")
	}
	// Feed a plausible triplet result.
	trip := phylo.Triplet(aln.Taxa()[0], aln.Taxa()[1], aln.Taxa()[2], 0.1)
	res := taskResult{BestEdge: -1, BestLogL: -100, BestTree: trip.String()}
	if err := dm.Consume(u1.ID, res); err != nil {
		t.Fatal(err)
	}
	// Phase 2: stage for taxon 4 has 3 edges; with budget for 1 task we
	// get three separate units then a barrier.
	placed, total := dm.Progress()
	if placed != 3 || total != 5 {
		t.Fatalf("progress %d/%d", placed, total)
	}
	var stageUnits []*dist.UnitOf[taskUnit]
	for {
		u, ok, err := dm.NextUnit(1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		stageUnits = append(stageUnits, u)
	}
	if len(stageUnits) != 3 {
		t.Fatalf("stage issued %d units, want 3", len(stageUnits))
	}
	if dm.RemainingCost() <= 0 {
		t.Error("remaining cost should be positive mid-run")
	}
	if dm.Done() {
		t.Error("done mid-stage")
	}
}

// TestDataManagerHalvesStage pins the stage cut: however large the budget,
// a unit takes at most half of the stage's undispatched edges, so the
// 3-edge stage for the fourth taxon is cut 2 + 1 and every edge is issued
// once.
func TestDataManagerHalvesStage(t *testing.T) {
	aln, _ := simAlignment(t, 5, 100, 3)
	dm, err := NewDataManager(aln, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	u1, _, _ := dm.NextUnit(1 << 40)
	trip := phylo.Triplet(aln.Taxa()[0], aln.Taxa()[1], aln.Taxa()[2], 0.1)
	if err := dm.Consume(u1.ID, taskResult{BestEdge: -1, BestLogL: -100, BestTree: trip.String()}); err != nil {
		t.Fatal(err)
	}
	var edges [][]int
	for {
		u, ok, err := dm.NextUnit(1 << 40)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		edges = append(edges, u.Payload.Edges)
	}
	if got := fmt.Sprint(edges); got != "[[0 1] [2]]" {
		t.Fatalf("stage cut into %s, want [[0 1] [2]]", got)
	}
}

func TestDataManagerRequeue(t *testing.T) {
	aln, _ := simAlignment(t, 5, 100, 3)
	dm, err := NewDataManager(aln, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	u1, _, _ := dm.NextUnit(1 << 40)
	trip := phylo.Triplet(aln.Taxa()[0], aln.Taxa()[1], aln.Taxa()[2], 0.1)
	_ = dm.Consume(u1.ID, taskResult{BestTree: trip.String(), BestLogL: -1})
	// Take the stage's first unit (two of its three edges) and the rest,
	// then lose the first.
	u2, ok, _ := dm.NextUnit(1 << 40)
	if !ok {
		t.Fatal("no stage unit")
	}
	if _, ok, _ := dm.NextUnit(1 << 40); !ok {
		t.Fatal("no second stage unit")
	}
	if _, ok, _ := dm.NextUnit(1); ok {
		t.Fatal("stage not exhausted")
	}
	dm.Requeue(u2.ID)
	u3, ok, _ := dm.NextUnit(1 << 40)
	if !ok {
		t.Fatal("requeued work not re-issuable")
	}
	if u3.Cost != u2.Cost {
		t.Errorf("requeued unit cost %d != original %d", u3.Cost, u2.Cost)
	}
}

// TestRequeueReissuesOnlyTheLostEdges: losing the first of two pending
// units of a stage re-issues exactly its edges — every edge of the stage is
// then held by one pending unit — and the stage does not advance until the
// surviving unit is consumed too.
func TestRequeueReissuesOnlyTheLostEdges(t *testing.T) {
	aln, _ := simAlignment(t, 6, 100, 3)
	opts := testOpts()
	opts.applyDefaults()
	dm, err := NewDataManager(aln, opts)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := newEvalContext(aln, opts)
	if err != nil {
		t.Fatal(err)
	}
	alg := &Algorithm{ctx: ec}
	consume := func(u *dist.UnitOf[taskUnit]) {
		t.Helper()
		res, err := alg.ProcessCtx(context.Background(), u.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := dm.Consume(u.ID, res); err != nil {
			t.Fatal(err)
		}
	}
	trip, _, _ := dm.NextUnit(1 << 40)
	consume(trip)
	placed, _ := dm.Progress()
	lost, _, _ := dm.NextUnit(1 << 40)
	kept, _, _ := dm.NextUnit(1 << 40)
	dm.Requeue(lost.ID)
	pending := []*dist.UnitOf[taskUnit]{kept}
	for {
		u, ok, err := dm.NextUnit(1 << 40)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		pending = append(pending, u)
	}
	held := make(map[int]int)
	for _, u := range pending {
		for _, e := range u.Payload.Edges {
			held[e]++
		}
	}
	if len(held) != dm.stageEdges {
		t.Fatalf("pending units hold edges %v of a %d-edge stage", held, dm.stageEdges)
	}
	for e, n := range held {
		if n != 1 {
			t.Fatalf("edge %d issued to %d pending units (%v)", e, n, held)
		}
	}
	for _, u := range pending[1:] {
		consume(u)
	}
	if p, _ := dm.Progress(); p != placed {
		t.Fatalf("stage advanced to %d placed taxa with unit %d (edges %v) still pending", p, kept.ID, kept.Payload.Edges)
	}
	consume(kept)
	if p, _ := dm.Progress(); p != placed+1 {
		t.Fatalf("stage did not advance after its last unit: %d placed, want %d", p, placed+1)
	}
}

func TestGammaModelRuns(t *testing.T) {
	aln, _ := simAlignment(t, 5, 200, 11)
	opts := testOpts()
	opts.Model = "GTR:ag=3,ct=3"
	opts.GammaCategories = 4
	opts.GammaAlpha = 0.7
	res, err := BuildTreeLocal(aln, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogL >= 0 {
		t.Fatalf("logL %g", res.LogL)
	}
}

func TestCustomAdditionOrder(t *testing.T) {
	aln, _ := simAlignment(t, 6, 400, 19)
	opts := testOpts()
	taxa := aln.Taxa()
	// Reverse order.
	rev := make([]string, len(taxa))
	for i, x := range taxa {
		rev[len(taxa)-1-i] = x
	}
	opts.AdditionOrder = rev
	res, err := BuildTreeLocal(aln, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := phylo.ParseNewick(res.Newick)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NLeaves() != 6 {
		t.Fatalf("%d leaves", tr.NLeaves())
	}
}

func TestBadModelRejectedAtSubmit(t *testing.T) {
	aln, _ := simAlignment(t, 4, 50, 2)
	opts := testOpts()
	opts.Model = "WAG" // protein model we don't have
	if _, err := NewDataManager(aln, opts); err == nil {
		t.Error("bad model accepted at submission")
	}
	if _, err := NewProblem("x", aln, opts); err == nil {
		t.Error("bad model accepted by NewProblem")
	}
}

func TestResultString(t *testing.T) {
	r := &TreeResult{Newick: "(A:1,B:1,C:1);", LogL: -123.456}
	s := r.String()
	if len(s) == 0 || s[0] != 'l' {
		t.Errorf("String() = %q", s)
	}
}
