package phylo

import (
	"math/rand"
	"testing"
)

func mustParseCons(t *testing.T, s string) *Tree {
	t.Helper()
	tr, err := ParseNewick(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return tr
}

func TestSplitSupportIdenticalTrees(t *testing.T) {
	a := mustParseCons(t, "((A:1,B:1):1,(C:1,D:1):1,E:1);")
	b := a.Clone()
	sup, err := SplitSupport([]*Tree{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != 2 {
		t.Fatalf("%d splits, want 2 (AB|CDE and CD|ABE)", len(sup))
	}
	for s, f := range sup {
		if f != 1.0 {
			t.Errorf("split %s support %g, want 1", s, f)
		}
	}
}

func TestSplitSupportErrors(t *testing.T) {
	if _, err := SplitSupport(nil); err == nil {
		t.Error("empty input accepted")
	}
	a := mustParseCons(t, "((A:1,B:1):1,C:1,D:1);")
	b := mustParseCons(t, "((A:1,B:1):1,C:1,E:1);") // different leaf set
	if _, err := SplitSupport([]*Tree{a, b}); err == nil {
		t.Error("mismatched leaf sets accepted")
	}
	c := mustParseCons(t, "((A:1,B:1):1,C:1);") // different size
	if _, err := SplitSupport([]*Tree{a, c}); err == nil {
		t.Error("mismatched leaf count accepted")
	}
}

func TestMajorityRuleConsensusUnanimous(t *testing.T) {
	// Three identical topologies: consensus == that topology.
	trees := []*Tree{
		mustParseCons(t, "((A:1,B:1):1,(C:1,D:1):1,E:1);"),
		mustParseCons(t, "((B:2,A:2):2,(D:2,C:2):2,E:2);"),
		mustParseCons(t, "(E:1,(C:1,D:1):1,(A:1,B:1):1);"),
	}
	cons, err := MajorityRuleConsensus(trees)
	if err != nil {
		t.Fatal(err)
	}
	if !SameTopology(cons, trees[0]) {
		t.Errorf("consensus %s differs from unanimous input %s", cons, trees[0])
	}
}

func TestMajorityRuleConsensusMajority(t *testing.T) {
	// Two trees group (A,B); one groups (A,C). Majority keeps AB|CDE only.
	trees := []*Tree{
		mustParseCons(t, "((A:1,B:1):1,(C:1,D:1):1,E:1);"),
		mustParseCons(t, "((A:1,B:1):1,C:1,D:1,E:1);"),
		mustParseCons(t, "((A:1,C:1):1,B:1,D:1,E:1);"),
	}
	cons, err := MajorityRuleConsensus(trees)
	if err != nil {
		t.Fatal(err)
	}
	splits := cons.Bipartitions()
	if len(splits) != 1 {
		t.Fatalf("consensus has %d splits, want 1: %v", len(splits), splits)
	}
	want := canonicalSplit([]string{"A", "B"}, []string{"A", "B", "C", "D", "E"})
	if !splits[want] {
		t.Errorf("consensus lacks AB split: %v", splits)
	}
	if got := cons.NLeaves(); got != 5 {
		t.Errorf("consensus has %d leaves, want 5", got)
	}
}

func TestMajorityRuleConflictCollapses(t *testing.T) {
	// 50/50 conflict: neither split exceeds half; consensus is a star.
	trees := []*Tree{
		mustParseCons(t, "((A:1,B:1):1,C:1,D:1);"),
		mustParseCons(t, "((A:1,C:1):1,B:1,D:1);"),
	}
	cons, err := MajorityRuleConsensus(trees)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cons.Bipartitions()); n != 0 {
		t.Errorf("50/50 conflict produced %d splits, want star (0)", n)
	}
	if cons.NLeaves() != 4 {
		t.Errorf("%d leaves", cons.NLeaves())
	}
}

func TestConsensusSupportAsBranchLength(t *testing.T) {
	trees := []*Tree{
		mustParseCons(t, "((A:1,B:1):1,(C:1,D:1):1,E:1);"),
		mustParseCons(t, "((A:1,B:1):1,(C:1,D:1):1,E:1);"),
		mustParseCons(t, "((A:1,B:1):1,C:1,D:1,E:1);"),
	}
	cons, err := MajorityRuleConsensus(trees)
	if err != nil {
		t.Fatal(err)
	}
	// AB has support 1.0; CD has 2/3. Find internal nodes and check lengths.
	var sups []float64
	cons.Walk(func(n *Node) {
		if !n.IsLeaf() && n.Parent != nil {
			sups = append(sups, n.Length)
		}
	})
	if len(sups) != 2 {
		t.Fatalf("%d internal edges, want 2", len(sups))
	}
	hi, lo := sups[0], sups[1]
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi != 1.0 || lo < 0.66 || lo > 0.67 {
		t.Errorf("support lengths = %v, want {1.0, 0.667}", sups)
	}
}

// TestConsensusOfNoisyTrees is the integration-shaped property: majority
// consensus of many noisy copies of one tree recovers that tree.
func TestConsensusOfNoisyTrees(t *testing.T) {
	base := mustParseCons(t, "(((A:1,B:1):1,(C:1,D:1):1):1,((E:1,F:1):1,G:1):1,H:1);")
	rng := rand.New(rand.NewSource(5))
	var trees []*Tree
	for i := 0; i < 9; i++ {
		tr := base.Clone()
		if i < 3 {
			// A third of the trees get a random leaf yanked out and
			// reattached on a random edge (NNI-ish noise).
			leaves := tr.Leaves()
			name := leaves[rng.Intn(len(leaves))].Name
			if err := tr.RemoveLeaf(name); err != nil {
				t.Fatal(err)
			}
			edges := tr.Edges()
			if _, err := tr.InsertLeafOnEdge(edges[rng.Intn(len(edges))], name, 1); err != nil {
				t.Fatal(err)
			}
		}
		trees = append(trees, tr)
	}
	cons, err := MajorityRuleConsensus(trees)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RobinsonFoulds(cons, base)
	if err != nil {
		t.Fatal(err)
	}
	// The consensus may lose a couple of splits to noise but must not
	// invent wrong ones; allow a small RF budget.
	if d > 2 {
		t.Errorf("consensus RF distance to base = %d:\n cons %s\n base %s", d, cons, base)
	}
}
