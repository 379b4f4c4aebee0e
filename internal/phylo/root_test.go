package phylo

import (
	"math"
	"testing"
)

func TestRerootPreservesTopologyAndLength(t *testing.T) {
	orig := mustParseCons(t, "((A:1,B:2):0.5,(C:1.5,D:0.5):1,E:2);")
	totalLen := orig.TotalLength()
	for _, e := range orig.Edges() {
		rooted, err := orig.rerootCloneAbove(e.Child, e.Child.Length/2)
		if err != nil {
			t.Fatalf("reroot at %v: %v", e.Child.Name, err)
		}
		if err := rooted.Validate(); err != nil {
			t.Fatal(err)
		}
		if rooted.NLeaves() != orig.NLeaves() {
			t.Fatalf("leaf count changed: %d", rooted.NLeaves())
		}
		if got := rooted.TotalLength(); math.Abs(got-totalLen) > 1e-9 {
			t.Errorf("total length changed: %g vs %g", got, totalLen)
		}
		if !SameTopology(rooted, orig) {
			t.Errorf("unrooted topology changed after rerooting at %s:\n %s\n %s",
				e.Child.Name, rooted, orig)
		}
		if len(rooted.Root.Children) != 2 {
			t.Errorf("new root has %d children, want 2", len(rooted.Root.Children))
		}
	}
	// Original must be untouched (reroot works on a clone).
	if math.Abs(orig.TotalLength()-totalLen) > 1e-12 {
		t.Error("rerooting mutated the source tree")
	}
}

func TestMidpointRootBalanced(t *testing.T) {
	// Caterpillar with a long edge: ((A:1,B:1):4,C:1,D:1); the longest
	// path is A-B? No: A..C = 1+4+1 = 6, A..B = 2. Longest leaf pair is
	// A-C or A-D (6) or B-C/B-D (6); midpoint (3 from A) falls on the
	// internal edge of length 4.
	tr := mustParseCons(t, "((A:1,B:1):4,C:1,D:1);")
	rooted, err := tr.MidpointRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := rooted.Validate(); err != nil {
		t.Fatal(err)
	}
	// The two root-to-deepest-leaf distances must be equal (that is the
	// midpoint property).
	depths := leafDepths(rooted)
	var max1, max2 float64
	for _, c := range rooted.Root.Children {
		sub := deepestUnder(c, depths)
		if sub > max1 {
			max1, max2 = sub, max1
		} else if sub > max2 {
			max2 = sub
		}
	}
	if math.Abs(max1-max2) > 1e-9 {
		t.Errorf("midpoint root unbalanced: %g vs %g\n%s", max1, max2, rooted)
	}
	if !SameTopology(rooted, tr) {
		t.Error("midpoint rooting changed the unrooted topology")
	}
}

// deepestUnder returns the greatest root-depth among leaves under n.
func deepestUnder(n *Node, depths map[*Node]float64) float64 {
	best := math.Inf(-1)
	var rec func(*Node)
	rec = func(m *Node) {
		if m.IsLeaf() {
			if d := depths[m]; d > best {
				best = d
			}
		}
		for _, c := range m.Children {
			rec(c)
		}
	}
	rec(n)
	return best
}

func TestMidpointRootOnBSide(t *testing.T) {
	// Longest path midpoint on the other side of the LCA.
	tr := mustParseCons(t, "((A:0.5,B:6):1,C:0.5,D:0.5);")
	rooted, err := tr.MidpointRoot()
	if err != nil {
		t.Fatal(err)
	}
	depths := leafDepths(rooted)
	var maxes []float64
	for _, c := range rooted.Root.Children {
		maxes = append(maxes, deepestUnder(c, depths))
	}
	if len(maxes) != 2 || math.Abs(maxes[0]-maxes[1]) > 1e-9 {
		t.Errorf("unbalanced midpoint root: %v\n%s", maxes, rooted)
	}
}

func TestMidpointRootErrors(t *testing.T) {
	one := &Tree{Root: NewLeaf("A", 0)}
	if _, err := one.MidpointRoot(); err == nil {
		t.Error("single-leaf tree accepted")
	}
}

func TestRerootAtRootRejected(t *testing.T) {
	tr := mustParseCons(t, "(A:1,B:1,C:1);")
	if _, err := tr.rerootCloneAbove(tr.Root, 0); err == nil {
		t.Error("rerooting at the root accepted")
	}
}

// leafDepths returns, for each leaf, its path length from the root.
func leafDepths(t *Tree) map[*Node]float64 {
	out := make(map[*Node]float64)
	var rec func(n *Node, d float64)
	rec = func(n *Node, d float64) {
		if n.IsLeaf() {
			out[n] = d
		}
		for _, c := range n.Children {
			rec(c, d+c.Length)
		}
	}
	if t.Root != nil {
		rec(t.Root, 0)
	}
	return out
}
