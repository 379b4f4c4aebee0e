package phylo

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomBinaryTree grows a random binary tree over n leaves by repeated
// insertion (the same operation stepwise insertion uses).
func randomBinaryTree(n int, seed int64) *Tree {
	rng := rand.New(rand.NewSource(seed))
	t := Triplet("L0", "L1", "L2", 0.1+rng.Float64())
	for i := 3; i < n; i++ {
		edges := t.Edges()
		leaf, err := t.InsertLeafOnEdge(edges[rng.Intn(len(edges))], fmt.Sprintf("L%d", i), 0.05+rng.Float64())
		if err != nil {
			panic(err)
		}
		_ = leaf
	}
	return t
}

// TestNewickRoundTripProperty: String -> Parse preserves topology, leaf
// set and total length for random trees of random size.
func TestNewickRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 3
		tr := randomBinaryTree(n, seed)
		back, err := ParseNewick(tr.String())
		if err != nil {
			t.Logf("parse: %v", err)
			return false
		}
		if back.NLeaves() != tr.NLeaves() {
			return false
		}
		if !SameTopology(back, tr) {
			return false
		}
		d := back.TotalLength() - tr.TotalLength()
		return d < 1e-9 && d > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestInsertRemoveInverseProperty: inserting a leaf then removing it
// restores the original topology for random trees and edges.
func TestInsertRemoveInverseProperty(t *testing.T) {
	f := func(seed int64, nRaw, eRaw uint8) bool {
		n := int(nRaw%20) + 4
		tr := randomBinaryTree(n, seed)
		orig := tr.Clone()
		edges := tr.Edges()
		if _, err := tr.InsertLeafOnEdge(edges[int(eRaw)%len(edges)], "EXTRA", 0.2); err != nil {
			return false
		}
		if tr.NLeaves() != n+1 {
			return false
		}
		if err := tr.RemoveLeaf("EXTRA"); err != nil {
			return false
		}
		return SameTopology(tr, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestConsensusIdempotentProperty: the majority consensus of identical
// copies of a random tree is that tree.
func TestConsensusIdempotentProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%25) + 4
		k := int(kRaw%5) + 1
		tr := randomBinaryTree(n, seed)
		trees := make([]*Tree, k)
		for i := range trees {
			trees[i] = tr.Clone()
		}
		cons, err := MajorityRuleConsensus(trees)
		if err != nil {
			t.Logf("consensus: %v", err)
			return false
		}
		return SameTopology(cons, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRerootInvariantProperty: rerooting at any edge preserves the
// unrooted topology and the bipartition set for random trees.
func TestRerootInvariantProperty(t *testing.T) {
	f := func(seed int64, nRaw, eRaw uint8) bool {
		n := int(nRaw%20) + 4
		tr := randomBinaryTree(n, seed)
		e := tr.Edges()[int(eRaw)%len(tr.Edges())]
		rooted, err := tr.rerootCloneAbove(e.Child, e.Child.Length/2)
		if err != nil {
			t.Logf("reroot: %v", err)
			return false
		}
		return SameTopology(rooted, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRFTriangleInequalityProperty: RF is a metric; check symmetry,
// identity and the triangle inequality on random tree triples.
func TestRFMetricProperty(t *testing.T) {
	f := func(s1, s2, s3 int64, nRaw uint8) bool {
		n := int(nRaw%15) + 4
		a := randomBinaryTree(n, s1)
		b := randomBinaryTree(n, s2)
		c := randomBinaryTree(n, s3)
		ab, err1 := RobinsonFoulds(a, b)
		ba, err2 := RobinsonFoulds(b, a)
		if err1 != nil || err2 != nil || ab != ba {
			return false
		}
		aa, _ := RobinsonFoulds(a, a)
		if aa != 0 {
			return false
		}
		bc, _ := RobinsonFoulds(b, c)
		ac, _ := RobinsonFoulds(a, c)
		return ac <= ab+bc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
