package phylo

import (
	"math"
	"strings"
	"testing"

	"repro/internal/seq"
)

func mustParse(t *testing.T, s string) *Tree {
	t.Helper()
	tr, err := ParseNewick(s)
	if err != nil {
		t.Fatalf("ParseNewick(%q): %v", s, err)
	}
	return tr
}

func TestNewickRoundTrip(t *testing.T) {
	cases := []string{
		"((A:0.1,B:0.2):0.05,C:0.3);",
		"(A:1,B:2,C:3);",
		"(((A:0.5,B:0.5):0.5,C:1):0.1,(D:0.4,E:0.6):0.2,F:1.1);",
	}
	for _, c := range cases {
		tr := mustParse(t, c)
		rt := mustParse(t, tr.String())
		if !SameTopology(tr, rt) {
			t.Errorf("round trip changed topology: %s -> %s", c, tr.String())
		}
	}
}

func TestNewickErrors(t *testing.T) {
	bad := []string{
		"", "(A,B)", "((A,B);", "(A,B));", "(A:x,B:1);", "(,);", "(A,B); junk",
	}
	for _, s := range bad {
		if _, err := ParseNewick(s); err == nil {
			t.Errorf("ParseNewick(%q) accepted invalid input", s)
		}
	}
}

func TestNewickQuotedLabels(t *testing.T) {
	tr := mustParse(t, "('taxon one':0.1,'t(w)o':0.2,three:0.3);")
	names := tr.LeafNames()
	want := []string{"t(w)o", "taxon one", "three"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	// Round trip must preserve the awkward labels.
	rt := mustParse(t, tr.String())
	if !SameTopology(tr, rt) {
		t.Error("quoted-label round trip failed")
	}
}

func TestTreeBasics(t *testing.T) {
	tr := mustParse(t, "((A:0.1,B:0.2):0.05,C:0.3,D:0.4);")
	if tr.NLeaves() != 4 {
		t.Errorf("NLeaves = %d", tr.NLeaves())
	}
	if got := tr.TotalLength(); math.Abs(got-1.05) > 1e-12 {
		t.Errorf("TotalLength = %g", got)
	}
	if len(tr.Edges()) != 5 {
		t.Errorf("Edges = %d, want 5", len(tr.Edges()))
	}
	n := tr.Index()
	if n != 6 {
		t.Errorf("Index returned %d", n)
	}
	seen := make(map[int]bool)
	tr.Walk(func(nd *Node) {
		if nd.ID < 0 || nd.ID >= n || seen[nd.ID] {
			t.Errorf("bad or duplicate ID %d", nd.ID)
		}
		seen[nd.ID] = true
	})
	// Leaves must get the low IDs.
	for _, l := range tr.Leaves() {
		if l.ID >= tr.NLeaves() {
			t.Errorf("leaf %s has internal-range ID %d", l.Name, l.ID)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := mustParse(t, "((A:0.1,B:0.2):0.05,C:0.3);")
	cl := tr.Clone()
	cl.FindLeaf("A").Length = 99
	if tr.FindLeaf("A").Length == 99 {
		t.Error("Clone shares nodes with original")
	}
	if !SameTopology(tr, cl) {
		t.Error("Clone changed topology")
	}
	if err := cl.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestInsertRemoveLeafRoundTrip(t *testing.T) {
	tr := mustParse(t, "(A:0.1,B:0.2,C:0.3);")
	before := tr.String()
	edges := tr.Edges()
	if len(edges) != 3 {
		t.Fatalf("%d edges", len(edges))
	}
	leaf, err := tr.InsertLeafOnEdge(edges[1], "D", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Name != "D" || tr.NLeaves() != 4 {
		t.Fatalf("insert failed: %s", tr.String())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after insert: %v", err)
	}
	// The split branch halves must sum to the original.
	mid := leaf.Parent
	child := mid.Children[0]
	if math.Abs(mid.Length+child.Length-0.1) > 1e-12 && math.Abs(mid.Length+child.Length-0.2) > 1e-12 && math.Abs(mid.Length+child.Length-0.3) > 1e-12 {
		t.Errorf("split lengths don't sum to an original branch: mid=%g child=%g", mid.Length, child.Length)
	}
	if err := tr.RemoveLeaf("D"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after remove: %v", err)
	}
	after := mustParse(t, tr.String())
	if !SameTopology(mustParse(t, before), after) {
		t.Errorf("insert+remove changed topology: %s -> %s", before, tr.String())
	}
}

func TestInsertOnEveryEdgeGivesDistinctTopologies(t *testing.T) {
	// For stepwise insertion correctness: inserting the new taxon on each
	// of the 2k-5... edges of an unrooted k-leaf tree must produce distinct
	// topologies (this is the core enumeration DPRml parallelises).
	tr := mustParse(t, "((A:0.1,B:0.1):0.1,C:0.1,(D:0.1,E:0.1):0.1);")
	edges := tr.Edges()
	if len(edges) != 7 { // 2*5-3 = 7 edges of an unrooted 5-taxon tree
		t.Fatalf("%d edges, want 7", len(edges))
	}
	seen := make(map[string]bool)
	for i := range edges {
		work := tr.Clone()
		if _, err := work.InsertLeafOnEdge(work.Edges()[i], "F", 0.1); err != nil {
			t.Fatal(err)
		}
		if work.NLeaves() != 6 {
			t.Fatalf("edge %d: %d leaves", i, work.NLeaves())
		}
		key := canonicalTopologyKey(work)
		if seen[key] {
			t.Errorf("edge %d produced a duplicate topology", i)
		}
		seen[key] = true
	}
}

func canonicalTopologyKey(tr *Tree) string {
	var parts []string
	for b := range tr.Bipartitions() {
		parts = append(parts, string(b))
	}
	// Sort for determinism.
	for i := 0; i < len(parts); i++ {
		for j := i + 1; j < len(parts); j++ {
			if parts[j] < parts[i] {
				parts[i], parts[j] = parts[j], parts[i]
			}
		}
	}
	return strings.Join(parts, ";")
}

func TestRemoveLeafErrors(t *testing.T) {
	tr := mustParse(t, "(A:1,B:1,C:1);")
	if err := tr.RemoveLeaf("nope"); err == nil {
		t.Error("removing a missing leaf succeeded")
	}
}

func TestRobinsonFoulds(t *testing.T) {
	a := mustParse(t, "((A:1,B:1):1,(C:1,D:1):1,E:1);")
	b := mustParse(t, "((A:1,C:1):1,(B:1,D:1):1,E:1);")
	same := mustParse(t, "((B:2,A:2):2,(D:2,C:2):2,E:2);")
	if d, _ := RobinsonFoulds(a, a); d != 0 {
		t.Errorf("RF(a,a) = %d", d)
	}
	if d, _ := RobinsonFoulds(a, same); d != 0 {
		t.Errorf("RF(a, relabeled-same) = %d", d)
	}
	if d, _ := RobinsonFoulds(a, b); d != 4 {
		t.Errorf("RF(a,b) = %d, want 4", d)
	}
	c := mustParse(t, "((A:1,B:1):1,C:1,Z:1);")
	if _, err := RobinsonFoulds(a, c); err == nil {
		t.Error("differing leaf sets accepted")
	}
}

func TestTriplet(t *testing.T) {
	tr := Triplet("A", "B", "C", 0.1)
	if tr.NLeaves() != 3 || len(tr.Root.Children) != 3 {
		t.Fatalf("bad triplet: %s", tr.String())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPDistanceAndJC(t *testing.T) {
	if d := pDistance([]byte("ACGT"), []byte("ACGT")); d != 0 {
		t.Errorf("identical p-distance = %g", d)
	}
	if d := pDistance([]byte("ACGT"), []byte("ACGA")); d != 0.25 {
		t.Errorf("1/4 p-distance = %g", d)
	}
	if d := pDistance([]byte("AC-T"), []byte("ACGT")); d != 0 {
		t.Errorf("gap column should be skipped: %g", d)
	}
	if jcDistance(0) != 0 {
		t.Error("JC(0) != 0")
	}
	// JC correction always >= p.
	for _, p := range []float64{0.05, 0.1, 0.3, 0.5, 0.7} {
		if jcDistance(p) < p {
			t.Errorf("JC(%g) = %g < p", p, jcDistance(p))
		}
	}
	if jcDistance(0.9) != 5.0 {
		t.Error("saturated distance not clamped")
	}
}

// perfectAdditiveMatrix builds the distance matrix induced by a known tree
// with strictly positive branch lengths; NJ must reconstruct its topology.
func perfectAdditiveMatrix(t *testing.T, newick string) (*DistanceMatrix, *Tree) {
	t.Helper()
	tr := mustParse(t, newick)
	leaves := tr.Leaves()
	names := make([]string, len(leaves))
	for i, l := range leaves {
		names[i] = l.Name
	}
	dm := NewDistanceMatrix(names)
	// Path lengths via pairwise LCA walk.
	pathToRoot := func(n *Node) ([]*Node, []float64) {
		var nodes []*Node
		var cum []float64
		d := 0.0
		for cur := n; cur != nil; cur = cur.Parent {
			nodes = append(nodes, cur)
			cum = append(cum, d)
			d += cur.Length
		}
		return nodes, cum
	}
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			ni, di := pathToRoot(leaves[i])
			nj, dj := pathToRoot(leaves[j])
			// Find deepest common ancestor.
			pos := make(map[*Node]int)
			for k, n := range ni {
				pos[n] = k
			}
			best := math.Inf(1)
			for k, n := range nj {
				if pi, ok := pos[n]; ok {
					d := di[pi] + dj[k]
					if d < best {
						best = d
					}
					break
				}
			}
			dm.D[i][j], dm.D[j][i] = best, best
		}
	}
	return dm, tr
}

func TestNeighborJoiningRecoversAdditiveTree(t *testing.T) {
	newick := "((A:0.2,B:0.3):0.15,(C:0.25,D:0.1):0.2,E:0.4);"
	dm, want := perfectAdditiveMatrix(t, newick)
	got, err := NeighborJoining(dm)
	if err != nil {
		t.Fatal(err)
	}
	if !SameTopology(got, want) {
		t.Errorf("NJ topology %s != true %s", got.String(), want.String())
	}
	// Branch lengths should be recovered too (additive matrix).
	if math.Abs(got.TotalLength()-want.TotalLength()) > 1e-9 {
		t.Errorf("NJ total length %g != %g", got.TotalLength(), want.TotalLength())
	}
}

func TestNeighborJoiningLarger(t *testing.T) {
	newick := "(((A:0.1,B:0.12):0.08,(C:0.15,D:0.05):0.1):0.07,((E:0.2,F:0.18):0.09,G:0.3):0.05,H:0.25);"
	dm, want := perfectAdditiveMatrix(t, newick)
	got, err := NeighborJoining(dm)
	if err != nil {
		t.Fatal(err)
	}
	if !SameTopology(got, want) {
		t.Errorf("NJ failed on 8 taxa:\n got %s\nwant %s", got.String(), want.String())
	}
}

func TestNeighborJoiningErrors(t *testing.T) {
	if _, err := NeighborJoining(NewDistanceMatrix([]string{"A", "B"})); err == nil {
		t.Error("NJ with 2 taxa accepted")
	}
}

func TestAlignmentDistances(t *testing.T) {
	rows := []*seq.Sequence{
		seq.NewSequence("A", "ACGTACGTACGTACGTACGT"),
		seq.NewSequence("B", "ACGTACGTACGTACGTACGA"),
		seq.NewSequence("C", "TCGAACGAACGGACTTACGA"),
	}
	a, err := seq.NewAlignment(rows)
	if err != nil {
		t.Fatal(err)
	}
	dm := AlignmentDistances(a)
	if dm.D[0][1] <= 0 || dm.D[0][1] >= dm.D[0][2] {
		t.Errorf("distance ordering wrong: d(A,B)=%g d(A,C)=%g", dm.D[0][1], dm.D[0][2])
	}
	if dm.D[0][0] != 0 {
		t.Error("self distance nonzero")
	}
	if dm.D[1][0] != dm.D[0][1] {
		t.Error("matrix not symmetric")
	}
}
