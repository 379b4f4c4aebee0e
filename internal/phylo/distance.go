package phylo

import (
	"fmt"
	"math"

	"repro/internal/seq"
)

// DistanceMatrix is a symmetric matrix of pairwise evolutionary distances
// between taxa, with the taxon order recorded.
type DistanceMatrix struct {
	Taxa []string
	D    [][]float64
}

// NewDistanceMatrix allocates an n x n zero matrix.
func NewDistanceMatrix(taxa []string) *DistanceMatrix {
	n := len(taxa)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	return &DistanceMatrix{Taxa: append([]string(nil), taxa...), D: d}
}

// pDistance computes the proportion of differing sites between two aligned
// rows, ignoring columns where either has a gap or ambiguity.
func pDistance(a, b []byte) float64 {
	diff, n := 0, 0
	for i := range a {
		x, y := upper(a[i]), upper(b[i])
		if !isACGT(x) || !isACGT(y) {
			continue
		}
		n++
		if x != y {
			diff++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(diff) / float64(n)
}

func upper(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

func isACGT(b byte) bool { return b == 'A' || b == 'C' || b == 'G' || b == 'T' || b == 'U' }

// jcDistance converts a p-distance to a Jukes–Cantor corrected distance.
// Saturated distances (p >= 0.75) are clamped to a large finite value.
func jcDistance(p float64) float64 {
	if p >= 0.749 {
		return 5.0 // effectively saturated
	}
	return -0.75 * math.Log(1-4.0/3.0*p)
}

// AlignmentDistances builds a JC-corrected distance matrix from a DNA
// alignment.
func AlignmentDistances(a *seq.Alignment) *DistanceMatrix {
	m := NewDistanceMatrix(a.Taxa())
	for i := 0; i < a.NTaxa(); i++ {
		for j := i + 1; j < a.NTaxa(); j++ {
			d := jcDistance(pDistance(a.Rows[i].Residues, a.Rows[j].Residues))
			m.D[i][j], m.D[j][i] = d, d
		}
	}
	return m
}

// NeighborJoining builds an unrooted tree (trifurcating root) from a
// distance matrix using the Saitou–Nei algorithm. It is the distance-based
// baseline the ML programs in the paper's related work compare against.
func NeighborJoining(dm *DistanceMatrix) (*Tree, error) {
	n := len(dm.Taxa)
	if n < 3 {
		return nil, fmt.Errorf("phylo: NJ needs >= 3 taxa, got %d", n)
	}
	// Working copies.
	nodes := make([]*Node, n)
	for i, t := range dm.Taxa {
		nodes[i] = NewLeaf(t, 0)
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), dm.D[i]...)
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}

	for len(active) > 3 {
		m := len(active)
		// Row sums over active set.
		r := make([]float64, m)
		for ai, i := range active {
			for _, j := range active {
				r[ai] += d[i][j]
			}
		}
		// Find pair minimising Q.
		bestA, bestB := -1, -1
		bestQ := math.Inf(1)
		for ai := 0; ai < m; ai++ {
			for bi := ai + 1; bi < m; bi++ {
				i, j := active[ai], active[bi]
				q := float64(m-2)*d[i][j] - r[ai] - r[bi]
				if q < bestQ {
					bestQ, bestA, bestB = q, ai, bi
				}
			}
		}
		i, j := active[bestA], active[bestB]
		// Branch lengths to the new node.
		li := 0.5*d[i][j] + (r[bestA]-r[bestB])/(2*float64(m-2))
		lj := d[i][j] - li
		if li < 0 {
			li = 0
			lj = d[i][j]
		}
		if lj < 0 {
			lj = 0
		}
		nodes[i].Length = li
		nodes[j].Length = lj
		parent := NewInternal(0, nodes[i], nodes[j])
		// New distances: d(u,k) = (d(i,k)+d(j,k)-d(i,j))/2, stored in slot i.
		for _, k := range active {
			if k == i || k == j {
				continue
			}
			nk := 0.5 * (d[i][k] + d[j][k] - d[i][j])
			if nk < 0 {
				nk = 0
			}
			d[i][k], d[k][i] = nk, nk
		}
		nodes[i] = parent
		// Remove j from the active set.
		na := active[:0]
		for _, k := range active {
			if k != j {
				na = append(na, k)
			}
		}
		active = na
	}

	// Join the final three nodes at a trifurcating root with standard
	// three-point branch length estimates.
	i, j, k := active[0], active[1], active[2]
	nodes[i].Length = math.Max(0, 0.5*(d[i][j]+d[i][k]-d[j][k]))
	nodes[j].Length = math.Max(0, 0.5*(d[i][j]+d[j][k]-d[i][k]))
	nodes[k].Length = math.Max(0, 0.5*(d[i][k]+d[j][k]-d[i][j]))
	root := NewInternal(0, nodes[i], nodes[j], nodes[k])
	t := &Tree{Root: root}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
