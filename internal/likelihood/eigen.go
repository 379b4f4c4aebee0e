// Package likelihood implements the maximum-likelihood machinery DPRml
// delegates to PAL v1.4 in the paper: time-reversible DNA substitution
// models (JC69 through GTR), discrete-gamma rate heterogeneity, Felsenstein
// pruning with site-pattern compression and numerical scaling, Brent
// branch-length optimisation, and sequence simulation along a tree.
//
// One pruning kernel (Evaluator.absorb) builds every partial. The down
// pass gives each node a partial of its subtree and a per-pattern
// log-scale vector: its children's vectors summed, plus its own rescale.
// LogLikelihood reduces the root's partial. To optimise one branch,
// fastDNAml-style, an up pass builds the partial of the rest of the tree
// at the branch's upper end; each Brent step then scores the branch in
// closed form, absorbing the lower partial into that upper one through
// P(x), as if the tree were rooted on the branch.
package likelihood

import (
	"fmt"
	"math"
)

// jacobiEigen diagonalises a real symmetric matrix using the cyclic Jacobi
// method: A = V · diag(values) · V^T. The input is not modified. It returns
// an error if the iteration fails to converge (practically impossible for
// the well-conditioned 4x4 matrices substitution models produce).
func jacobiEigen(a [][]float64) (values []float64, vectors [][]float64, err error) {
	n := len(a)
	// Working copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
		if len(a[i]) != n {
			return nil, nil, fmt.Errorf("likelihood: jacobi: matrix not square")
		}
	}
	v := identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-30 {
			values = make([]float64, n)
			for i := 0; i < n; i++ {
				values[i] = m[i][i]
			}
			return values, v, nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-300 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				tau := s / (1 + c)
				mpq := m[p][q]
				m[p][p] -= t * mpq
				m[q][q] += t * mpq
				m[p][q] = 0
				m[q][p] = 0
				for i := 0; i < n; i++ {
					if i != p && i != q {
						mip, miq := m[i][p], m[i][q]
						m[i][p] = mip - s*(miq+tau*mip)
						m[p][i] = m[i][p]
						m[i][q] = miq + s*(mip-tau*miq)
						m[q][i] = m[i][q]
					}
					vip, viq := v[i][p], v[i][q]
					v[i][p] = vip - s*(viq+tau*vip)
					v[i][q] = viq + s*(vip-tau*viq)
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("likelihood: jacobi failed to converge in %d sweeps", 100)
}

func identity(n int) [][]float64 {
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	return v
}
