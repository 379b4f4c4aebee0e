package likelihood

import (
	"fmt"
	"math"

	"repro/internal/phylo"
)

// Branch length bounds used during optimisation. Zero-length branches are
// numerically hostile (zero transition probabilities off-diagonal), so the
// lower bound is a small epsilon.
const (
	MinBranchLength = 1e-8
	MaxBranchLength = 10.0
)

// brentMax maximises f on [a, b] with Brent's method (golden section with
// parabolic acceleration). Returns the argmax and the maximum. tol is the
// absolute x tolerance.
func brentMax(a, b float64, f func(float64) float64, tol float64, maxIter int) (float64, float64) {
	const gold = 0.3819660112501051
	x := a + gold*(b-a)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	var d, e float64
	for i := 0; i < maxIter; i++ {
		m := 0.5 * (a + b)
		tol1 := tol + 1e-10*math.Abs(x)
		tol2 := 2 * tol1
		if math.Abs(x-m) <= tol2-0.5*(b-a) {
			break
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Parabolic fit through x, v, w (on -f for maximisation).
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etmp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, m-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x < m {
				e = b - x
			} else {
				e = a - x
			}
			d = gold * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu >= fx {
			if u < x {
				b = x
			} else {
				a = x
			}
			v, w = w, x
			fv, fw = fw, fx
			x, fx = u, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu >= fw || w == x {
				v, fv = w, fw
				w, fw = u, fu
			} else if fu >= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return x, fx
}

// maximiseBranch maximises a branch's log-likelihood function, as
// edgeFunc returns it, over the branch-length bounds with Brent's method.
// It returns the best length and its log-likelihood, or the first error a
// step met.
func maximiseBranch(logL func(x float64) (float64, error), tol float64) (float64, float64, error) {
	var evalErr error
	f := func(x float64) float64 {
		ll, err := logL(x)
		if err != nil {
			evalErr = err
			return math.Inf(-1)
		}
		return ll
	}
	best, bestLL := brentMax(MinBranchLength, MaxBranchLength, f, tol, 100)
	return best, bestLL, evalErr
}

// OptimizeBranch maximises the tree log-likelihood over the length of a
// single branch (identified by its child node), holding everything else
// fixed. Each Brent step scores the branch from the two partials either
// side of it (edgeLogLikelihood), not from a pass over the tree. The
// branch's length is written only on success. Returns the new
// log-likelihood.
func (e *Evaluator) OptimizeBranch(t *phylo.Tree, n *phylo.Node, tol float64) (float64, error) {
	if n.Parent == nil {
		return 0, fmt.Errorf("likelihood: cannot optimise the root's parent edge")
	}
	logL, err := e.edgeLogLikelihood(t, n)
	if err != nil {
		return 0, err
	}
	best, bestLL, err := maximiseBranch(logL, tol)
	if err != nil {
		return 0, err
	}
	n.Length = best
	return bestLL, nil
}

// OptimizeBranchLengths runs `rounds` passes of per-branch Brent
// optimisation over every edge of the tree and returns the final
// log-likelihood. This is the full smoothing pass fastDNAml applies after
// each insertion stage. The down pass runs once: a new length changes only
// the down partials of the branch's ancestors, so those are recomputed, in
// the same order, before the next edge, and every edge sees the partials
// a whole-tree pass would give it.
func (e *Evaluator) OptimizeBranchLengths(t *phylo.Tree, rounds int, tol float64) (float64, error) {
	edges := t.Edges()
	if rounds <= 0 || len(edges) == 0 {
		return e.LogLikelihood(t)
	}
	if err := e.down(t); err != nil {
		return 0, err
	}
	ll := math.Inf(-1)
	for r := 0; r < rounds; r++ {
		prev := ll
		for _, edge := range edges {
			n := edge.Child
			best, bestLL, err := maximiseBranch(e.branchLogLikelihood(n), tol)
			if err != nil {
				return 0, err
			}
			n.Length, ll = best, bestLL
			for v := n.Parent; v != nil; v = v.Parent {
				e.downNode(v)
			}
			e.forgetViews()
		}
		if !math.IsInf(prev, -1) && ll-prev < 1e-4 {
			break
		}
	}
	return ll, nil
}
