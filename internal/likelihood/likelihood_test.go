package likelihood

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/phylo"
	"repro/internal/seq"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

// matMul returns a·b for dense square matrices.
func matMul(a, b [][]float64) [][]float64 {
	n := len(a)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			aik := a[i][k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i][j] += aik * b[k][j]
			}
		}
	}
	return out
}

func TestJacobiReconstruction(t *testing.T) {
	a := [][]float64{
		{4, 1, 0.5, 0},
		{1, 3, 0.2, 0.1},
		{0.5, 0.2, 2, 0.3},
		{0, 0.1, 0.3, 1},
	}
	vals, vecs, err := jacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct V diag(vals) V^T.
	n := len(a)
	lam := identity(n)
	for i := 0; i < n; i++ {
		lam[i][i] = vals[i]
	}
	vt := identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vt[i][j] = vecs[j][i]
		}
	}
	r := matMul(matMul(vecs, lam), vt)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			approx(t, r[i][j], a[i][j], 1e-10, "reconstruction")
		}
	}
	// Orthogonality.
	vv := matMul(vt, vecs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			approx(t, vv[i][j], want, 1e-10, "orthogonality")
		}
	}
}

func allModels(t *testing.T) []*Model {
	t.Helper()
	pi := [4]float64{0.3, 0.2, 0.2, 0.3}
	k80, err := NewK80(2.5)
	if err != nil {
		t.Fatal(err)
	}
	f81, err := NewF81(pi)
	if err != nil {
		t.Fatal(err)
	}
	f84, err := NewF84(1.5, pi)
	if err != nil {
		t.Fatal(err)
	}
	hky, err := NewHKY85(2.0, pi)
	if err != nil {
		t.Fatal(err)
	}
	tn93, err := NewTN93(2.0, 3.0, pi)
	if err != nil {
		t.Fatal(err)
	}
	gtr, err := NewGTR([6]float64{1, 2, 0.5, 0.8, 3, 1.2}, pi)
	if err != nil {
		t.Fatal(err)
	}
	return []*Model{NewJC69(), k80, f81, f84, hky, tn93, gtr}
}

func TestTransitionMatrixProperties(t *testing.T) {
	var p, p1, p2, p12 [NStates][NStates]float64
	for _, m := range allModels(t) {
		// P(0) = I.
		m.TransitionMatrix(0, &p)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				approx(t, p[i][j], want, 1e-10, m.Name+" P(0)")
			}
		}
		// Rows sum to 1, entries non-negative, for several t.
		for _, tv := range []float64{0.01, 0.1, 0.5, 2, 10} {
			m.TransitionMatrix(tv, &p)
			for i := 0; i < 4; i++ {
				row := 0.0
				for j := 0; j < 4; j++ {
					if p[i][j] < 0 {
						t.Errorf("%s: P(%g)[%d][%d] = %g < 0", m.Name, tv, i, j, p[i][j])
					}
					row += p[i][j]
				}
				approx(t, row, 1, 1e-9, m.Name+" row sum")
			}
			// Detailed balance: pi_i P_ij = pi_j P_ji.
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					approx(t, m.Pi[i]*p[i][j], m.Pi[j]*p[j][i], 1e-10, m.Name+" detailed balance")
				}
			}
		}
		// Chapman–Kolmogorov: P(0.3)·P(0.5) = P(0.8).
		m.TransitionMatrix(0.3, &p1)
		m.TransitionMatrix(0.5, &p2)
		m.TransitionMatrix(0.8, &p12)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				sum := 0.0
				for k := 0; k < 4; k++ {
					sum += p1[i][k] * p2[k][j]
				}
				approx(t, sum, p12[i][j], 1e-9, m.Name+" Chapman-Kolmogorov")
			}
		}
		// P(large t) rows converge to Pi.
		m.TransitionMatrix(500, &p)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				approx(t, p[i][j], m.Pi[j], 1e-6, m.Name+" equilibrium")
			}
		}
	}
}

func TestJC69Analytic(t *testing.T) {
	m := NewJC69()
	var p [NStates][NStates]float64
	for _, tv := range []float64{0.05, 0.2, 1.0} {
		m.TransitionMatrix(tv, &p)
		e := math.Exp(-4.0 * tv / 3.0)
		same := 0.25 + 0.75*e
		diff := 0.25 - 0.25*e
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := diff
				if i == j {
					want = same
				}
				approx(t, p[i][j], want, 1e-10, "JC69 analytic")
			}
		}
	}
}

func TestK80Analytic(t *testing.T) {
	kappa := 2.0
	m, err := NewK80(kappa)
	if err != nil {
		t.Fatal(err)
	}
	// K80 with mean rate 1: in the standard alpha/beta parameterisation
	// alpha = kappa*beta and 2*beta + ... mean rate = (kappa + 2)/4 * 4beta?
	// Use the textbook closed form with d = t (expected substitutions):
	// P(transition) = 1/4 + 1/4 exp(-4d/(kappa+2)) - 1/2 exp(-2d(kappa+1)/(kappa+2))
	var p [NStates][NStates]float64
	for _, d := range []float64{0.1, 0.5, 1.5} {
		m.TransitionMatrix(d, &p)
		e1 := math.Exp(-4 * d / (kappa + 2))
		e2 := math.Exp(-2 * d * (kappa + 1) / (kappa + 2))
		pSame := 0.25 + 0.25*e1 + 0.5*e2
		pTransition := 0.25 + 0.25*e1 - 0.5*e2
		pTransversion := 0.25 - 0.25*e1
		approx(t, p[0][0], pSame, 1e-10, "K80 identity")
		approx(t, p[0][2], pTransition, 1e-10, "K80 transition A->G")
		approx(t, p[0][1], pTransversion, 1e-10, "K80 transversion A->C")
		approx(t, p[0][3], pTransversion, 1e-10, "K80 transversion A->T")
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewK80(-1); err == nil {
		t.Error("negative kappa accepted")
	}
	if _, err := NewF81([4]float64{0, 0.5, 0.25, 0.25}); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := NewGTR([6]float64{1, 1, 1, 1, 1, 0}, uniformPi); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewTN93(1, -2, uniformPi); err == nil {
		t.Error("negative kappaY accepted")
	}
}

func TestModelByName(t *testing.T) {
	cases := []string{
		"JC69", "K80:kappa=3", "F81:piA=0.4,piC=0.1,piG=0.1,piT=0.4",
		"HKY85:kappa=2,piA=0.3,piC=0.2,piG=0.2,piT=0.3",
		"F84:k=1.2", "TN93:kappaR=2,kappaY=4", "GTR:ac=1,ag=3,at=0.5,cg=0.7,ct=3.1,gt=1",
	}
	for _, c := range cases {
		m, err := ModelByName(c)
		if err != nil {
			t.Errorf("ModelByName(%q): %v", c, err)
			continue
		}
		var p [NStates][NStates]float64
		m.TransitionMatrix(0.5, &p)
		for i := 0; i < 4; i++ {
			row := 0.0
			for j := 0; j < 4; j++ {
				row += p[i][j]
			}
			approx(t, row, 1, 1e-9, c+" row sum")
		}
	}
	for _, bad := range []string{"WAG", "K80:kappa", "K80:kappa=x"} {
		if _, err := ModelByName(bad); err == nil {
			t.Errorf("ModelByName(%q) accepted", bad)
		}
	}
}

func TestIncompleteGamma(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		approx(t, regIncGammaLower(1, x), 1-math.Exp(-x), 1e-12, "P(1,x)")
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.1, 0.5, 1, 2} {
		approx(t, regIncGammaLower(0.5, x), math.Erf(math.Sqrt(x)), 1e-10, "P(0.5,x)")
	}
	if v := regIncGammaLower(2, 0); v != 0 {
		t.Errorf("P(a,0) = %g", v)
	}
}

func TestGammaQuantile(t *testing.T) {
	// Exponential(1) quantiles: -ln(1-p).
	for _, p := range []float64{0.1, 0.5, 0.9} {
		q, err := gammaQuantile(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, q, -math.Log(1-p), 1e-8, "exp quantile")
	}
	if _, err := gammaQuantile(0, 1, 1); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestDiscreteGammaKnownValues(t *testing.T) {
	// PAML's canonical example: alpha=0.5, 4 categories (mean method).
	sr, err := DiscreteGamma(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.033388, 0.251916, 0.820268, 2.894428}
	for i := range want {
		approx(t, sr.Rates[i], want[i], 1e-4, "PAML alpha=0.5 k=4")
	}
}

func TestDiscreteGammaProperties(t *testing.T) {
	for _, alpha := range []float64{0.2, 0.5, 1, 2, 10} {
		for _, k := range []int{1, 2, 4, 8} {
			sr, err := DiscreteGamma(alpha, k)
			if err != nil {
				t.Fatal(err)
			}
			if sr.NCategories() != k {
				t.Fatalf("NCategories = %d, want %d", sr.NCategories(), k)
			}
			mean := 0.0
			for i, r := range sr.Rates {
				if r < 0 {
					t.Errorf("alpha=%g k=%d: negative rate %g", alpha, k, r)
				}
				if i > 0 && r < sr.Rates[i-1] {
					t.Errorf("alpha=%g k=%d: rates not increasing", alpha, k)
				}
				mean += r
			}
			mean /= float64(k)
			approx(t, mean, 1, 1e-9, "rate mean")
		}
	}
	// Large alpha => nearly uniform rates.
	sr, _ := DiscreteGamma(1000, 4)
	for _, r := range sr.Rates {
		approx(t, r, 1, 0.05, "large-alpha rates")
	}
	if _, err := DiscreteGamma(-1, 4); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := DiscreteGamma(1, 0); err == nil {
		t.Error("zero categories accepted")
	}
}

func mustAlignment(t *testing.T, rows ...*seq.Sequence) *seq.Alignment {
	t.Helper()
	a, err := seq.NewAlignment(rows)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCompress(t *testing.T) {
	a := mustAlignment(t,
		seq.NewSequence("x", "AACGA"),
		seq.NewSequence("y", "AACTA"),
	)
	c := Compress(a)
	// Columns: AA, AA, CC, GT, AA -> patterns AA (w=3), CC, GT.
	if c.NPatterns() != 3 {
		t.Fatalf("NPatterns = %d, want 3", c.NPatterns())
	}
	total := 0
	for _, w := range c.Weights {
		total += w
	}
	if total != 5 {
		t.Errorf("weights sum to %d, want 5", total)
	}
	if c.TaxonIndex("y") != 1 || c.TaxonIndex("zz") != -1 {
		t.Error("TaxonIndex wrong")
	}
}

func TestStateMask(t *testing.T) {
	cases := map[byte]uint8{
		'A': 1, 'c': 2, 'G': 4, 't': 8, 'U': 8,
		'R': 5, 'N': 15, '-': 15, 'Z': 15,
	}
	for b, want := range cases {
		if got := StateMask(b); got != want {
			t.Errorf("StateMask(%q) = %d, want %d", b, got, want)
		}
	}
}

// twoTaxonAnalyticLL computes the exact two-taxon log likelihood:
// sum over sites of log( pi_a * P_{ab}(t1+t2) ) by reversibility.
func twoTaxonAnalyticLL(m *Model, a, b []byte, t1, t2 float64) float64 {
	var p [NStates][NStates]float64
	m.TransitionMatrix(t1+t2, &p)
	ll := 0.0
	for i := range a {
		x, y := StateIndex(a[i]), StateIndex(b[i])
		ll += math.Log(m.Pi[x] * p[x][y])
	}
	return ll
}

func TestPruningTwoTaxonAnalytic(t *testing.T) {
	// Tree (A:0.1,B:0.15); against closed form.
	aln := mustAlignment(t,
		seq.NewSequence("A", "ACGTACGTGGCA"),
		seq.NewSequence("B", "ACGAACGTGCCA"),
	)
	for _, m := range allModels(t) {
		e, err := NewEvaluator(m, UniformRates(), Compress(aln))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := phylo.ParseNewick("(A:0.1,B:0.15);")
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.LogLikelihood(tree)
		if err != nil {
			t.Fatal(err)
		}
		want := twoTaxonAnalyticLL(m, aln.Rows[0].Residues, aln.Rows[1].Residues, 0.1, 0.15)
		approx(t, got, want, 1e-9, m.Name+" two-taxon LL")
	}
}

func TestPruningRerootingInvariance(t *testing.T) {
	// The likelihood of a reversible model must not depend on root
	// placement. Same unrooted tree, three rootings.
	g := seq.NewGenerator(seq.DNA, 17)
	tree, err := RandomTree([]string{"A", "B", "C", "D", "E"}, 0.05, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewHKY85(2, [4]float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := DiscreteGamma(0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	aln, err := Simulate(tree, m, rates, 400, 99)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	e, err := NewEvaluator(m, rates, Compress(aln))
	if err != nil {
		t.Fatal(err)
	}

	rootings := []string{
		"((A:0.1,B:0.2):0.05,(C:0.15,D:0.1):0.1,E:0.3);",
		"(A:0.1,B:0.2,((C:0.15,D:0.1):0.1,E:0.3):0.05);",
		// Same unrooted shape rooted on the E branch with split lengths.
		"(((A:0.1,B:0.2):0.05,(C:0.15,D:0.1):0.1):0.12,E:0.18);",
	}
	var lls []float64
	for _, nw := range rootings {
		tr, err := phylo.ParseNewick(nw)
		if err != nil {
			t.Fatal(err)
		}
		ll, err := e.LogLikelihood(tr)
		if err != nil {
			t.Fatal(err)
		}
		lls = append(lls, ll)
	}
	approx(t, lls[1], lls[0], 1e-8, "rerooting invariance (trifurcation move)")
	approx(t, lls[2], lls[0], 1e-8, "rerooting invariance (edge split)")
}

func TestPruningGammaVsUniform(t *testing.T) {
	// With a single category DiscreteGamma must equal UniformRates exactly.
	aln := mustAlignment(t,
		seq.NewSequence("A", "ACGTACGTGGCAATTC"),
		seq.NewSequence("B", "ACGAACGTGCCAATTC"),
		seq.NewSequence("C", "TCGAACGAGCCAATGC"),
	)
	m := NewJC69()
	tree, err := phylo.ParseNewick("(A:0.1,B:0.1,C:0.2);")
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := NewEvaluator(m, UniformRates(), Compress(aln))
	g1, err := DiscreteGamma(1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := NewEvaluator(m, g1, Compress(aln))
	ll1, err := e1.LogLikelihood(tree)
	if err != nil {
		t.Fatal(err)
	}
	ll2, err := e2.LogLikelihood(tree)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ll2, ll1, 1e-12, "1-category gamma == uniform")
}

func TestPruningMissingTaxon(t *testing.T) {
	aln := mustAlignment(t,
		seq.NewSequence("A", "ACGT"),
		seq.NewSequence("B", "ACGT"),
	)
	e, _ := NewEvaluator(NewJC69(), UniformRates(), Compress(aln))
	tree, _ := phylo.ParseNewick("(A:0.1,Z:0.1);")
	if _, err := e.LogLikelihood(tree); err == nil {
		t.Error("missing taxon accepted")
	}
}

func TestScalingLongTrees(t *testing.T) {
	// Deep caterpillar tree with many taxa: unscaled likelihoods would
	// underflow; scaled computation must stay finite.
	n := 40
	taxa := make([]string, n)
	for i := range taxa {
		taxa[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	tree, err := RandomTree(taxa, 0.4, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := NewJC69()
	aln, err := Simulate(tree, m, UniformRates(), 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEvaluator(m, UniformRates(), Compress(aln))
	ll, err := e.LogLikelihood(tree)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("LL not finite: %g", ll)
	}
	if ll >= 0 {
		t.Fatalf("LL = %g, want negative", ll)
	}
}

func TestBrentMax(t *testing.T) {
	// Simple concave function with known maximum.
	x, fx := brentMax(0, 10, func(x float64) float64 { return -(x - 3.7) * (x - 3.7) }, 1e-9, 200)
	approx(t, x, 3.7, 1e-6, "brent argmax")
	approx(t, fx, 0, 1e-10, "brent max")
	// Maximum at boundary.
	x, _ = brentMax(0, 1, func(x float64) float64 { return x }, 1e-9, 200)
	approx(t, x, 1, 1e-6, "boundary max")
}

func TestOptimizeBranchRecoverstruth(t *testing.T) {
	// Simulate a long two-taxon alignment with known divergence and check
	// the optimised branch length sums to roughly the truth.
	trueT := 0.2
	tree, err := phylo.ParseNewick("(A:0.1,B:0.1);")
	if err != nil {
		t.Fatal(err)
	}
	m := NewJC69()
	aln, err := Simulate(tree, m, UniformRates(), 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEvaluator(m, UniformRates(), Compress(aln))
	// Start from a wrong guess.
	work, _ := phylo.ParseNewick("(A:0.5,B:0.5);")
	ll0, err := e.LogLikelihood(work)
	if err != nil {
		t.Fatal(err)
	}
	ll1, err := e.OptimizeBranchLengths(work, 4, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if ll1 < ll0 {
		t.Fatalf("optimisation decreased LL: %g -> %g", ll0, ll1)
	}
	total := work.TotalLength()
	if math.Abs(total-trueT) > 0.03 {
		t.Errorf("recovered divergence %g, want ~%g", total, trueT)
	}
}

func TestMLPrefersTrueTopologyFourTaxa(t *testing.T) {
	// Generate data on ((A,B),(C,D)) with short internal branch and check
	// ML scores it above the two alternatives.
	truth, err := phylo.ParseNewick("((A:0.1,B:0.1):0.15,(C:0.1,D:0.1):0.0);")
	if err != nil {
		t.Fatal(err)
	}
	// Use a cleaner truth tree: trifurcating root.
	truth, err = phylo.ParseNewick("((A:0.1,B:0.1):0.15,C:0.1,D:0.1);")
	if err != nil {
		t.Fatal(err)
	}
	m := NewJC69()
	aln, err := Simulate(truth, m, UniformRates(), 2000, 12)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEvaluator(m, UniformRates(), Compress(aln))
	topologies := map[string]string{
		"AB|CD": "((A:0.1,B:0.1):0.1,C:0.1,D:0.1);",
		"AC|BD": "((A:0.1,C:0.1):0.1,B:0.1,D:0.1);",
		"AD|BC": "((A:0.1,D:0.1):0.1,B:0.1,C:0.1);",
	}
	lls := map[string]float64{}
	for name, nw := range topologies {
		tr, err := phylo.ParseNewick(nw)
		if err != nil {
			t.Fatal(err)
		}
		ll, err := e.OptimizeBranchLengths(tr, 3, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		lls[name] = ll
	}
	if lls["AB|CD"] <= lls["AC|BD"] || lls["AB|CD"] <= lls["AD|BC"] {
		t.Errorf("true topology not preferred: %v", lls)
	}
}

func TestSimulateProperties(t *testing.T) {
	tree, err := RandomTree([]string{"A", "B", "C", "D", "E", "F"}, 0.05, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewHKY85(2, [4]float64{0.4, 0.1, 0.1, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Simulate(tree, m, UniformRates(), 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Simulate(tree, m, UniformRates(), 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a1.NTaxa() != 6 || a1.NSites() != 1000 {
		t.Fatalf("bad alignment shape %dx%d", a1.NTaxa(), a1.NSites())
	}
	for i := range a1.Rows {
		if string(a1.Rows[i].Residues) != string(a2.Rows[i].Residues) {
			t.Fatal("same seed produced different alignments")
		}
	}
	// Base composition near equilibrium (generous tolerance).
	counts := [4]int{}
	total := 0
	for _, r := range a1.Rows {
		for _, b := range r.Residues {
			counts[StateIndex(b)]++
			total++
		}
	}
	for i, c := range counts {
		got := float64(c) / float64(total)
		if math.Abs(got-m.Pi[i]) > 0.05 {
			t.Errorf("base %d frequency %g far from pi %g", i, got, m.Pi[i])
		}
	}
}

func TestRandomTreeProperties(t *testing.T) {
	taxa := []string{"a", "b", "c", "d", "e", "f", "g"}
	tr, err := RandomTree(taxa, 0.1, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NLeaves() != 7 {
		t.Fatalf("%d leaves", tr.NLeaves())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := RandomTree([]string{"a"}, 0.1, 0.2, 5); err == nil {
		t.Error("RandomTree with 1 taxon accepted")
	}
}

// optimizeBranchReference is the per-step branch optimisation that
// OptimizeBranch replaced: every Brent step writes the candidate length into
// the tree and re-runs the whole pruning pass. It pins OptimizeBranch's
// optimum; unlike OptimizeBranch, it leaves a probed length behind on error.
func optimizeBranchReference(e *Evaluator, t *phylo.Tree, n *phylo.Node, tol float64) (float64, error) {
	if n.Parent == nil {
		return 0, fmt.Errorf("likelihood: cannot optimise the root's parent edge")
	}
	var evalErr error
	f := func(x float64) float64 {
		n.Length = x
		ll, err := e.LogLikelihood(t)
		if err != nil {
			evalErr = err
			return math.Inf(-1)
		}
		return ll
	}
	best, bestLL := brentMax(MinBranchLength, MaxBranchLength, f, tol, 100)
	if evalErr != nil {
		return 0, evalErr
	}
	n.Length = best
	return bestLL, nil
}

// optimizeBranchLengthsReference is the smoothing pass OptimizeBranchLengths
// replaced: every edge's OptimizeBranch re-runs the whole down pass.
func optimizeBranchLengthsReference(e *Evaluator, t *phylo.Tree, rounds int, tol float64) (float64, error) {
	ll := math.Inf(-1)
	for r := 0; r < rounds; r++ {
		prev := ll
		for _, edge := range t.Edges() {
			var err error
			if ll, err = e.OptimizeBranch(t, edge.Child, tol); err != nil {
				return 0, err
			}
		}
		if !math.IsInf(prev, -1) && ll-prev < 1e-4 {
			break
		}
	}
	return ll, nil
}

// edgeModels are the substitution models the edge closed form is checked
// under, from equal rates and frequencies to six rates and skewed ones.
func edgeModels(t *testing.T) []*Model {
	var out []*Model
	for _, m := range allModels(t) {
		if m.Name == "JC69" || m.Name == "HKY85" || m.Name == "GTR" {
			out = append(out, m)
		}
	}
	return out
}

// edgeFixture simulates nSites columns down a random tree of nTaxa leaves
// and returns the tree with two evaluators over the data: one for the edge
// closed form, one for the whole-tree traversal it is checked against.
func edgeFixture(tb testing.TB, m *Model, rates *SiteRates, nTaxa, nSites int, minLen, maxLen float64, seed int64) (*phylo.Tree, *Evaluator, *Evaluator) {
	tb.Helper()
	taxa := make([]string, nTaxa)
	for i := range taxa {
		taxa[i] = fmt.Sprintf("t%03d", i)
	}
	tree, err := RandomTree(taxa, minLen, maxLen, seed)
	if err != nil {
		tb.Fatal(err)
	}
	aln, err := Simulate(tree, m, rates, nSites, seed)
	if err != nil {
		tb.Fatal(err)
	}
	data := Compress(aln)
	e, err := NewEvaluator(m, rates, data)
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := NewEvaluator(m, rates, data)
	if err != nil {
		tb.Fatal(err)
	}
	return tree, e, ref
}

// checkEdge compares the closed form for n's branch at each length in xs
// against LogLikelihood with n.Length set to it, at 1e-9 relative.
func checkEdge(tb testing.TB, e, ref *Evaluator, tree *phylo.Tree, n *phylo.Node, xs []float64) {
	tb.Helper()
	logL, err := e.edgeLogLikelihood(tree, n)
	if err != nil {
		tb.Fatal(err)
	}
	orig := n.Length
	defer func() { n.Length = orig }()
	for _, x := range xs {
		got, err := logL(x)
		if err != nil {
			tb.Fatalf("edge above node %d at %g: %v", n.ID, x, err)
		}
		n.Length = x
		want, err := ref.LogLikelihood(tree)
		if err != nil {
			tb.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			tb.Errorf("edge above node %d at %g: closed form %.12g, traversal %.12g", n.ID, x, got, want)
		}
	}
}

// rateSettings are the rate models the edge tests cover.
func rateSettings(tb testing.TB) map[string]*SiteRates {
	tb.Helper()
	g4, err := DiscreteGamma(0.5, 4)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*SiteRates{"uniform": UniformRates(), "gamma4": g4}
}

// TestEdgeLogLikelihoodMatchesTraversal checks the closed form a Brent step
// evaluates against a whole-tree pruning pass, on every edge of a random
// tree, and on a long-branch tree where numerical rescaling fires on both
// sides of the edge.
func TestEdgeLogLikelihoodMatchesTraversal(t *testing.T) {
	xs := []float64{MinBranchLength, 1e-3, 0.1, 1, MaxBranchLength}
	for _, m := range edgeModels(t) {
		for rname, rates := range rateSettings(t) {
			t.Run(m.Name+"/"+rname, func(t *testing.T) {
				tree, e, ref := edgeFixture(t, m, rates, 9, 200, 0.02, 0.4, 11)
				seen := map[string]bool{}
				for _, edge := range tree.Edges() {
					n := edge.Child
					depth := 0
					for v := n; v.Parent != nil; v = v.Parent {
						depth++
					}
					switch {
					case depth == 1:
						seen["root-adjacent"] = true
					case n.IsLeaf():
						seen["leaf"] = true
					case depth >= 3:
						seen["deep internal"] = true
					}
					checkEdge(t, e, ref, tree, n, xs)
				}
				if len(seen) != 3 {
					t.Fatalf("edge kinds covered: %v", seen)
				}

				// 400 taxa on long branches: partials of ~150 or more
				// leaves fall below scaleThreshold. The edge closest to
				// splitting the leaves in half has rescaled partials on
				// both sides.
				long, e, ref := edgeFixture(t, m, rates, 400, 20, 0.4, 0.9, 7)
				leaves := map[*phylo.Node]int{}
				long.WalkPost(func(n *phylo.Node) {
					leaves[n] = 1
					if !n.IsLeaf() {
						leaves[n] = 0
						for _, c := range n.Children {
							leaves[n] += leaves[c]
						}
					}
				})
				var mid *phylo.Node
				for _, edge := range long.Edges() {
					if mid == nil || math.Abs(float64(leaves[edge.Child]-200)) < math.Abs(float64(leaves[mid]-200)) {
						mid = edge.Child
					}
				}
				checkEdge(t, e, ref, long, mid, xs)
				rescaled := func(scale []float64) bool {
					for _, v := range scale {
						if v != 0 {
							return true
						}
					}
					return false
				}
				upScale := make([]float64, len(e.edgeScale))
				for p := range upScale {
					upScale[p] = e.edgeScale[p] - e.scale[mid.ID][p]
				}
				if !rescaled(e.scale[mid.ID]) || !rescaled(upScale) {
					t.Fatalf("edge above a %d-leaf subtree: rescaled below %v, above %v", leaves[mid], rescaled(e.scale[mid.ID]), rescaled(upScale))
				}
			})
		}
	}
}

// TestOptimizeBranchMatchesReference optimises every branch of a random
// tree both ways, from the same starting lengths.
func TestOptimizeBranchMatchesReference(t *testing.T) {
	const tol = 1e-6
	for _, m := range edgeModels(t) {
		for rname, rates := range rateSettings(t) {
			t.Run(m.Name+"/"+rname, func(t *testing.T) {
				tree, e, ref := edgeFixture(t, m, rates, 8, 300, 0.02, 0.4, 5)
				for i := range tree.Edges() {
					a, b := tree.Clone(), tree.Clone()
					na, nb := a.Edges()[i].Child, b.Edges()[i].Child
					got, err := e.OptimizeBranch(a, na, tol)
					if err != nil {
						t.Fatal(err)
					}
					want, err := optimizeBranchReference(ref, b, nb, tol)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got-want) > 1e-6*math.Abs(want) {
						t.Errorf("edge %d: logL %.10g, reference %.10g", i, got, want)
					}
					if math.Abs(na.Length-nb.Length) > 10*tol {
						t.Errorf("edge %d: length %.10g, reference %.10g", i, na.Length, nb.Length)
					}
				}
			})
		}
	}
}

// TestOptimizeBranchLengthsMatchesReference smooths random trees, rooted
// on a trifurcation and on a bifurcation, with the ancestor-only update and
// with a whole-tree pass per edge: the log-likelihood and every length must
// be bit-identical.
func TestOptimizeBranchLengthsMatchesReference(t *testing.T) {
	for _, m := range edgeModels(t) {
		for rname, rates := range rateSettings(t) {
			t.Run(m.Name+"/"+rname, func(t *testing.T) {
				tree, e, ref := edgeFixture(t, m, rates, 9, 200, 0.02, 0.4, 13)
				rooted, err := phylo.ParseNewick("((t000:0.1,(t001:0.2,t002:0.05):0.3):0.2,((t003:0.1,t004:0.4):0.1,t005:0.2):0.15);")
				if err != nil {
					t.Fatal(err)
				}
				for _, host := range []*phylo.Tree{tree, rooted} {
					for _, rounds := range []int{1, 3} {
						a, b := host.Clone(), host.Clone()
						got, err := e.OptimizeBranchLengths(a, rounds, 1e-5)
						if err != nil {
							t.Fatal(err)
						}
						want, err := optimizeBranchLengthsReference(ref, b, rounds, 1e-5)
						if err != nil {
							t.Fatal(err)
						}
						if got != want || a.String() != b.String() {
							t.Errorf("%d rounds: logL %v, tree %s; reference %v, %s", rounds, got, a, want, b)
						}
					}
				}
			})
		}
	}
}

// FuzzEdgeLogLikelihood checks the edge closed form against the traversal
// for a fuzzed tree, model, rate setting, edge and branch length.
func FuzzEdgeLogLikelihood(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), 0.1)
	f.Add(int64(2), uint8(12), uint8(4), 1e-3)
	f.Add(int64(3), uint8(0), uint8(5), 10.0)
	f.Fuzz(func(t *testing.T, seed int64, taxa, model uint8, x float64) {
		if math.IsNaN(x) {
			t.Skip()
		}
		x = min(max(math.Abs(x), MinBranchLength), MaxBranchLength)
		rates := UniformRates()
		if model/3%2 == 1 {
			rates = rateSettings(t)["gamma4"]
		}
		tree, e, ref := edgeFixture(t, edgeModels(t)[model%3], rates, 3+int(taxa)%14, 60, 0.01, 1, seed)
		edges := tree.Edges()
		n := edges[int(uint64(seed)%uint64(len(edges)))].Child
		checkEdge(t, e, ref, tree, n, []float64{x})
	})
}

// TestZeroPassOptimisationReturnsLogLikelihood: an optimisation that
// optimises no branch returns the tree's log-likelihood, not a placeholder.
func TestZeroPassOptimisationReturnsLogLikelihood(t *testing.T) {
	tree, e, _ := edgeFixture(t, NewJC69(), UniformRates(), 5, 300, 0.05, 0.3, 3)
	want, err := e.LogLikelihood(tree)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.OptimizeBranchLengths(tree, 0, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("zero rounds: got %g, want the tree's log-likelihood %g", got, want)
	}
}

// TestFailedOptimizeBranchLeavesLengths: when a branch cannot be scored
// (here a leaf has no alignment row), OptimizeBranch errors and leaves
// every branch length as it was.
func TestFailedOptimizeBranchLeavesLengths(t *testing.T) {
	aln := mustAlignment(t,
		seq.NewSequence("A", "ACGTACGTAA"),
		seq.NewSequence("B", "ACGTACGTTA"),
		seq.NewSequence("C", "ACGAACGTAC"),
	)
	e, err := NewEvaluator(NewJC69(), UniformRates(), Compress(aln))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := phylo.ParseNewick("((A:0.1,B:0.2):0.3,C:0.4,Z:0.5);")
	if err != nil {
		t.Fatal(err)
	}
	lengths := map[*phylo.Node]float64{}
	tree.Walk(func(n *phylo.Node) { lengths[n] = n.Length })
	for _, edge := range tree.Edges() {
		if _, err := e.OptimizeBranch(tree, edge.Child, 1e-4); err == nil {
			t.Fatalf("edge above %q: optimised a tree with an unknown leaf", edge.Child.Name)
		}
		for n, l := range lengths {
			if n.Length != l {
				t.Fatalf("edge above %q: a failed optimisation changed a length %g -> %g", edge.Child.Name, l, n.Length)
			}
		}
	}
}
