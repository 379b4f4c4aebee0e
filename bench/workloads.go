package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/dprml"
	"repro/internal/dsearch"
	"repro/internal/likelihood"
	"repro/internal/phylo"
	"repro/internal/sched"
	"repro/internal/seq"
)

// donors is the load shape, stated once: a closed loop of two donors, each
// on its own control connection to a coordinator in the same process, over
// the loopback interface. A donor asks for its next unit only after it has
// returned the previous one.
const donors = 2

// scale sizes the inputs. full is what every reported number comes from:
// each round takes a little over two seconds on the two-core sandbox the
// baseline was measured on. tiny exists for the smoke test.
type scale struct {
	name      string
	minRounds int  // timed rounds per workload in an untraced run
	warmup    bool // one untimed round per workload first
	reps      int  // repetitions of each layer microbench

	coarseSeqs, coarseFamilies int // dsearch.coarse: background sequences, planted families (= queries)
	fineSeqs                   int // dsearch.fine-durable: background sequences
	drainUnits                 int // drain.tiny
	taxa, sites                int // dprml.staged

	microTaxa, microSites, microFolds, microBlob, microDirect int
}

var scales = map[string]*scale{
	"full": {
		name: "full", minRounds: 7, warmup: true, reps: 5,
		coarseSeqs: 1500, coarseFamilies: 8, fineSeqs: 20000, drainUnits: 170000, taxa: 17, sites: 540,
		microTaxa: 20, microSites: 1000, microFolds: 100000, microBlob: 8 << 20, microDirect: 20000,
	},
	"tiny": {
		name: "tiny", minRounds: 1, reps: 1,
		coarseSeqs: 120, coarseFamilies: 2, fineSeqs: 300, drainUnits: 3000, taxa: 6, sites: 120,
		microTaxa: 6, microSites: 100, microFolds: 2000, microBlob: 256 << 10, microDirect: 500,
	},
}

// workload is one set of inputs and the deployment options it runs under.
type workload struct {
	name string
	why  string
	// policy sizes units; durable and verify switch on the journal and
	// quorum spot-checking. Every other server and donor option is the
	// program's default (flat codec, batched long-poll dispatch,
	// content-addressed bulk).
	policy  sched.Policy
	durable bool
	verify  float64
	// build generates the inputs from the seed and assembles the problem.
	// It runs inside every round's set-up: it is what a user pays before
	// they can submit.
	build func(seed int64, sc *scale) (*instance, error)
}

// instance is one round's problem together with what is needed to judge its
// result. The program sees only instance.problem.
type instance struct {
	problem *dist.Problem
	// items is the workload's size in units of work that do not depend on
	// how the scheduler happened to cut it: database sequences searched,
	// candidate topologies evaluated, units drained. units_per_s is items
	// over the makespan, so on the two Fixed{1} workloads it is exactly
	// folded units per second.
	items int
	// check judges the final result without a reference: planted homologs
	// recovered, tree over the right taxa, every checksum verified.
	check func(result []byte) error
	// answer reduces the final result to what the oracle stores and
	// compares; nil when check alone is a complete verdict.
	answer func(result []byte) (answer, error)
}

var workloads = []*workload{
	{
		name:   "dsearch.coarse",
		why:    "Smith-Waterman search cut into ~35 adaptive units: internal/align does over 90% of the work, dist/wire/journal almost none.",
		policy: sched.Adaptive{Target: 125 * time.Millisecond, Bootstrap: 25000, Min: 5000},
		build: func(seed int64, sc *scale) (*instance, error) {
			return buildSearch("dsearch.coarse", seed, sc.coarseSeqs, sc.coarseFamilies, 4, 25,
				seq.LengthModel{Mean: 300, StdDev: 80, Min: 100, Max: 600})
		},
	},
	{
		name:   "dprml.staged",
		why:    "Stepwise-insertion ML tree, HKY85+G4: internal/likelihood does the work and every stage ends in a barrier that idles a donor.",
		policy: sched.Adaptive{Target: 100 * time.Millisecond, Bootstrap: 4000, Min: 1},
		build:  buildTree,
	},
	{
		name:   "drain.tiny",
		why:    "Units with no compute, one per dispatch: dist dispatch/lease/fold, the wire flat codec and sched are the whole cost.",
		policy: sched.Fixed{Size: 1},
		build:  buildDrain,
	},
	{
		name:    "dsearch.fine-durable",
		why:     "One ~60-residue sequence per unit with journal and 5% quorum verify on: typed codec, hit merge under the problem lock, journal appends.",
		policy:  sched.Fixed{Size: 1},
		durable: true,
		verify:  0.05,
		build: func(seed int64, sc *scale) (*instance, error) {
			return buildSearch("dsearch.fine-durable", seed, sc.fineSeqs, 2, 2, 5,
				seq.LengthModel{Mean: 60, StdDev: 10, Min: 40, Max: 90})
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildSearch makes a DSEARCH problem: a random protein database with
// planted homolog families, one member of each family as a query — the shape
// of seq.Generator.NewSearchWorkload, except that every family's ancestor has
// the model's mean length instead of a drawn one. The search costs database
// residues times query residues, and eight drawn query lengths move that
// product by ±9% from seed to seed; with fixed ones every seed is the same
// amount of work on different sequences. Low-complexity masking is on so
// that set-up is real work (both inputs are scanned) rather than timer noise.
func buildSearch(id string, seed int64, background, families, members, topK int, lm seq.LengthModel) (*instance, error) {
	gen := seq.NewGenerator(seq.Protein, seed)
	db := gen.RandomDatabase("bg", background, lm)
	queries := &seq.Database{}
	planted := make(map[string][]string)
	for f := range families {
		fam := gen.HomologFamily(fmt.Sprintf("fam%02d", f), members+1, int(lm.Mean), 0.10)
		query := fam.Seqs[members]
		query.ID = fmt.Sprintf("query%02d", f)
		queries.Seqs = append(queries.Seqs, query)
		for _, m := range fam.Seqs[:members] {
			db.Seqs = append(db.Seqs, m)
			planted[query.ID] = append(planted[query.ID], m.ID)
		}
	}
	// Planted members must not sit together at the end of the database,
	// where they would all land in the last unit.
	rand.New(rand.NewSource(seed)).Shuffle(len(db.Seqs), func(i, j int) {
		db.Seqs[i], db.Seqs[j] = db.Seqs[j], db.Seqs[i]
	})
	cfg := dsearch.DefaultConfig()
	cfg.TopK = topK
	cfg.MaskLowComplexity = true
	p, err := dsearch.NewProblem(id, db, queries, cfg)
	if err != nil {
		return nil, err
	}
	return &instance{
		problem: p,
		items:   db.Len(),
		check: func(result []byte) error {
			hits, err := dsearch.DecodeResult(result, topK)
			if err != nil {
				return err
			}
			for query, members := range planted {
				found := make(map[string]bool)
				for _, h := range hits.Query(query) {
					found[h.Subject] = true
				}
				for _, m := range members {
					if !found[m] {
						return fmt.Errorf("planted homolog %s is not in the top %d of %s", m, topK, query)
					}
				}
			}
			return nil
		},
		answer: func(result []byte) (answer, error) {
			hits, err := dsearch.DecodeResult(result, topK)
			if err != nil {
				return answer{}, err
			}
			h := sha256.New()
			for _, hit := range hits.All() {
				fmt.Fprintf(h, "%s\t%s\t%d\n", hit.Query, hit.Subject, hit.Score)
			}
			return answer{Digest: fmt.Sprintf("%x", h.Sum(nil))}, nil
		},
	}, nil
}

// treeSeed fixes the tree that dprml.staged's alignments are simulated down.
// The tree's shape and branch lengths set how long each branch optimisation
// runs, by ±10% from one random tree to the next; the run's seed draws the
// sites, so every seed is a different alignment of the same difficulty.
const treeSeed = 1

// simulated is an alignment drawn down the fixed random tree under HKY85
// with four gamma rate categories — the process the inference assumes.
type simulated struct {
	taxa  []string
	tree  *phylo.Tree
	model *likelihood.Model
	rates *likelihood.SiteRates
	aln   *seq.Alignment
}

func simulate(nTaxa, nSites int, seed int64) (s simulated, err error) {
	s.taxa = make([]string, nTaxa)
	for i := range s.taxa {
		s.taxa[i] = fmt.Sprintf("t%02d", i)
	}
	if s.tree, err = likelihood.RandomTree(s.taxa, 0.05, 0.3, treeSeed); err != nil {
		return s, err
	}
	if s.model, err = likelihood.NewHKY85(2, [4]float64{0.25, 0.25, 0.25, 0.25}); err != nil {
		return s, err
	}
	if s.rates, err = likelihood.DiscreteGamma(0.5, 4); err != nil {
		return s, err
	}
	s.aln, err = likelihood.Simulate(s.tree, s.model, s.rates, nSites, seed)
	return s, err
}

// buildTree makes a DPRml problem from a simulated alignment.
func buildTree(seed int64, sc *scale) (*instance, error) {
	sim, err := simulate(sc.taxa, sc.sites, seed)
	if err != nil {
		return nil, err
	}
	taxa, aln := sim.taxa, sim.aln
	// What a scientist does before submitting, as cmd/dprml -estimate does
	// it: fit the model's kappa, base frequencies and gamma shape on a
	// neighbour-joining tree. It is also what makes this workload's set-up
	// real work; without it set-up is 2 ms of socket handshakes.
	nj, err := phylo.NeighborJoining(phylo.AlignmentDistances(aln))
	if err != nil {
		return nil, err
	}
	kappa, _, err := likelihood.EstimateKappa(nj, aln, likelihood.EstimateKappaOptions{})
	if err != nil {
		return nil, err
	}
	pi := likelihood.EmpiricalFrequencies(aln)
	spec := fmt.Sprintf("HKY85:kappa=%.4f,piA=%.4f,piC=%.4f,piG=%.4f,piT=%.4f", kappa, pi[0], pi[1], pi[2], pi[3])
	fitted, err := likelihood.ModelByName(spec)
	if err != nil {
		return nil, err
	}
	alpha, _, err := likelihood.EstimateAlpha(nj, aln, fitted, 4, 1e-3)
	if err != nil {
		return nil, err
	}
	p, err := dprml.NewProblem("dprml.staged", aln, dprml.Options{
		Model: spec, GammaCategories: 4, GammaAlpha: alpha, LocalRounds: 1, FinalRounds: 1,
	})
	if err != nil {
		return nil, err
	}
	// The triplet warm-up and the final smoothing are one evaluation each;
	// inserting the k-th taxon evaluates the 2k-5 edges of the (k-1)-leaf tree.
	items := 2
	for k := 4; k <= sc.taxa; k++ {
		items += 2*k - 5
	}
	decode := func(result []byte) (answer, *phylo.Tree, error) {
		r, err := dprml.DecodeResult(result)
		if err != nil {
			return answer{}, nil, err
		}
		t, err := phylo.ParseNewick(r.Newick)
		return answer{LogL: r.LogL, Newick: r.Newick}, t, err
	}
	return &instance{
		problem: p,
		items:   items,
		check: func(result []byte) error {
			a, t, err := decode(result)
			if err != nil {
				return err
			}
			if got := strings.Join(t.LeafNames(), " "); got != strings.Join(taxa, " ") {
				return fmt.Errorf("tree is over taxa [%s], want [%s]", got, strings.Join(taxa, " "))
			}
			if math.IsNaN(a.LogL) || math.IsInf(a.LogL, 0) || a.LogL >= 0 {
				return fmt.Errorf("log-likelihood %v is not a finite negative number", a.LogL)
			}
			return nil
		},
		answer: func(result []byte) (answer, error) {
			a, _, err := decode(result)
			return a, err
		},
	}, nil
}

// drainAlgorithm is the benchmark's own donor-side computation.
const drainAlgorithm = "bench/drain"

const drainPayload = 64

func init() {
	dist.RegisterAlgorithm(drainAlgorithm, func() dist.Algorithm { return drainAlg{} })
}

// drainAlg answers a unit with the CRC-32 of its payload: as close to no
// compute as a checkable result allows.
type drainAlg struct{}

func (drainAlg) Init([]byte) error { return nil }

func (drainAlg) ProcessCtx(_ context.Context, payload []byte) ([]byte, error) {
	return binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)), nil
}

// drainDM hands out n units of 64 seeded bytes each, one per NextUnit
// whatever the budget, and verifies every result as it folds it.
type drainDM struct {
	payloads []byte
	n, next  int
	folded   []bool
	nFolded  int
}

func (d *drainDM) payload(unitID int64) []byte {
	return d.payloads[(unitID-1)*drainPayload : unitID*drainPayload]
}

func (d *drainDM) NextUnit(int64) (*dist.Unit, bool, error) {
	if d.next >= d.n {
		return nil, false, nil
	}
	d.next++
	id := int64(d.next)
	return &dist.Unit{ID: id, Algorithm: drainAlgorithm, Payload: d.payload(id), Cost: 1}, true, nil
}

func (d *drainDM) Consume(unitID int64, result []byte) error {
	if unitID < 1 || unitID > int64(d.n) {
		return fmt.Errorf("drain: result for unknown unit %d", unitID)
	}
	if d.folded[unitID-1] {
		return fmt.Errorf("drain: unit %d folded twice", unitID)
	}
	if len(result) != 4 || binary.LittleEndian.Uint32(result) != crc32.ChecksumIEEE(d.payload(unitID)) {
		return fmt.Errorf("drain: unit %d came back with the wrong checksum", unitID)
	}
	d.folded[unitID-1] = true
	d.nFolded++
	return nil
}

func (d *drainDM) Done() bool { return d.nFolded == d.n }

// FinalResult is the number of distinct units folded.
func (d *drainDM) FinalResult() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, uint64(d.nFolded)), nil
}

func buildDrain(seed int64, sc *scale) (*instance, error) {
	n := sc.drainUnits
	dm := &drainDM{payloads: make([]byte, n*drainPayload), n: n, folded: make([]bool, n)}
	rand.New(rand.NewSource(seed)).Read(dm.payloads)
	return &instance{
		problem: &dist.Problem{ID: "drain.tiny", DM: dm},
		items:   n,
		// Consume has already refused any wrong checksum and any second
		// fold, so n folds are n distinct, correct units.
		check: func(result []byte) error {
			if len(result) != 8 || binary.LittleEndian.Uint64(result) != uint64(n) {
				return fmt.Errorf("drain: final result %x, want %d units folded", result, n)
			}
			return nil
		},
	}, nil
}
