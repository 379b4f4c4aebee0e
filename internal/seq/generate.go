package seq

import (
	"fmt"
	"math/rand"
)

// Generator produces deterministic synthetic sequence data. It substitutes
// for the genomic databases (EMBL/GenBank extracts) used in the paper's
// evaluation: alignment cost depends only on sequence lengths and database
// size, so seeded synthetic data exercises the same code paths.
type Generator struct {
	rng      *rand.Rand
	alphabet *Alphabet
}

// NewGenerator creates a generator over the alphabet with a fixed seed.
func NewGenerator(a *Alphabet, seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), alphabet: a}
}

// Random returns a uniformly random sequence of length n.
func (g *Generator) Random(id string, n int) *Sequence {
	res := make([]byte, n)
	k := g.alphabet.Size()
	for i := range res {
		res[i] = g.alphabet.Letter(g.rng.Intn(k))
	}
	return &Sequence{ID: id, Residues: res}
}

// Mutate returns a copy of s with point substitutions applied at the given
// per-site rate, plus optional short indels at indelRate per site (geometric
// length, mean 2). Used to build homolog families that a sensitive search
// should recover.
func (g *Generator) Mutate(s *Sequence, id string, subRate, indelRate float64) *Sequence {
	k := g.alphabet.Size()
	out := make([]byte, 0, s.Len()+8)
	for _, b := range s.Residues {
		r := g.rng.Float64()
		switch {
		case r < indelRate/2:
			// deletion: skip this residue (and maybe the next few)
			continue
		case r < indelRate:
			// insertion before this residue
			l := 1
			for g.rng.Float64() < 0.5 {
				l++
			}
			for j := 0; j < l; j++ {
				out = append(out, g.alphabet.Letter(g.rng.Intn(k)))
			}
			out = append(out, b)
		case r < indelRate+subRate:
			// substitution to a different letter
			idx := g.alphabet.Index(b)
			if idx < 0 {
				out = append(out, b)
				continue
			}
			n := g.rng.Intn(k - 1)
			if n >= idx {
				n++
			}
			out = append(out, g.alphabet.Letter(n))
		default:
			out = append(out, b)
		}
	}
	return &Sequence{ID: id, Desc: "mutant of " + s.ID, Residues: out}
}

// LengthModel describes the length distribution of generated database
// sequences: log-normal-ish via mean plus jitter, clamped to [Min, Max].
type LengthModel struct {
	Mean, StdDev float64
	Min, Max     int
}

// TypicalProtein mirrors the length distribution of a protein database
// (mean ~350 aa).
var TypicalProtein = LengthModel{Mean: 350, StdDev: 180, Min: 40, Max: 2000}

// TypicalDNA mirrors an EST-style nucleotide database (mean ~600 nt).
var TypicalDNA = LengthModel{Mean: 600, StdDev: 250, Min: 80, Max: 4000}

func (g *Generator) drawLength(m LengthModel) int {
	for {
		n := int(m.Mean + g.rng.NormFloat64()*m.StdDev)
		if n >= m.Min && n <= m.Max {
			return n
		}
	}
}

// RandomDatabase generates nSeqs random sequences with lengths drawn from
// the model. IDs are "<prefix>NNNN".
func (g *Generator) RandomDatabase(prefix string, nSeqs int, m LengthModel) *Database {
	db := &Database{Seqs: make([]*Sequence, 0, nSeqs)}
	for i := 0; i < nSeqs; i++ {
		db.Seqs = append(db.Seqs, g.Random(fmt.Sprintf("%s%04d", prefix, i), g.drawLength(m)))
	}
	return db
}

// HomologFamily generates a family of nMembers sequences derived from a
// common random ancestor of length n by independent mutation, suitable for
// planted-homology search tests: a sensitive search for any member should
// rank the other members highly.
func (g *Generator) HomologFamily(prefix string, nMembers, n int, subRate float64) *Database {
	ancestor := g.Random(prefix+"_anc", n)
	db := &Database{}
	for i := 0; i < nMembers; i++ {
		m := g.Mutate(ancestor, fmt.Sprintf("%s_m%02d", prefix, i), subRate, subRate/10)
		db.Seqs = append(db.Seqs, m)
	}
	return db
}

// SearchWorkload bundles a synthetic database with planted homolog families
// and the query set that should recover them.
type SearchWorkload struct {
	DB      *Database
	Queries *Database
	// Planted maps query ID -> IDs of database sequences derived from the
	// same ancestor (the "true positives" a sensitive search must find).
	Planted map[string][]string
}

// NewSearchWorkload builds a database of nBackground random sequences plus
// nFamilies planted homolog families of familySize members each; one mutant
// per family becomes a query. All randomness derives from the generator's
// seed, so workloads are reproducible.
func (g *Generator) NewSearchWorkload(nBackground, nFamilies, familySize int, m LengthModel) *SearchWorkload {
	w := &SearchWorkload{
		DB:      g.RandomDatabase("bg", nBackground, m),
		Queries: &Database{},
		Planted: make(map[string][]string),
	}
	for f := 0; f < nFamilies; f++ {
		n := g.drawLength(m)
		fam := g.HomologFamily(fmt.Sprintf("fam%02d", f), familySize+1, n, 0.10)
		// Last member becomes the query; the rest join the database.
		query := fam.Seqs[familySize]
		query.ID = fmt.Sprintf("query%02d", f)
		members := make([]string, 0, familySize)
		for _, s := range fam.Seqs[:familySize] {
			w.DB.Seqs = append(w.DB.Seqs, s)
			members = append(members, s.ID)
		}
		w.Queries.Seqs = append(w.Queries.Seqs, query)
		w.Planted[query.ID] = members
	}
	// Shuffle the database so planted members are not clustered, which
	// would make partition-boundary bugs invisible.
	g.rng.Shuffle(len(w.DB.Seqs), func(i, j int) {
		w.DB.Seqs[i], w.DB.Seqs[j] = w.DB.Seqs[j], w.DB.Seqs[i]
	})
	return w
}
