package dsearch

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/sched"
	"repro/internal/seq"
)

func TestParseConfig(t *testing.T) {
	text := `
# DSEARCH configuration
algorithm = smith-waterman
matrix    = BLOSUM62
gap_open  = 11
gap_extend = 1
topk = 10
min_score = 30
`
	cfg, err := ParseConfig(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Algorithm != "smith-waterman" || cfg.GapOpen != 11 || cfg.TopK != 10 || cfg.MinScore != 30 {
		t.Errorf("parsed config %+v", cfg)
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []string{
		"algorithm smith-waterman\n",   // missing '='
		"unknown_key = 1\n",            // unknown key
		"gap_open = abc\n",             // bad int
		"topk = 0\n",                   // invalid after validation
		"algorithm = quantum-search\n", // unknown algorithm
		"matrix = NOPE\n",              // unknown matrix
		"topk = 10x\n",                 // trailing garbage after an int
		"mask_threshold = 2.2abc\n",    // trailing garbage after a float
		"gap_open = 3.7\n",             // a float where an int belongs
		"mask_window = 0\n",            // explicit zero, not "unset"
		"mask_threshold = 0\n",         // explicit zero, not "unset"
	}
	for _, text := range bad {
		if _, err := ParseConfig(strings.NewReader(text)); err == nil {
			t.Errorf("config %q accepted", text)
		}
	}
}

func TestHitListTopK(t *testing.T) {
	h := NewHitList(3)
	for i, s := range []int{10, 50, 30, 20, 40} {
		h.Add(Hit{Query: "q", Subject: string(rune('a' + i)), Score: s})
	}
	hits := h.Query("q")
	if len(hits) != 3 {
		t.Fatalf("%d hits, want 3", len(hits))
	}
	if hits[0].Score != 50 || hits[1].Score != 40 || hits[2].Score != 30 {
		t.Errorf("top-3 = %v", hits)
	}
}

func TestHitListDeterministicTies(t *testing.T) {
	h1 := NewHitList(2)
	h2 := NewHitList(2)
	hits := []Hit{
		{Query: "q", Subject: "b", Score: 10},
		{Query: "q", Subject: "a", Score: 10},
		{Query: "q", Subject: "c", Score: 10},
	}
	h1.Merge(hits)
	h2.Merge([]Hit{hits[2], hits[0], hits[1]})
	a, b := h1.Query("q"), h2.Query("q")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tie-breaking not order-independent: %v vs %v", a, b)
		}
	}
	if a[0].Subject != "a" {
		t.Errorf("ties should prefer lexicographically smaller subject, got %v", a)
	}
}

// addBySort is HitList.Add as it was before it inserted in place: append,
// re-sort the whole list, truncate to K. TestHitListMatchesSortReference
// holds the in-place Add to it.
func addBySort(h *HitList, hit Hit) {
	hs := append(h.hits[hit.Query], hit)
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Score != hs[j].Score {
			return hs[i].Score > hs[j].Score
		}
		return hs[i].Subject < hs[j].Subject
	})
	if len(hs) > h.K {
		hs = hs[:h.K]
	}
	h.hits[hit.Query] = hs
}

// TestHitListMatchesSortReference feeds random hit streams — few queries,
// narrow scores so ties are common, repeated subjects — to Add and to the
// sorting reference, and requires identical lists.
func TestHitListMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		got, want := NewHitList(k), NewHitList(k)
		for n := rng.Intn(60); n > 0; n-- {
			subject := fmt.Sprintf("s%d", rng.Intn(12))
			score := rng.Intn(8)
			// Equal (score, subject) keys carry equal hits, so any order
			// among them is the same list.
			hit := Hit{Query: fmt.Sprintf("q%d", rng.Intn(3)), Subject: subject, Score: score, SubjectLen: len(subject) + score}
			got.Add(hit)
			addBySort(want, hit)
		}
		if a, b := got.All(), want.All(); !slices.Equal(a, b) {
			t.Fatalf("trial %d (K=%d):\nAdd    %v\nsorted %v", trial, k, a, b)
		}
	}
}

func TestHitListReport(t *testing.T) {
	h := NewHitList(5)
	h.Add(Hit{Query: "q1", Subject: "s1", Score: 42, SubjectLen: 100})
	rep := h.Report()
	if !strings.Contains(rep, "q1") || !strings.Contains(rep, "42") {
		t.Errorf("report missing fields:\n%s", rep)
	}
}

func makeWorkload(t *testing.T) *seq.SearchWorkload {
	t.Helper()
	g := seq.NewGenerator(seq.Protein, 1234)
	return g.NewSearchWorkload(40, 3, 4, seq.LengthModel{Mean: 90, StdDev: 25, Min: 50, Max: 200})
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.TopK = 10
	return cfg
}

func TestSearchLocalFindsPlantedHomologs(t *testing.T) {
	w := makeWorkload(t)
	hits, err := SearchLocal(w.DB, w.Queries, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for q, members := range w.Planted {
		got := hits.Query(q)
		if len(got) == 0 {
			t.Fatalf("query %s found nothing", q)
		}
		found := map[string]bool{}
		// The planted family members must dominate the top hits.
		for _, h := range got[:min(len(got), len(members)+1)] {
			found[h.Subject] = true
		}
		hitCount := 0
		for _, m := range members {
			if found[m] {
				hitCount++
			}
		}
		if hitCount < len(members)-1 {
			t.Errorf("query %s recovered only %d/%d planted homologs: %v", q, hitCount, len(members), got[:min(5, len(got))])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDistributedMatchesLocal(t *testing.T) {
	// The distributed search must produce exactly the same hit list as the
	// single-machine reference, regardless of chunking.
	w := makeWorkload(t)
	cfg := fastConfig()
	ref, err := SearchLocal(w.DB, w.Queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []sched.Policy{
		sched.Fixed{Size: 500},
		sched.Fixed{Size: 50000},
		sched.GSS{K: 1, Min: 100},
	} {
		p, err := NewProblem("ds-"+policy.Name(), w.DB, w.Queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := dist.RunLocal(context.Background(), p, 4, policy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResult(out, cfg.TopK)
		if err != nil {
			t.Fatal(err)
		}
		refAll, gotAll := ref.All(), got.All()
		if len(refAll) != len(gotAll) {
			t.Fatalf("policy %s: %d hits vs reference %d", policy.Name(), len(gotAll), len(refAll))
		}
		for i := range refAll {
			if refAll[i] != gotAll[i] {
				t.Fatalf("policy %s: hit %d differs: %+v vs %+v", policy.Name(), i, gotAll[i], refAll[i])
			}
		}
	}
}

func TestDataManagerChunking(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 9)
	db := g.RandomDatabase("d", 30, seq.LengthModel{Mean: 100, StdDev: 10, Min: 80, Max: 120})
	dm, err := NewDataManager(db, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var totalCost int64
	units := 0
	for {
		u, ok, err := dm.NextUnit(350)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if u.Cost > 350 && units > 0 {
			// A single oversized sequence may exceed the budget, but these
			// sequences are all ~100 residues.
			t.Errorf("unit cost %d exceeds budget", u.Cost)
		}
		totalCost += u.Cost
		units++
	}
	if totalCost != db.TotalResidues() {
		t.Errorf("units cover %d residues, database has %d", totalCost, db.TotalResidues())
	}
	if units < 8 {
		t.Errorf("only %d units from a 30-sequence database at budget 350", units)
	}
	if dm.Done() {
		t.Error("done before consuming")
	}
}

func TestDataManagerValidation(t *testing.T) {
	if _, err := NewDataManager(seq.NewDatabase(), fastConfig()); err == nil {
		t.Error("empty database accepted")
	}
	g := seq.NewGenerator(seq.Protein, 2)
	db := g.RandomDatabase("d", 3, seq.TypicalProtein)
	bad := fastConfig()
	bad.TopK = 0
	if _, err := NewDataManager(db, bad); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := NewProblem("p", db, seq.NewDatabase(), fastConfig()); err == nil {
		t.Error("empty query set accepted")
	}
	dm, _ := NewDataManager(db, fastConfig())
	if err := dm.Consume(999, resultPayload{}); err == nil {
		t.Error("unknown unit consumed")
	}
}

// TestDuplicateIDsRejected: hits, calibrations and alignments are keyed by
// sequence ID, so every entry point refuses a query set or database that
// reuses one, naming it, instead of merging two sequences' results.
func TestDuplicateIDsRejected(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 5)
	clean := g.RandomDatabase("d", 12, seq.TypicalProtein)
	dupDB := seq.NewDatabase(append(append([]*seq.Sequence{}, clean.Seqs...), clean.Seqs[3].Clone())...)
	queries := seq.NewDatabase(g.Random("q", 40), g.Random("r", 40))
	dupQueries := seq.NewDatabase(g.Random("q", 40), g.Random("q", 12))
	cases := []struct {
		name        string
		db, queries *seq.Database
		want        string // substring of the error; "" for none
	}{
		{"duplicate query", clean, dupQueries, `duplicate query ID "q"`},
		{"duplicate subject", dupDB, queries, fmt.Sprintf("duplicate database ID %q", clean.Seqs[3].ID)},
		{"clean input", clean, queries, ""},
	}
	cfg := fastConfig()
	cfg.ReportAlignments = true
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, errProblem := NewProblem("p", c.db, c.queries, cfg)
			_, errLocal := SearchLocal(c.db, c.queries, cfg)
			_, errCalib := Calibrate(c.db, c.queries, cfg, 10, 1)
			for i, err := range []error{errProblem, errLocal, errCalib} {
				entry := []string{"NewProblem", "SearchLocal", "Calibrate"}[i]
				switch {
				case c.want == "" && err != nil:
					t.Errorf("%s rejected clean input: %v", entry, err)
				case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
					t.Errorf("%s: error %v, want one containing %s", entry, err, c.want)
				}
			}
		})
	}
}

func TestDNASearch(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 77)
	db := g.RandomDatabase("n", 20, seq.LengthModel{Mean: 200, StdDev: 40, Min: 100, Max: 400})
	target := db.Seqs[7]
	query := g.Mutate(target, "q0", 0.05, 0.01)
	queries := seq.NewDatabase(query)
	cfg := Config{
		Algorithm: "smith-waterman",
		Matrix:    "DNA",
		GapOpen:   8,
		GapExtend: 2,
		TopK:      5,
		MinScore:  1,
	}
	hits, err := SearchLocal(db, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := hits.Query("q0")
	if len(got) == 0 || got[0].Subject != target.ID {
		t.Errorf("mutated query did not recover its source: %v", got)
	}
}
