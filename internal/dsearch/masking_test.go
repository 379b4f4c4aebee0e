package dsearch

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/sched"
	"repro/internal/seq"
)

// maskingWorkload plants a shared homopolymer into otherwise unrelated
// query/database pairs, plus one genuine homolog.
func maskingWorkload(t *testing.T) (db, queries *seq.Database) {
	t.Helper()
	g := seq.NewGenerator(seq.Protein, 91)
	run := bytes.Repeat([]byte("P"), 60)

	query := g.Random("query", 120)
	query.Residues = append(query.Residues, run...)

	homolog := g.Mutate(query, "homolog", 0.1, 0.01)
	decoy := g.Random("decoy", 120)
	decoy.Residues = append(decoy.Residues, run...) // shares only the run
	clean := g.Random("clean", 150)

	return seq.NewDatabase(homolog, decoy, clean), seq.NewDatabase(query)
}

func TestMaskingSuppressesLowComplexityHits(t *testing.T) {
	db, queries := maskingWorkload(t)
	cfg := DefaultConfig()
	cfg.TopK = 3

	plain, err := SearchLocal(db, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaskLowComplexity = true
	masked, err := SearchLocal(db, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}

	score := func(h *HitList, subject string) int {
		for _, hit := range h.Query("query") {
			if hit.Subject == subject {
				return hit.Score
			}
		}
		return 0
	}
	// Unmasked: the decoy scores highly off the shared poly-P alone.
	if score(plain, "decoy") < 100 {
		t.Fatalf("test premise broken: decoy scores %d unmasked", score(plain, "decoy"))
	}
	// Masked: the decoy's spurious score collapses; the homolog survives.
	if got := score(masked, "decoy"); got > score(plain, "decoy")/3 {
		t.Errorf("masking left decoy at %d (unmasked %d)", got, score(plain, "decoy"))
	}
	if got := score(masked, "homolog"); got < 200 {
		t.Errorf("masking destroyed the real homolog: %d", got)
	}
	if score(masked, "homolog") <= score(masked, "decoy") {
		t.Error("masked search does not rank the homolog above the decoy")
	}
}

func TestMaskingDistributedMatchesLocal(t *testing.T) {
	db, queries := maskingWorkload(t)
	cfg := DefaultConfig()
	cfg.TopK = 3
	cfg.MaskLowComplexity = true

	ref, err := SearchLocal(db, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem("mask", db, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dist.RunLocal(context.Background(), p, 2, sched.Adaptive{Target: 50 * time.Millisecond, Bootstrap: 1000, Min: 100})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(out, cfg.TopK)
	if err != nil {
		t.Fatal(err)
	}
	g, r := got.Query("query"), ref.Query("query")
	if len(g) != len(r) {
		t.Fatalf("%d hits distributed vs %d local", len(g), len(r))
	}
	for i := range g {
		if g[i] != r[i] {
			t.Errorf("hit %d differs: %+v vs %+v", i, g[i], r[i])
		}
	}
}

func TestMaskConfigKeys(t *testing.T) {
	c, err := ParseConfig(strings.NewReader("mask_low_complexity = yes\nmask_window = 16\nmask_threshold = 1.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.MaskLowComplexity || c.MaskWindow != 16 || c.MaskThreshold != 1.5 {
		t.Errorf("config not applied: %+v", c)
	}
	if _, err := ParseConfig(strings.NewReader("mask_low_complexity = maybe\n")); err == nil {
		t.Error("bad boolean accepted")
	}
	bad := DefaultConfig()
	bad.MaskLowComplexity = true
	bad.MaskWindow = 1
	if err := bad.Validate(); err == nil {
		t.Error("window 1 accepted")
	}
	bad2 := DefaultConfig()
	bad2.MaskLowComplexity = true
	bad2.MaskThreshold = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative threshold accepted")
	}
	for _, val := range []string{"NaN", "Inf", "+Inf"} {
		text := "mask_low_complexity = true\nmask_threshold = " + val + "\n"
		if _, err := ParseConfig(strings.NewReader(text)); err == nil {
			t.Errorf("mask_threshold = %s accepted", val)
		}
	}
}
