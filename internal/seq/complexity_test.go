package seq

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// windowEntropy is the from-scratch Shannon entropy (bits) of the residue
// composition of w, case-insensitive; an empty window has zero entropy. The
// sliding window in complexityFilter.regions must match it bit for bit.
func windowEntropy(w []byte) float64 {
	if len(w) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range w {
		if b >= 'a' && b <= 'z' {
			b = b - 'a' + 'A'
		}
		counts[b]++
	}
	n := float64(len(w))
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		// The conversion rounds the product before the subtraction, as
		// the table's stored terms are rounded: it stops an architecture
		// that fuses multiply-subtract (arm64) from computing a different
		// sum. amd64 never fuses, so there this is the plain expression.
		h -= float64(p * math.Log2(p))
	}
	return h
}

// lowComplexityRegionsReference recounts every window with windowEntropy
// and merges the windows below threshold, as LowComplexityRegions must.
func lowComplexityRegionsReference(residues []byte, window int, threshold float64) [][2]int {
	var out [][2]int
	for i := 0; i+window <= len(residues); i++ {
		if windowEntropy(residues[i:i+window]) >= threshold {
			continue
		}
		from, to := i, i+window
		if n := len(out); n > 0 && out[n-1][1] >= from {
			out[n-1][1] = to
		} else {
			out = append(out, [2]int{from, to})
		}
	}
	return out
}

func TestWindowEntropy(t *testing.T) {
	if h := windowEntropy([]byte("AAAAAAAA")); h != 0 {
		t.Errorf("homopolymer entropy %g, want 0", h)
	}
	if h := windowEntropy([]byte("ACGT")); math.Abs(h-2) > 1e-12 {
		t.Errorf("uniform 4-letter entropy %g, want 2", h)
	}
	if h := windowEntropy([]byte("aAaA")); h != 0 {
		t.Errorf("case-insensitivity broken: %g", h)
	}
	if h := windowEntropy(nil); h != 0 {
		t.Errorf("empty window entropy %g", h)
	}
	// Entropy grows with diversity.
	if windowEntropy([]byte("AACC")) >= windowEntropy([]byte("ACGT")) {
		t.Error("2-letter window not below 4-letter window")
	}
}

func TestLowComplexityRegionsFindsRuns(t *testing.T) {
	g := NewGenerator(Protein, 3)
	random := g.Random("r", 60).Residues
	s := append(append(append([]byte{}, random...), bytes.Repeat([]byte("Q"), 30)...), g.Random("r2", 60).Residues...)
	regions, err := LowComplexityRegions(s, 12, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) == 0 {
		t.Fatal("polyQ run not detected")
	}
	// The run [60, 90) must be inside some region; random flanks mostly not.
	covered := func(i int) bool {
		for _, r := range regions {
			if i >= r[0] && i < r[1] {
				return true
			}
		}
		return false
	}
	for i := 65; i < 85; i++ {
		if !covered(i) {
			t.Fatalf("position %d inside polyQ not covered", i)
		}
	}
	if covered(20) {
		t.Error("random prefix flagged as low complexity")
	}
}

func TestLowComplexityValidation(t *testing.T) {
	if _, err := LowComplexityRegions([]byte("AAAA"), 1, 2); err == nil {
		t.Error("window 1 accepted")
	}
	if _, err := LowComplexityRegions([]byte("AAAA"), 4, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	for _, threshold := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := LowComplexityRegions([]byte("AAAA"), 4, threshold); err == nil {
			t.Errorf("threshold %g accepted", threshold)
		}
	}
	regions, err := LowComplexityRegions([]byte("AA"), 12, 2)
	if err != nil || regions != nil {
		t.Errorf("short sequence: %v %v", regions, err)
	}
}

// maskOne masks one sequence at DSEARCH's default window and threshold.
func maskOne(t *testing.T, s *Sequence) *Sequence {
	t.Helper()
	db, err := MaskDatabase(&Database{Seqs: []*Sequence{s}}, 12, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	return db.Seqs[0]
}

func TestMaskLowComplexity(t *testing.T) {
	g := NewGenerator(Protein, 5)
	flank := g.Random("f", 50).Residues
	s := &Sequence{ID: "s", Residues: append(append([]byte{}, flank...), bytes.Repeat([]byte("S"), 25)...)}
	masked := maskOne(t, s)
	if masked.ID != "s" || len(masked.Residues) != len(s.Residues) {
		t.Fatal("mask changed identity or length")
	}
	if !bytes.Contains(masked.Residues, bytes.Repeat([]byte{MaskChar}, 20)) {
		t.Errorf("polyS not masked: %s", masked.Residues)
	}
	// Original untouched.
	if bytes.ContainsRune(s.Residues[:50], rune(MaskChar)) {
		t.Error("input sequence mutated")
	}
	if strings.Count(string(masked.Residues[:30]), string(MaskChar)) > 0 {
		t.Error("random flank masked")
	}
}

func TestMaskDatabaseFraction(t *testing.T) {
	g := NewGenerator(Protein, 7)
	db := &Database{Seqs: []*Sequence{
		g.Random("clean", 100),
		{ID: "dirty", Residues: bytes.Repeat([]byte("E"), 100)},
	}}
	masked, err := MaskDatabase(db, 12, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	var n, total int
	for _, s := range masked.Seqs {
		n += bytes.Count(s.Residues, []byte{MaskChar})
		total += s.Len()
	}
	frac := float64(n) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("masked fraction %.3f, want ~0.5", frac)
	}
	if bytes.ContainsRune(masked.Seqs[0].Residues, rune(MaskChar)) {
		t.Error("clean sequence masked")
	}
	for _, b := range masked.Seqs[1].Residues {
		if b != MaskChar {
			t.Fatalf("homopolymer not fully masked: %c", b)
		}
	}
}

func TestMaskingSuppressesSpuriousSimilarity(t *testing.T) {
	// Two unrelated sequences that share only a long homopolymer: masking
	// must remove most of the shared signal (p-distance on the masked pair
	// goes up). This is the filter's purpose in DSEARCH.
	g := NewGenerator(Protein, 11)
	run := bytes.Repeat([]byte("K"), 40)
	a := &Sequence{ID: "a", Residues: append(append([]byte{}, g.Random("x", 40).Residues...), run...)}
	b := &Sequence{ID: "b", Residues: append(append([]byte{}, g.Random("y", 40).Residues...), run...)}
	ma, mb := maskOne(t, a), maskOne(t, b)
	same := func(x, y []byte) int {
		n := 0
		for i := range x {
			if x[i] == y[i] && x[i] != MaskChar {
				n++
			}
		}
		return n
	}
	if before, after := same(a.Residues, b.Residues), same(ma.Residues, mb.Residues); after >= before-30 {
		t.Errorf("masking left %d of %d shared positions", after, before)
	}
}

// FuzzLowComplexityRegions holds the sliding window to the per-window
// recount. shape picks the input: raw bytes (bytes >= 0x80 and MaskChar
// included), a one- to six-letter alphabet, or that alphabet in mixed case.
// Windows run 2–64 and thresholds (0, 5] bits or exactly one window's
// entropy, on inputs shorter than, equal to and longer than the window.
func FuzzLowComplexityRegions(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWYQQQQQQQQQQQQQQACDEFGHIK"), uint8(0), uint8(10), uint16(2199))
	f.Add([]byte("ACDEFGHIKLMN"), uint8(0), uint8(10), uint16(2199))
	f.Add([]byte("ACDEFGHIKLM"), uint8(0), uint8(10), uint16(2199))
	f.Add([]byte("\x00\xff\x80XXXXxxAAaa\x7fzZ"), uint8(0), uint8(3), uint16(999))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 200, 7}, 30), uint8(4), uint8(14), uint16(1499))
	f.Add(bytes.Repeat([]byte{0, 131, 5, 250}, 40), uint8(17), uint8(62), uint16(4999))
	// Boundary thresholds: the first fails when p is off by a rounding,
	// the second when the present residues are summed out of byte order.
	f.Add([]byte("001010"), uint8('t'), uint8(4), uint16(40000))
	f.Add([]byte("0K12KK780XX0"), uint8(0), uint8(10), uint16(39937))
	f.Fuzz(func(t *testing.T, data []byte, shape, window uint8, milli uint16) {
		w := 2 + int(window)%63
		threshold := float64(1+int(milli)%5000) / 1000
		residues := append([]byte(nil), data...)
		letters := 1 + int(shape/3)%6
		for i, b := range residues {
			switch shape % 3 {
			case 1:
				residues[i] = "ACDEFG"[int(b)%letters]
			case 2:
				residues[i] = "ACDEFG"[int(b)%letters] | b&0x20 // 0x20 lower-cases a letter
			}
		}
		if milli >= 1<<15 && len(residues) >= w {
			// A threshold equal to one window's recounted entropy puts
			// every window of that composition on the boundary, where a
			// sum one ulp off the recount flips the decision.
			j := int(milli) % (len(residues) - w + 1)
			if h := windowEntropy(residues[j : j+w]); h > 0 {
				threshold = h
			}
		}
		got, err := LowComplexityRegions(residues, w, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if want := lowComplexityRegionsReference(residues, w, threshold); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d threshold %g on %q: regions %v, recount %v", w, threshold, residues, got, want)
		}
	})
}

// BenchmarkMaskDatabase masks a database of dsearch.fine-durable's shape:
// 20 000 random proteins of ~60 residues, window 12, threshold 2.2 bits.
func BenchmarkMaskDatabase(b *testing.B) {
	db := NewGenerator(Protein, 1).RandomDatabase("bg", 20000, LengthModel{Mean: 60, StdDev: 10, Min: 40, Max: 90})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := MaskDatabase(db, 12, 2.2); err != nil {
			b.Fatal(err)
		}
	}
}
