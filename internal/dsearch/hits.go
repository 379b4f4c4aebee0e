package dsearch

import (
	"fmt"
	"sort"
	"strings"
)

// Hit is one query-subject alignment above threshold.
type Hit struct {
	Query   string
	Subject string
	Score   int
	// SubjectLen helps the report reader judge coverage.
	SubjectLen int
	// AlignedQuery/AlignedSubject are the gapped aligned strings, present
	// only when Config.ReportAlignments is set (computed on the donor for
	// the hits it keeps).
	AlignedQuery   string
	AlignedSubject string
	// Identity is the exact-match fraction of the alignment columns (0
	// when alignments were not requested).
	Identity float64
	// EValue is the expected number of random database sequences scoring
	// at least this well (0 until AnnotateEValues runs).
	EValue float64
}

// HitList keeps the best K hits per query, lowest score evictable first.
// It is the server-side accumulation structure DSEARCH's DataManager folds
// chunk results into.
type HitList struct {
	K    int
	hits map[string][]Hit // query -> sorted descending by score
}

// NewHitList creates a top-K accumulator.
func NewHitList(k int) *HitList {
	return &HitList{K: k, hits: make(map[string][]Hit)}
}

// Add inserts a hit, keeping only the top K for its query. Ties are broken
// by subject ID for determinism. A hit that cannot enter a full list is
// rejected against its last entry; any other is inserted in place.
func (h *HitList) Add(hit Hit) {
	hs := h.hits[hit.Query]
	if len(hs) >= h.K && (h.K <= 0 || !ranksBefore(hit, hs[h.K-1])) {
		return
	}
	i := sort.Search(len(hs), func(i int) bool { return ranksBefore(hit, hs[i]) })
	hs = append(hs, Hit{})
	copy(hs[i+1:], hs[i:])
	hs[i] = hit
	h.hits[hit.Query] = hs[:min(len(hs), h.K)]
}

// ranksBefore orders hits by score, descending, then by subject ID.
func ranksBefore(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Subject < b.Subject
}

// Merge folds another batch of hits in.
func (h *HitList) Merge(hits []Hit) {
	for _, hit := range hits {
		h.Add(hit)
	}
}

// Query returns the accumulated hits for one query (descending score).
func (h *HitList) Query(q string) []Hit {
	return append([]Hit(nil), h.hits[q]...)
}

// All returns every hit, grouped by query in sorted query order.
func (h *HitList) All() []Hit {
	queries := make([]string, 0, len(h.hits))
	for q := range h.hits {
		queries = append(queries, q)
	}
	sort.Strings(queries)
	var out []Hit
	for _, q := range queries {
		out = append(out, h.hits[q]...)
	}
	return out
}

// Report renders the classic search-report table; IDENT and EVALUE columns
// appear when alignments / E-values were computed.
func (h *HitList) Report() string {
	all := h.All()
	withAln, withE := false, false
	for _, hit := range all {
		if hit.AlignedQuery != "" {
			withAln = true
		}
		if hit.EValue != 0 {
			withE = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-20s %8s %8s", "QUERY", "SUBJECT", "SCORE", "SUBJLEN")
	if withAln {
		fmt.Fprintf(&b, " %7s", "IDENT")
	}
	if withE {
		fmt.Fprintf(&b, " %10s", "EVALUE")
	}
	b.WriteByte('\n')
	for _, hit := range all {
		fmt.Fprintf(&b, "%-20s %-20s %8d %8d", hit.Query, hit.Subject, hit.Score, hit.SubjectLen)
		if withAln {
			fmt.Fprintf(&b, " %6.1f%%", 100*hit.Identity)
		}
		if withE {
			fmt.Fprintf(&b, " %10.2g", hit.EValue)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatAlignment renders one hit's gapped alignment in 60-column blocks
// with a midline marking exact matches, the classic pairwise report form.
// It returns "" for hits without alignments.
func FormatAlignment(h Hit) string {
	if h.AlignedQuery == "" || len(h.AlignedQuery) != len(h.AlignedSubject) {
		return ""
	}
	const width = 60
	var b strings.Builder
	fmt.Fprintf(&b, "%s vs %s  score=%d identity=%.1f%%\n", h.Query, h.Subject, h.Score, 100*h.Identity)
	for at := 0; at < len(h.AlignedQuery); at += width {
		end := at + width
		if end > len(h.AlignedQuery) {
			end = len(h.AlignedQuery)
		}
		qs, ss := h.AlignedQuery[at:end], h.AlignedSubject[at:end]
		mid := make([]byte, end-at)
		for i := range mid {
			if qs[i] == ss[i] && qs[i] != '-' {
				mid[i] = '|'
			} else {
				mid[i] = ' '
			}
		}
		fmt.Fprintf(&b, "  %s\n  %s\n  %s\n", qs, mid, ss)
	}
	return b.String()
}
