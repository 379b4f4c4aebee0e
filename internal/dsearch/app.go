package dsearch

import (
	"context"
	"fmt"

	"repro/internal/align"
	"repro/internal/dist"
	"repro/internal/seq"
)

// AlgorithmName is the donor-side registry key for the DSEARCH search
// algorithm.
const AlgorithmName = "dsearch/v1"

// sharedData is the per-problem blob every donor fetches once: the query
// set and the search configuration.
type sharedData struct {
	Queries []*seq.Sequence
	Config  Config
}

// unitPayload is one database chunk.
type unitPayload struct {
	Seqs []*seq.Sequence
}

// resultPayload is a chunk's top hits (and the problem's final result).
type resultPayload struct {
	Hits []Hit
}

// DataManager partitions the database into dynamically sized chunks
// (granularity = residues, chosen by the scheduler per donor) and merges
// per-chunk hit lists. It implements the typed dist.TypedDM[unitPayload,
// resultPayload] — the adapter owns the gob codec — plus the CostReporter
// and Progresser extensions.
type DataManager struct {
	db     *seq.Database
	config Config

	next      int // index of next undispatched sequence
	seq       int64
	inflight  map[int64][2]int // unitID -> [from, to)
	remaining int64
	consumed  int
	hits      *HitList
	// resume holds unit IDs recovered from a journal snapshot whose spans
	// were dispatched but never folded; NextUnit re-emits them (under their
	// original IDs) before cutting new chunks. Empty except right after
	// restoreDataManager.
	resume []int64
}

var _ dist.TypedDM[unitPayload, resultPayload] = (*DataManager)(nil)
var _ dist.CostReporter = (*DataManager)(nil)
var _ dist.Progresser = (*DataManager)(nil)

// NewDataManager builds the server-side half of a DSEARCH problem.
func NewDataManager(db *seq.Database, cfg Config) (*DataManager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("dsearch: empty database")
	}
	return &DataManager{
		db:        db,
		config:    cfg,
		inflight:  make(map[int64][2]int),
		remaining: db.TotalResidues(),
		hits:      NewHitList(cfg.TopK),
	}, nil
}

// NewProblem assembles a complete dist.Problem for a search; the typed
// adapter owns all payload marshalling.
func NewProblem(id string, db, queries *seq.Database, cfg Config) (*dist.Problem, error) {
	if queries == nil || queries.Len() == 0 {
		return nil, fmt.Errorf("dsearch: empty query set")
	}
	if err := uniqueIDs(db, queries); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	db, queries, err := cfg.applyMask(db, queries)
	if err != nil {
		return nil, err
	}
	dm, err := NewDataManager(db, cfg)
	if err != nil {
		return nil, err
	}
	return dist.NewTypedProblem[unitPayload, resultPayload](id, dm, sharedData{Queries: queries.Seqs, Config: cfg})
}

// uniqueIDs rejects a query set or database in which two sequences share
// an ID: hits, calibrations and the traceback's lookups are all keyed by
// ID, so a duplicate would silently merge two sequences' results.
func uniqueIDs(db, queries *seq.Database) error {
	for _, set := range []struct {
		what string
		db   *seq.Database
	}{{"query", queries}, {"database", db}} {
		if set.db == nil {
			continue
		}
		seen := make(map[string]bool, set.db.Len())
		for _, s := range set.db.Seqs {
			if seen[s.ID] {
				return fmt.Errorf("dsearch: duplicate %s ID %q", set.what, s.ID)
			}
			seen[s.ID] = true
		}
	}
	return nil
}

// NextUnit implements dist.TypedDM: it takes sequences from the database
// until the residue budget is exhausted. Spans recovered from a journal
// snapshot are re-emitted first, whatever the budget — their extent was
// fixed when they were first dispatched.
func (d *DataManager) NextUnit(budget int64) (*dist.UnitOf[unitPayload], bool, error) {
	if u := d.nextResumedUnit(); u != nil {
		return u, true, nil
	}
	if d.next >= d.db.Len() {
		return nil, false, nil
	}
	if budget < 1 {
		budget = 1
	}
	from := d.next
	var cost int64
	for d.next < d.db.Len() {
		l := int64(d.db.Seqs[d.next].Len())
		if cost > 0 && cost+l > budget {
			break
		}
		cost += l
		d.next++
	}
	d.seq++
	d.inflight[d.seq] = [2]int{from, d.next}
	return &dist.UnitOf[unitPayload]{
		ID:        d.seq,
		Algorithm: AlgorithmName,
		Payload:   unitPayload{Seqs: d.db.Seqs[from:d.next]},
		Cost:      cost,
	}, true, nil
}

// Consume implements dist.TypedDM: merge a chunk's hits.
func (d *DataManager) Consume(unitID int64, res resultPayload) error {
	span, ok := d.inflight[unitID]
	if !ok {
		return fmt.Errorf("dsearch: result for unknown unit %d", unitID)
	}
	delete(d.inflight, unitID)
	d.hits.Merge(res.Hits)
	d.consumed += span[1] - span[0]
	for i := span[0]; i < span[1]; i++ {
		d.remaining -= int64(d.db.Seqs[i].Len())
	}
	return nil
}

// Done implements dist.TypedDM.
func (d *DataManager) Done() bool { return d.consumed == d.db.Len() }

// FinalResult implements dist.TypedDM: the merged hit list.
func (d *DataManager) FinalResult() (any, error) {
	return resultPayload{Hits: d.hits.All()}, nil
}

// RemainingCost implements dist.CostReporter.
func (d *DataManager) RemainingCost() int64 { return d.remaining }

// Progress implements dist.Progresser: database sequences searched so far.
func (d *DataManager) Progress() (done, total int) { return d.consumed, d.db.Len() }

// Hits exposes the accumulated hit list (for progress inspection).
func (d *DataManager) Hits() *HitList { return d.hits }

// Algorithm is the donor-side computation: align every query against every
// sequence in the chunk and return the per-query top hits. It implements
// dist.TypedAlgorithm[sharedData, unitPayload, resultPayload].
type Algorithm struct {
	queries []*seq.Sequence
	cfg     Config
	aligner align.Aligner
	// scorers[i] scores a subject against queries[i], prepared once per
	// problem (align.Prepare).
	scorers []func(subject []byte) int
}

var _ dist.TypedAlgorithm[sharedData, unitPayload, resultPayload] = (*Algorithm)(nil)

// Init implements dist.TypedAlgorithm.
func (a *Algorithm) Init(sd sharedData) error {
	if len(sd.Queries) == 0 {
		return fmt.Errorf("dsearch: shared data has no queries")
	}
	al, err := sd.Config.aligner()
	if err != nil {
		return err
	}
	a.queries = sd.Queries
	a.cfg = sd.Config
	a.aligner = al
	a.scorers = prepare(al, sd.Queries)
	return nil
}

// ProcessCtx implements dist.TypedAlgorithm. Cancellation is checked
// between query rows, so a server-side Forget aborts the scan within one
// query's worth of alignments.
func (a *Algorithm) ProcessCtx(ctx context.Context, up unitPayload) (resultPayload, error) {
	local := NewHitList(a.cfg.TopK)
	for qi, q := range a.queries {
		if err := ctx.Err(); err != nil {
			return resultPayload{}, err
		}
		for _, s := range up.Seqs {
			score := a.scorers[qi](s.Residues)
			if score < a.cfg.MinScore {
				continue
			}
			local.Add(Hit{
				Query:      q.ID,
				Subject:    s.ID,
				Score:      score,
				SubjectLen: s.Len(),
			})
		}
	}
	hits := local.All()
	if a.cfg.ReportAlignments {
		a.attachAlignments(hits, up.Seqs)
	}
	return resultPayload{Hits: hits}, nil
}

// attachAlignments runs the traceback for each kept hit — only the top-K
// survivors pay the quadratic-space alignment, not every database
// sequence scanned.
func (a *Algorithm) attachAlignments(hits []Hit, chunk []*seq.Sequence) {
	queries := make(map[string][]byte, len(a.queries))
	for _, q := range a.queries {
		queries[q.ID] = q.Residues
	}
	subjects := make(map[string][]byte, len(chunk))
	for _, s := range chunk {
		subjects[s.ID] = s.Residues
	}
	for i := range hits {
		q, okQ := queries[hits[i].Query]
		s, okS := subjects[hits[i].Subject]
		if !okQ || !okS {
			continue
		}
		res := a.aligner.Align(q, s)
		hits[i].AlignedQuery = string(res.AlignedA)
		hits[i].AlignedSubject = string(res.AlignedB)
		hits[i].Identity = res.Identity()
	}
}

// prepare readies every query for scoring against many subjects — the one
// scoring path ProcessCtx, SearchLocal and Calibrate share.
func prepare(al align.Aligner, queries []*seq.Sequence) []func(subject []byte) int {
	scorers := make([]func(subject []byte) int, len(queries))
	for i, q := range queries {
		scorers[i] = align.Prepare(al, q.Residues)
	}
	return scorers
}

func init() {
	dist.RegisterTypedAlgorithm(AlgorithmName, func() dist.TypedAlgorithm[sharedData, unitPayload, resultPayload] {
		return &Algorithm{}
	})
}

// SearchLocal runs a search without the distributed machinery — the
// single-machine reference DSEARCH results are validated against.
func SearchLocal(db, queries *seq.Database, cfg Config) (*HitList, error) {
	if err := uniqueIDs(db, queries); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	db, queries, err := cfg.applyMask(db, queries)
	if err != nil {
		return nil, err
	}
	al, err := cfg.aligner()
	if err != nil {
		return nil, err
	}
	hits := NewHitList(cfg.TopK)
	scorers := prepare(al, queries.Seqs)
	for qi, q := range queries.Seqs {
		for _, s := range db.Seqs {
			score := scorers[qi](s.Residues)
			if score < cfg.MinScore {
				continue
			}
			hits.Add(Hit{Query: q.ID, Subject: s.ID, Score: score, SubjectLen: s.Len()})
		}
	}
	if cfg.ReportAlignments {
		a := &Algorithm{queries: queries.Seqs, cfg: cfg, aligner: al}
		kept := hits.All()
		a.attachAlignments(kept, db.Seqs)
		merged := NewHitList(cfg.TopK)
		merged.Merge(kept)
		return merged, nil
	}
	return hits, nil
}

// DecodeResult unpacks a completed problem's final payload.
func DecodeResult(payload []byte, k int) (*HitList, error) {
	res, err := dist.Decode[resultPayload](payload)
	if err != nil {
		return nil, err
	}
	h := NewHitList(k)
	h.Merge(res.Hits)
	return h, nil
}
