package dsearch

import (
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/seq"
)

// Durability: the DSEARCH DataManager implements dist.DurableDM so a
// coordinator started with a data directory can journal its state and
// resume a half-finished search after a crash. The flattened state keeps
// the pending (dispatched, not yet folded) spans under their ORIGINAL unit
// IDs: a restored DataManager re-emits them, in ID order, before cutting any
// new chunks — the coordinator's replay rebuilds their units from that —
// and accepts folds for them, so no database residue is searched twice and
// none is lost. NextUnit is deterministic given the state and the budget,
// which lets replay re-cut every chunk granted after the state was taken.

// durableState is the journaled form of a DataManager. Field order is
// frozen by the gob encoding only within one binary's lifetime, which is
// exactly the durability contract: the restorer is compiled into the same
// binary that wrote the state (kinds are registry names, not wire
// versions).
type durableState struct {
	Config    Config
	Seqs      []*seq.Sequence
	Next      int
	Seq       int64
	Consumed  int
	Remaining int64
	Hits      []Hit
	// Pending maps outstanding unit IDs to their [from, to) database spans.
	Pending map[int64][2]int
}

// DurableKind implements dist.DurableDM; the algorithm name doubles as the
// restore-registry key, versioned the same way.
func (d *DataManager) DurableKind() string { return AlgorithmName }

// MarshalState implements dist.DurableDM.
func (d *DataManager) MarshalState() ([]byte, error) {
	st := durableState{
		Config:    d.config,
		Seqs:      d.db.Seqs,
		Next:      d.next,
		Seq:       d.seq,
		Consumed:  d.consumed,
		Remaining: d.remaining,
		Hits:      d.hits.All(),
		Pending:   d.inflight,
	}
	return dist.Encode(st)
}

// restoreDataManager rebuilds a DataManager from MarshalState's bytes. The
// pending spans go straight back into the inflight map and into a resume
// queue NextUnit drains before advancing the database cursor.
func restoreDataManager(state []byte) (*DataManager, error) {
	st, err := dist.Decode[durableState](state)
	if err != nil {
		return nil, fmt.Errorf("dsearch: decoding durable state: %w", err)
	}
	if err := st.Config.Validate(); err != nil {
		return nil, fmt.Errorf("dsearch: restored config: %w", err)
	}
	if len(st.Seqs) == 0 {
		return nil, fmt.Errorf("dsearch: restored state has an empty database")
	}
	hits := NewHitList(st.Config.TopK)
	hits.Merge(st.Hits)
	d := &DataManager{
		db:        seq.NewDatabase(st.Seqs...),
		config:    st.Config,
		next:      st.Next,
		seq:       st.Seq,
		inflight:  st.Pending,
		remaining: st.Remaining,
		consumed:  st.Consumed,
		hits:      hits,
	}
	if d.inflight == nil {
		d.inflight = make(map[int64][2]int)
	}
	for id := range d.inflight {
		d.resume = append(d.resume, id)
	}
	// Map iteration order is random; re-emit in dispatch order so recovery
	// is deterministic and the earliest spans go back out first.
	sort.Slice(d.resume, func(i, j int) bool { return d.resume[i] < d.resume[j] })
	return d, nil
}

// nextResumedUnit re-emits one recovered pending span under its original
// unit ID, skipping IDs already consumed. Returns nil once the resume queue
// is drained.
func (d *DataManager) nextResumedUnit() *dist.UnitOf[unitPayload] {
	for len(d.resume) > 0 {
		id := d.resume[0]
		d.resume = d.resume[1:]
		span, ok := d.inflight[id]
		if !ok {
			continue
		}
		var cost int64
		for i := span[0]; i < span[1]; i++ {
			cost += int64(d.db.Seqs[i].Len())
		}
		return &dist.UnitOf[unitPayload]{
			ID:        id,
			Algorithm: AlgorithmName,
			Payload:   unitPayload{Seqs: d.db.Seqs[span[0]:span[1]]},
			Cost:      cost,
		}
	}
	return nil
}

func init() {
	dist.RegisterDurableDM(AlgorithmName, func(state []byte) (dist.DataManager, error) {
		dm, err := restoreDataManager(state)
		if err != nil {
			return nil, err
		}
		return dist.AdaptDM[unitPayload, resultPayload](dm), nil
	})
}
