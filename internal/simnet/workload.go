// Package simnet is a deterministic discrete-event simulator of the
// paper's deployment: a single coordinating server (a Pentium III 500 in
// the paper) dispatching work units to a pool of heterogeneous,
// possibly-churning donor machines over a 100 Mbit/s network. The server is
// the real dist.Server — its dispatch scan, leases, overdue rule, reissue
// and folds — run in virtual time through its Clock, so the speedup curves
// of Figures 1 and 2 come from the scheduler production runs. Only the
// donors are modelled: compute is analytic (cost units / donor speed), not
// burnt CPU, and transfers are latency plus bytes over bandwidth.
package simnet

// Workload is the simulator's abstract view of a problem: a supply of work
// units with costs, possibly staged (units of a later stage only become
// available once all results of the current stage are in — the DPRml
// pattern). Run adapts it to a dist.DataManager; a lost unit is the
// server's to reissue, so a workload never sees it again until Complete.
type Workload interface {
	// Next produces a unit with approximately the given cost budget.
	// ok=false means nothing is available right now (stage barrier or
	// fully dispatched); the caller retries after results arrive.
	Next(budget int64) (u Unit, ok bool)
	// Complete reports a unit's result back, once per unit.
	Complete(id int64)
	// Done reports whether every unit completed.
	Done() bool
	// Remaining returns outstanding cost (for remaining-aware policies).
	Remaining() int64
}

// Unit is one dispatched piece of simulated work.
type Unit struct {
	ID   int64
	Cost int64
	// DataBytes and ResultBytes size the network transfers.
	DataBytes   int64
	ResultBytes int64
}

// DivisibleWorkload models DSEARCH: a total cost (database residues times
// queries) divisible at any granularity. BytesPerCost sizes the unit's data
// transfer (the database chunk shipped to the donor).
type DivisibleWorkload struct {
	Total        int64
	BytesPerCost float64
	ResultBytes  int64

	dispatched int64
	completed  int64
	seq        int64
	inflight   map[int64]int64 // id -> cost
}

// NewDivisibleWorkload creates a DSEARCH-like workload of total cost units.
func NewDivisibleWorkload(total int64, bytesPerCost float64, resultBytes int64) *DivisibleWorkload {
	return &DivisibleWorkload{
		Total:        total,
		BytesPerCost: bytesPerCost,
		ResultBytes:  resultBytes,
		inflight:     make(map[int64]int64),
	}
}

// Next implements Workload.
func (w *DivisibleWorkload) Next(budget int64) (Unit, bool) {
	left := w.Total - w.dispatched
	if left <= 0 {
		return Unit{}, false
	}
	if budget < 1 {
		budget = 1
	}
	if budget > left {
		budget = left
	}
	w.dispatched += budget
	w.seq++
	u := Unit{
		ID:          w.seq,
		Cost:        budget,
		DataBytes:   int64(float64(budget) * w.BytesPerCost),
		ResultBytes: w.ResultBytes,
	}
	w.inflight[u.ID] = u.Cost
	return u, true
}

// Complete implements Workload.
func (w *DivisibleWorkload) Complete(id int64) {
	if cost, ok := w.inflight[id]; ok {
		delete(w.inflight, id)
		w.completed += cost
	}
}

// Done implements Workload.
func (w *DivisibleWorkload) Done() bool {
	return w.completed >= w.Total
}

// Remaining implements Workload.
func (w *DivisibleWorkload) Remaining() int64 { return w.Total - w.completed }

// StagedWorkload models DPRml's stepwise insertion: stage s consists of
// Tasks[s] independent tasks of cost TaskCost[s]; all tasks of a stage must
// complete before any task of the next stage is available. Tasks may be
// batched into one unit up to the budget.
type StagedWorkload struct {
	Tasks       []int
	TaskCost    []int64
	DataBytes   int64
	ResultBytes int64

	stage          int
	issuedInStage  int
	doneInStage    int
	seq            int64
	inflight       map[int64]int // id -> task count
	totalRemaining int64
}

// NewStagedWorkload builds a staged workload; tasks[s] tasks of cost
// taskCost[s] per stage.
func NewStagedWorkload(tasks []int, taskCost []int64, dataBytes, resultBytes int64) *StagedWorkload {
	w := &StagedWorkload{
		Tasks:       append([]int(nil), tasks...),
		TaskCost:    append([]int64(nil), taskCost...),
		DataBytes:   dataBytes,
		ResultBytes: resultBytes,
		inflight:    make(map[int64]int),
	}
	for s := range tasks {
		w.totalRemaining += int64(tasks[s]) * taskCost[s]
	}
	return w
}

// DPRmlWorkload builds the stage structure of stepwise-insertion ML tree
// building over nTaxa taxa: inserting taxon k (k = 4..n) into the current
// (k-1)-leaf unrooted tree evaluates 2k-5 candidate topologies, each
// costing ~costScale*(k) cost units (likelihood evaluation grows with tree
// size).
func DPRmlWorkload(nTaxa int, costScale int64, dataBytes, resultBytes int64) *StagedWorkload {
	var tasks []int
	var costs []int64
	for k := 4; k <= nTaxa; k++ {
		tasks = append(tasks, 2*k-5)
		costs = append(costs, costScale*int64(k))
	}
	return NewStagedWorkload(tasks, costs, dataBytes, resultBytes)
}

// Next implements Workload.
func (w *StagedWorkload) Next(budget int64) (Unit, bool) {
	if w.stage >= len(w.Tasks) {
		return Unit{}, false
	}
	avail := w.Tasks[w.stage] - w.issuedInStage
	if avail <= 0 {
		return Unit{}, false // barrier: wait for stage results
	}
	tc := w.TaskCost[w.stage]
	n := int(budget / tc)
	if n < 1 {
		n = 1
	}
	if n > avail {
		n = avail
	}
	w.issuedInStage += n
	w.seq++
	u := Unit{
		ID:          w.seq,
		Cost:        int64(n) * tc,
		DataBytes:   w.DataBytes,
		ResultBytes: w.ResultBytes,
	}
	w.inflight[u.ID] = n
	return u, true
}

// Complete implements Workload.
func (w *StagedWorkload) Complete(id int64) {
	n, ok := w.inflight[id]
	if !ok {
		return
	}
	delete(w.inflight, id)
	w.doneInStage += n
	w.totalRemaining -= int64(n) * w.TaskCost[w.stage]
	if w.doneInStage >= w.Tasks[w.stage] {
		w.stage++
		w.issuedInStage, w.doneInStage = 0, 0
	}
}

// Done implements Workload.
func (w *StagedWorkload) Done() bool { return w.stage >= len(w.Tasks) }

// Remaining implements Workload.
func (w *StagedWorkload) Remaining() int64 { return w.totalRemaining }
