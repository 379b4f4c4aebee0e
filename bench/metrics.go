package main

// metricDef names one reported metric. BENCHMARK.json at the root of the
// repository repeats these tables; TestBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the baseline median a metric may worsen by
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload from untraced rounds only.
//
//   - makespan_s: wall time from the start of Submit to Wait returning the
//     final result — what the scientist waits for.
//   - units_per_s: the workload's size (instance.items) over that interval —
//     what one coordinator sustains for the operator.
//   - setup_s: everything paid before that clock starts, per round: input
//     generation, NewProblem (masking, pattern compression), server and
//     journal open, donor dial and handshake. Reported so that work moved
//     out of the clock and into set-up shows.
//
// The fourth, failed_share — units reissued plus rounds whose result failed
// its check, over units dispatched — is expected to be exactly 0, which a
// bounded metric may not be; the result line carries it as failed/attempted
// and the -out file as failed_share.
var endToEnd = []metricDef{
	{Name: "makespan_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers (layer = module name, the part
// before the first dot). Those up to proc.* are read off a traced round of
// the workload; the rest are the layer microbenches, which do not depend on
// the workload. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "alg.busy_share", Unit: "share", Better: "higher"},
	{Name: "alg.init_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.unit_overhead_us", Unit: "us", Better: "lower"},
	{Name: "dist.wait_tasks_us", Unit: "us", Better: "lower"},
	{Name: "dist.wait_tasks_p99_us", Unit: "us", Better: "lower"},
	{Name: "dist.wait_tasks_calls", Unit: "count", Better: "lower"},
	{Name: "dist.submit_us", Unit: "us", Better: "lower"},
	{Name: "dist.submit_p99_us", Unit: "us", Better: "lower"},
	{Name: "dist.submit_calls", Unit: "count", Better: "lower"},
	{Name: "dist.batch_fill", Unit: "units/reply", Better: "higher"},
	{Name: "dist.empty_polls", Unit: "count", Better: "lower"},
	{Name: "dist.turnaround_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.turnaround_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.reissued", Unit: "count", Better: "lower"},
	{Name: "dist.verified", Unit: "count", Better: "lower"},
	{Name: "dist.conflicts", Unit: "count", Better: "lower"},
	{Name: "dm.next_unit_us", Unit: "us", Better: "lower"},
	{Name: "dm.consume_us", Unit: "us", Better: "lower"},
	{Name: "dm.final_ms", Unit: "ms", Better: "lower"},
	{Name: "dprml.stage_idle_share", Unit: "share", Better: "lower"},
	{Name: "wire.bulk_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.bulk_fetches", Unit: "count", Better: "lower"},
	{Name: "wire.bulk_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.bytes_per_fold", Unit: "B", Better: "lower"},
	{Name: "journal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "align.sw_mcells_per_s", Unit: "Mcells/s", Better: "higher"},
	{Name: "align.nw_mcells_per_s", Unit: "Mcells/s", Better: "higher"},
	{Name: "likelihood.loglik_us", Unit: "us", Better: "lower"},
	{Name: "likelihood.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.flat_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.flat_encode_allocs", Unit: "allocs", Better: "lower"},
	{Name: "wire.flat_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.flat_decode_allocs", Unit: "allocs", Better: "lower"},
	{Name: "dist.typed_codec_us", Unit: "us", Better: "lower"},
	{Name: "dist.direct_units_per_s", Unit: "1/s", Better: "higher"},
	{Name: "journal.append_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.bulk_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "sched.budget_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.sim_efficiency", Unit: "share", Better: "higher"},
}

func perLayerUnit(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("bench: metric " + name + " is not in the perLayer table")
}
