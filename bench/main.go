// Command bench is the repository's one benchmark: four workloads run
// against a real loopback deployment (dist.ListenAndServe, dist.Dial,
// dist.NewDonor), every result checked, every metric printed by name with
// its unit. README.md has the command lines and says what each metric is
// for; BENCHMARK.json at the root of the repository names the metrics and
// fixes the regression bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	sc       *scale
	names    []string // the workloads to run, in round-robin order
	recordTo string
	progress io.Writer
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "every input is generated from this seed")
	seconds := fs.Float64("seconds", 15, "seconds of measurement per workload; with -trace 1 half goes to rounds and half to the layer microbenches")
	trace := fs.Int("trace", 0, "1: alternate untraced and traced rounds, run the layer microbenches, report the per-layer metrics")
	only := fs.String("workload", "", "run this workload only and end standard output with the result line (default: all four, rounds interleaved)")
	scaleName := fs.String("scale", "full", "input sizes: full, or tiny for the smoke test")
	out := fs.String("out", "", "write the report (schema 1) to this file")
	traceOut := fs.String("trace-out", "", "with -trace 1: write each workload's last traced round's spans to this file")
	recordTo := fs.String("record", "", "path of expected.json: compute this seed's reference answers, check the rounds against them and store them")
	doCompare := fs.Bool("compare", false, "compare two report files: bench -compare A.json B.json")
	aa := fs.Bool("aa", false, "run the whole set twice (second time in reverse order) and compare the two")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *doCompare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two report files"))
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compare(a, b, stdout) {
			return 1
		}
		return 0
	}

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, sc: scales[*scaleName], recordTo: *recordTo, progress: stderr}
	if cfg.sc == nil {
		return fail(fmt.Errorf("unknown scale %q", *scaleName))
	}
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			cfg.names = append(cfg.names, w.name)
		}
	}
	if len(cfg.names) == 0 {
		return fail(fmt.Errorf("unknown workload %q", *only))
	}

	if *aa {
		if *out != "" || *traceOut != "" || *recordTo != "" {
			return fail(errors.New("-aa only prints; for files, run twice with -out and use -compare"))
		}
		a, err := runSet(ctx, cfg)
		if err != nil {
			return fail(err)
		}
		slices.Reverse(cfg.names)
		b, err := runSet(ctx, cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "set A")
		a.report.print(stdout)
		fmt.Fprintln(stdout, "set B (workload order reversed)")
		b.report.print(stdout)
		fmt.Fprintln(stdout, "A/A comparison")
		if compare(a.report, b.report, stdout) {
			return 1
		}
		return 0
	}

	res, err := runSet(ctx, cfg)
	if err != nil {
		if *only != "" {
			// A wrong result is still a result: say so on the result line.
			line, _ := json.Marshal(resultLine{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]lineMetric{}})
			fmt.Fprintf(stdout, "%s\n", line)
		}
		return fail(err)
	}
	res.report.print(stdout)
	if *out != "" {
		if err := writeJSON(*out, res.report); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, res.spans); err != nil {
			return fail(err)
		}
	}
	if *recordTo != "" {
		if err := record(*recordTo, res.answers); err != nil {
			return fail(err)
		}
	}
	if *only != "" {
		line, err := json.Marshal(res.report.line(*only, cfg.trace))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// setResult is what one pass over the workloads produced.
type setResult struct {
	report  *report
	answers map[string]answer // oracle key -> the answer every round agreed on
	spans   map[string][]span // workload -> spans of its last traced round
}

// runSet runs cfg.names' workloads in interleaved rounds — w1 w2 w3 w4, w1 …
// with a garbage collection between rounds, so that drift of the host over
// minutes lands on all of them alike — and summarises them. Any round that
// errors, fails its check or disagrees with the oracle fails the set.
func runSet(ctx context.Context, cfg config) (*setResult, error) {
	oracle, err := loadOracle(expectedJSON)
	if err != nil {
		return nil, err
	}
	sc := cfg.sc
	res := &setResult{answers: make(map[string]answer), spans: make(map[string][]span)}

	// The expected answers, outside every clock: from expected.json when
	// the seed is recorded there, otherwise computed once by reference().
	want := make(map[string]answer)
	for _, name := range cfg.names {
		key := oracleKey(name, sc.name, cfg.seed)
		if a, ok := oracle[key]; ok && cfg.recordTo == "" {
			want[name] = a
			continue
		}
		start := time.Now()
		a, err := reference(ctx, workloadByName(name), cfg.seed, sc)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", name, err)
		}
		if a != (answer{}) {
			want[name] = a
			res.answers[key] = a
			fmt.Fprintf(cfg.progress, "%s: seed %d is not in expected.json; reference computed in %.2f s\n", name, cfg.seed, time.Since(start).Seconds())
		}
	}

	rounds := make(map[string][]*round)
	first := make(map[string][]byte) // each workload's first final result; every later one must equal it
	one := func(name string, traced, keep bool) error {
		r, err := runRound(ctx, workloadByName(name), cfg.seed, sc, traced)
		runtime.GC()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if prev, ok := first[name]; !ok {
			first[name] = r.result
			if a, ok := want[name]; ok {
				if err := a.matches(r.answer); err != nil {
					return fmt.Errorf("%s: wrong result: %w", name, err)
				}
			}
		} else if !bytes.Equal(prev, r.result) {
			return fmt.Errorf("%s: round returned a final result that differs from the first round's", name)
		}
		if keep {
			rounds[name] = append(rounds[name], r)
			if traced {
				// Only the last traced round's spans are kept: drain.tiny's
				// are 80 MB a round.
				res.spans[name], r.spans = r.spans, nil
			}
		}
		fmt.Fprintf(cfg.progress, "%-21s round %2d traced=%-5t set-up %.4f s  makespan %.4f s  %d units\n",
			name, len(rounds[name]), traced, r.SetupS, r.MakespanS, r.Units)
		return nil
	}
	if sc.warmup {
		for _, name := range cfg.names {
			if err := one(name, false, false); err != nil {
				return nil, err
			}
		}
	}
	// An untraced run measures each workload for cfg.seconds and at least
	// sc.minRounds rounds. A traced run spends half of cfg.seconds on
	// rounds, untraced and traced in turn (at least one pair), and the other
	// half on the microbenches.
	need := func(name string) (more, traced bool) {
		rs := rounds[name]
		var elapsed float64
		for _, r := range rs {
			elapsed += r.MakespanS
		}
		if cfg.trace {
			return len(rs) < 2 || len(rs)%2 == 1 || elapsed < cfg.seconds/2, len(rs)%2 == 1
		}
		return len(rs) < sc.minRounds || elapsed < cfg.seconds, false
	}
	for progressed := true; progressed; {
		progressed = false
		for _, name := range cfg.names {
			if more, traced := need(name); more {
				if err := one(name, traced, true); err != nil {
					return nil, err
				}
				progressed = true
			}
		}
	}

	rep := &report{
		Schema: schemaVersion, Host: thisHost(), Seed: cfg.seed, Scale: sc.name, Donors: donors,
		Workloads: make(map[string]*workloadReport),
		Layers:    make(map[string]map[string]summary),
	}
	res.report = rep
	for _, name := range cfg.names {
		rep.Workloads[name] = summarizeRounds(rounds[name])
		if cfg.trace {
			if rep.Trace == nil {
				rep.Trace = make(map[string]map[string]summary)
			}
			rep.Trace[name] = summarizeTrace(rounds[name])
		}
	}
	layers := make(map[string]summary)
	if cfg.trace {
		budget := time.Duration(cfg.seconds / 2 * float64(time.Second))
		if layers, err = runMicrobenches(ctx, cfg.seed, sc, budget); err != nil {
			return nil, fmt.Errorf("microbench %w", err)
		}
	}
	eff, err := simEfficiency(cfg.seed)
	if err != nil {
		return nil, err
	}
	layers["sched.sim_efficiency"] = summarize([]float64{eff}, perLayerUnit("sched.sim_efficiency"))
	for name, s := range layers {
		layer, rest := layerOf(name)
		if rep.Layers[layer] == nil {
			rep.Layers[layer] = make(map[string]summary)
		}
		rep.Layers[layer][rest] = s
	}
	return res, nil
}

// summarizeRounds reduces a workload's untraced rounds to its end-to-end
// metrics.
func summarizeRounds(rounds []*round) *workloadReport {
	var makespan, perS, setup []float64
	dispatched, failed := 0, 0
	for _, r := range rounds {
		dispatched += r.Dispatched
		failed += r.Failed
		if !r.Traced {
			makespan = append(makespan, r.MakespanS)
			perS = append(perS, r.UnitsPerS)
			setup = append(setup, r.SetupS)
		}
	}
	return &workloadReport{Rounds: rounds, Metrics: map[string]summary{
		"makespan_s":   summarize(makespan, "s"),
		"units_per_s":  summarize(perS, "1/s"),
		"setup_s":      summarize(setup, "s"),
		"failed_share": summarize([]float64{float64(failed) / float64(max(dispatched, 1))}, "share"),
	}}
}

// summarizeTrace reduces a workload's traced rounds to its per-layer
// metrics. Tracing's own cost is the traced rounds' median makespan over the
// untraced rounds' of the same run; allocation is read on the untraced
// rounds, where no span is being recorded.
func summarizeTrace(rounds []*round) map[string]summary {
	samples := make(map[string][]float64)
	var traced, untraced, alloc []float64
	for _, r := range rounds {
		if !r.Traced {
			untraced = append(untraced, r.MakespanS)
			alloc = append(alloc, r.AllocMB)
			continue
		}
		traced = append(traced, r.MakespanS)
		for name, v := range r.layer {
			samples[name] = append(samples[name], v)
		}
	}
	samples["trace.overhead_share"] = []float64{median(traced)/median(untraced) - 1}
	samples["proc.alloc_mb"] = alloc
	samples["proc.peak_rss_mb"] = []float64{peakRSSMB()}
	out := make(map[string]summary)
	for name, vals := range samples {
		out[name] = summarize(vals, perLayerUnit(name))
	}
	return out
}
