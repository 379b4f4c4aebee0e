package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
)

// runBench runs the command in-process and returns its standard output.
func runBench(t *testing.T, args ...string) string {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir()) // journal directories go where the test cleans up
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// TestSmoke runs every workload at the tiny scale, one untraced and one
// traced round each, and checks what only a whole run can show: results are
// accepted, every named metric is there, the spans hang together and the
// wrappers did not change which code paths ran.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	outPath, spansPath := filepath.Join(dir, "out.json"), filepath.Join(dir, "spans.json")
	runBench(t, "-scale", "tiny", "-trace", "1", "-seconds", "0.1", "-out", outPath, "-trace-out", spansPath)

	rep, err := readReport(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Host.NProc == 0 || rep.Host.GoMaxProcs == 0 || rep.Host.Go == "" || rep.Seed != 1 || rep.Donors != donors {
		t.Errorf("report header incomplete: %+v seed %d donors %d", rep.Host, rep.Seed, rep.Donors)
	}
	var spans map[string][]span
	data, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}

	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		if wr == nil || len(wr.Rounds) < 2 {
			t.Fatalf("%s: want an untraced and a traced round, got %+v", w.name, wr)
		}
		for _, m := range endToEnd {
			if s := wr.Metrics[m.Name]; s.N == 0 || s.Median <= 0 || s.Unit != m.Unit {
				t.Errorf("%s: %s = %+v", w.name, m.Name, s)
			}
		}
		if s, ok := wr.Metrics["failed_share"]; !ok || s.Median != 0 {
			t.Errorf("%s: failed_share = %+v, want 0", w.name, s)
		}
		for _, m := range perLayer {
			layer, rest := layerOf(m.Name)
			_, traced := rep.Trace[w.name][m.Name]
			_, micro := rep.Layers[layer][rest]
			if traced == micro {
				t.Errorf("%s: per-layer metric %s: in trace %t, in layers %t; want exactly one", w.name, m.Name, traced, micro)
			}
		}
		checkSpans(t, w.name, spans[w.name])

		// The durable round must really have journaled, through the traced
		// DataManager: that is the wrapper forwarding DurableDM. Likewise
		// quorum verification runs where it is switched on and nowhere else.
		bytesPerFold := rep.Trace[w.name]["journal.bytes_per_fold"].Median
		verified := rep.Trace[w.name]["dist.verified"].Median
		if w.durable != (bytesPerFold > 0) || (w.verify > 0) != (verified > 0) {
			t.Errorf("%s: journal.bytes_per_fold %v, dist.verified %v (durable %t, verify %v)",
				w.name, bytesPerFold, verified, w.durable, w.verify)
		}
	}
	if busy := rep.Trace["drain.tiny"]["alg.busy_share"].Median; busy > 0.2 {
		t.Errorf("drain.tiny: alg.busy_share %v; the workload is meant to have no compute", busy)
	}
}

// checkSpans checks one traced round's span tree: every computed unit was
// delivered by a coordinator call that names it, every result was submitted
// for the unit just computed, and no span's self time exceeds its duration.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	count := make(map[string]int)
	self := selfTimes(spans)
	for i, s := range spans {
		count[s.Name]++
		if s.End < s.Start || self[i] < 0 || self[i] > s.dur() {
			t.Errorf("%s: span %d %s: [%d, %d] self %d", workload, i, s.Name, s.Start, s.End, self[i])
		}
		if s.Parent >= i {
			t.Errorf("%s: span %d %s has parent %d, which was recorded after it", workload, i, s.Name, s.Parent)
			continue
		}
		switch s.Name {
		case "alg.process":
			if s.Parent < 0 || spans[s.Parent].Name != "dist.wait_tasks" || !slices.Contains(spans[s.Parent].Units, s.Unit) {
				t.Errorf("%s: alg.process of unit %d is not under the dist.wait_tasks that delivered it", workload, s.Unit)
			}
		case "dist.submit":
			if s.Parent < 0 || spans[s.Parent].Name != "alg.process" || spans[s.Parent].Unit != s.Unit {
				t.Errorf("%s: dist.submit of unit %d is not under its alg.process", workload, s.Unit)
			}
		case "alg.init", "wire.bulk_fetch":
			if s.Parent < 0 || spans[s.Parent].Name != "dist.wait_tasks" {
				t.Errorf("%s: %s is not under a dist.wait_tasks", workload, s.Name)
			}
		}
	}
	for _, name := range []string{"dist.wait_tasks", "alg.init", "alg.process", "dist.submit", "dm.next_unit", "dm.consume", "dm.final"} {
		if count[name] == 0 {
			t.Errorf("%s: no %s span", workload, name)
		}
	}
	if count["alg.process"] != count["dist.submit"] || count["dist.submit"] < count["dm.consume"] {
		t.Errorf("%s: %d alg.process, %d dist.submit, %d dm.consume spans", workload, count["alg.process"], count["dist.submit"], count["dm.consume"])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "inside", Start: 10, End: 30, Parent: 0},
		{Name: "straddles the end", Start: 90, End: 150, Parent: 0},
		{Name: "caused, but later", Start: 200, End: 260, Parent: 0},
	}
	if got, want := selfTimes(spans), []int64{70, 20, 60, 60}; !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step, both ways:
// the file lists exactly the workloads and metrics the tables here define,
// and the result line of a run carries exactly those metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nwant %+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if !slices.Equal(bj.Paths, []string{"bench"}) || !slices.Equal(bj.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v", bj.Paths, bj.Command)
	}

	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		out := runBench(t, "--workload", "drain.tiny", "--seed", "7", "--seconds", "0.1", "--trace", tc.trace, "-scale", "tiny")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line of standard output: %v", tc.trace, err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: result line %+v", tc.trace, line)
		}
		if len(line.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics on the result line, want %d", tc.trace, len(line.Metrics), len(tc.defs))
		}
		for _, m := range tc.defs {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %t), want unit %s", tc.trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// TestQuartiles pins summarize to statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, "s")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v, want quartiles 2.75 5.5 8.25", s)
	}
	if one := summarize([]float64{3}, "s"); one.Median != 3 || one.Q1 != 3 || one.Q3 != 3 {
		t.Errorf("summarize of one value = %+v", one)
	}
}

func TestCompare(t *testing.T) {
	mk := func(makespan, q1, q3, failed float64, units int) *report {
		return &report{
			Workloads: map[string]*workloadReport{"drain.tiny": {
				Rounds: []*round{{Units: units}},
				Metrics: map[string]summary{
					"makespan_s":   {Median: makespan, Q1: q1, Q3: q3},
					"units_per_s":  {Median: 1 / makespan, Q1: 1 / q3, Q3: 1 / q1},
					"setup_s":      {Median: 1, Q1: 1, Q3: 1},
					"failed_share": {Median: failed},
				},
			}},
			Layers: map[string]map[string]summary{"sched": {"sim_efficiency": {Median: 0.9}}},
		}
	}
	base := mk(2, 1.98, 2.02, 0, 1000)
	for _, tc := range []struct {
		name  string
		b     *report
		worse bool
		want  string // a verdict that must appear
	}{
		{"same", mk(2.1, 2.08, 2.12, 0, 1000), false, "ok"},
		{"slower beyond the bound", mk(2.6, 2.58, 2.62, 0, 1000), true, "worse"},
		{"spread wider than the bound", mk(2.1, 1.7, 2.5, 0, 1000), false, "unresolved"},
		{"failures rose", mk(2, 1.98, 2.02, 0.01, 1000), true, "worse"},
		{"a count moved", mk(2, 1.98, 2.02, 0, 999), true, "worse"},
	} {
		var out bytes.Buffer
		if got := compare(base, tc.b, &out); got != tc.worse || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: worse = %t, want %t with a %q verdict\n%s", tc.name, got, tc.worse, tc.want, out.String())
		}
	}
}

// TestTraceDMForwards checks that the traced DataManager has Requeuer exactly
// when the DataManager it wraps has it: the server treats a lost unit
// differently for a Requeuer.
func TestTraceDMForwards(t *testing.T) {
	for _, w := range workloads {
		inst, err := w.build(1, scales["tiny"])
		if err != nil {
			t.Fatal(err)
		}
		inner := inst.problem.DM
		wrapped := traceDM(inner, &recorder{})
		_, innerRequeues := inner.(dist.Requeuer)
		_, wrappedRequeues := wrapped.(dist.Requeuer)
		if innerRequeues != wrappedRequeues {
			t.Errorf("%s: inner Requeuer %t, traced Requeuer %t", w.name, innerRequeues, wrappedRequeues)
		}
		innerKind := ""
		if d, ok := inner.(dist.DurableDM); ok {
			innerKind = d.DurableKind()
		}
		if got := wrapped.(dist.DurableDM).DurableKind(); got != innerKind {
			t.Errorf("%s: traced DurableKind %q, inner %q", w.name, got, innerKind)
		}
	}
}
