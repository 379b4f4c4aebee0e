package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// schemaVersion is bumped whenever a field of report changes meaning.
const schemaVersion = 1

// report is the -out file: everything one invocation measured.
type report struct {
	Schema int      `json:"schema"`
	Host   hostInfo `json:"host"`
	Seed   int64    `json:"seed"`
	Scale  string   `json:"scale"`
	Donors int      `json:"donors"`
	// Workloads holds, per workload, every round and the end-to-end metrics
	// summarised over its untraced rounds.
	Workloads map[string]*workloadReport `json:"workloads"`
	// Trace holds, per workload, the per-layer metrics read off its traced
	// rounds. Present with -trace 1.
	Trace map[string]map[string]summary `json:"trace,omitempty"`
	// Layers holds the layer microbenches as layer -> metric (the metric's
	// name without the layer prefix). sched.sim_efficiency needs no clock
	// and is always present; the rest come with -trace 1.
	Layers map[string]map[string]summary `json:"layers"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func thisHost() hostInfo {
	return hostInfo{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: cpuModel()}
}

// cpuModel reads the processor's name from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// peakRSSMB reads the process's peak resident set from /proc/self/status
// (0 elsewhere).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// workloadReport is one workload's rounds and end-to-end metrics. In JSON
// the metrics sit beside "rounds", each under its own name.
type workloadReport struct {
	Rounds  []*round
	Metrics map[string]summary
}

func (w workloadReport) MarshalJSON() ([]byte, error) {
	m := map[string]any{"rounds": w.Rounds}
	for name, s := range w.Metrics {
		m[name] = s
	}
	return json.Marshal(m)
}

func (w *workloadReport) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	w.Metrics = make(map[string]summary)
	for name, msg := range raw {
		if name == "rounds" {
			if err := json.Unmarshal(msg, &w.Rounds); err != nil {
				return err
			}
			continue
		}
		var s summary
		if err := json.Unmarshal(msg, &s); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		w.Metrics[name] = s
	}
	return nil
}

// layerOf splits a per-layer metric name into its layer (the module) and
// the rest.
func layerOf(metric string) (layer, rest string) {
	layer, rest, _ = strings.Cut(metric, ".")
	return layer, rest
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this benchmark reads schema %d", path, r.Schema, schemaVersion)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes every metric by name with its unit.
func (r *report) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "seed %d, scale %s, %d donors in a closed loop over loopback; nproc %d, GOMAXPROCS %d, %s, %s\n",
		r.Seed, r.Scale, r.Donors, h.NProc, h.GoMaxProcs, h.Go, h.CPU)
	row := func(scope, name string, s summary) {
		fmt.Fprintf(w, "%-21s %-25s %14.6g %-11s q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g n %d\n",
			scope, name, s.Median, s.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	for _, wl := range workloads {
		wr := r.Workloads[wl.name]
		if wr == nil {
			continue
		}
		for _, m := range endToEnd {
			row(wl.name, m.Name, wr.Metrics[m.Name])
		}
		row(wl.name, "failed_share", wr.Metrics["failed_share"])
		for _, m := range perLayer {
			if s, ok := r.Trace[wl.name][m.Name]; ok {
				row(wl.name, m.Name, s)
			}
		}
	}
	for _, m := range perLayer {
		layer, rest := layerOf(m.Name)
		if s, ok := r.Layers[layer][rest]; ok {
			row("layer", m.Name, s)
		}
	}
}

// resultLine is the last line of standard output when one workload was run:
// the object the benchmark contract asks for.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line reduces the report of a single-workload run to the result line: the
// end-to-end medians of an untraced run, every per-layer median of a traced
// one.
func (r *report) line(workload string, traced bool) resultLine {
	wr := r.Workloads[workload]
	l := resultLine{Correct: true, Metrics: make(map[string]lineMetric)}
	for _, rd := range wr.Rounds {
		l.Attempted += rd.Dispatched
		l.Failed += rd.Failed
	}
	if !traced {
		for _, m := range endToEnd {
			l.Metrics[m.Name] = lineMetric{wr.Metrics[m.Name].Median, m.Unit}
		}
		return l
	}
	for _, m := range perLayer {
		s, ok := r.Trace[workload][m.Name]
		if !ok {
			layer, rest := layerOf(m.Name)
			s = r.Layers[layer][rest]
		}
		l.Metrics[m.Name] = lineMetric{s.Median, m.Unit}
	}
	return l
}

// compare prints, for every workload and end-to-end metric, both medians,
// their ratio (B over A, so A is the base) and a verdict, and reports whether
// any verdict was "worse". A metric is worse when B's median is worse than
// A's by more than the metric's bound; otherwise unresolved when either
// side's interquartile range is wider than the bound; otherwise ok. The
// failed share may not rise, and between two runs of the same seed and scale
// the counts that involve no clock — drain.tiny's folded units,
// sched.sim_efficiency — must repeat exactly.
func compare(a, b *report, w io.Writer) (worse bool) {
	verdict := func(scope, name string, va, vb float64, unit, v string) {
		ratio := "-"
		if va != 0 {
			ratio = fmt.Sprintf("%.4f", vb/va)
		}
		fmt.Fprintf(w, "%-21s %-20s A %-12.6g B %-12.6g %-5s B/A %-8s %s\n", scope, name, va, vb, unit, ratio, v)
		worse = worse || v == "worse"
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range endToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			v := "ok"
			change := (sb.Median - sa.Median) / sa.Median // share of the base by which B is larger
			if m.Better == "higher" {
				change = -change
			}
			switch {
			case change > m.Bound:
				v = "worse"
			case sa.spread() > m.Bound || sb.spread() > m.Bound:
				v = "unresolved"
			}
			verdict(name, m.Name, sa.Median, sb.Median, m.Unit, v)
		}
		fa, fb := wa.Metrics["failed_share"].Median, wb.Metrics["failed_share"].Median
		v := "ok"
		if fb > fa {
			v = "worse"
		}
		verdict(name, "failed_share", fa, fb, "share", v)
	}
	if a.Seed != b.Seed || a.Scale != b.Scale {
		return worse // different inputs: the counts are not expected to match
	}
	exact := func(scope, name string, va, vb float64, unit string) {
		v := "ok"
		if va != vb {
			v = "worse"
		}
		verdict(scope, name+" (exact)", va, vb, unit, v)
	}
	if wa, wb := a.Workloads["drain.tiny"], b.Workloads["drain.tiny"]; wa != nil && wb != nil {
		perRound := func(wr *workloadReport) float64 {
			total := 0
			for _, r := range wr.Rounds {
				total += r.Units
			}
			return float64(total) / float64(len(wr.Rounds))
		}
		exact("drain.tiny", "units per round", perRound(wa), perRound(wb), "count")
	}
	exact("layer", "sched.sim_efficiency", a.Layers["sched"]["sim_efficiency"].Median, b.Layers["sched"]["sim_efficiency"].Median, "share")
	return worse
}
