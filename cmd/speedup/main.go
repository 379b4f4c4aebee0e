// Command speedup regenerates the paper's evaluation figures on the
// discrete-event cluster simulator and prints them as tables (the text
// analogue of the speedup plots).
//
// Usage:
//
//	speedup -fig 1              # Figure 1: DSEARCH, 1-83 homogeneous donors
//	speedup -fig 2              # Figure 2: DPRml, 6 instances, 1-40 donors
//	speedup -fig 2 -instances 1 # the single-instance ablation
//	speedup -ablation           # adaptive vs fixed vs GSS vs factoring vs TSS
//	speedup -all                # every figure and ablation above
//	speedup -all -csv out.csv   # also dump every series as CSV for plotting
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/figures"
	"repro/internal/simnet"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate (1 or 2)")
		instances = flag.Int("instances", 6, "figure 2: simultaneous problem instances")
		taxa      = flag.Int("taxa", 50, "figure 2: taxa in the dataset")
		ablation  = flag.Bool("ablation", false, "run the scheduling-policy ablation")
		all       = flag.Bool("all", false, "run every experiment")
		seed      = flag.Int64("seed", 0, "override the experiment seed (0 = default)")
		csvPath   = flag.String("csv", "", "also write the speedup series to this CSV file")
	)
	flag.Parse()

	var csvOut io.Writer
	csvHeader := true
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		csvOut = f
	}
	emit := func(series string, pts []simnet.SpeedupPoint) {
		if csvOut == nil {
			return
		}
		if err := figures.WriteCSV(csvOut, series, pts, csvHeader); err != nil {
			log.Fatal(err)
		}
		csvHeader = false
	}

	ran := false
	if *all || *fig == 1 {
		emit("fig1", runFigure1(*seed))
		ran = true
	}
	if *all || *fig == 2 {
		emit(fmt.Sprintf("fig2-x%d", *instances), runFigure2(*instances, *taxa, *seed))
		ran = true
	}
	if *all {
		emit("fig2-x1", runFigure2(1, *taxa, *seed)) // single-instance ablation
	}
	if *all || *ablation {
		runAblation(*seed)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func runFigure1(seed int64) []simnet.SpeedupPoint {
	cfg := figures.DefaultFigure1()
	if seed != 0 {
		cfg.Seed = seed
	}
	pts, err := figures.Figure1(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	figures.WriteTable(os.Stdout,
		"Figure 1: DSEARCH speedup, homogeneous semi-idle lab (P-III class)", pts)
	fmt.Println()
	return pts
}

func runFigure2(instances, taxa int, seed int64) []simnet.SpeedupPoint {
	cfg := figures.DefaultFigure2()
	cfg.Instances = instances
	cfg.Taxa = taxa
	if seed != 0 {
		cfg.Seed = seed
	}
	pts, err := figures.Figure2(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	title := fmt.Sprintf("Figure 2: DPRml speedup, %d taxa, %d instance(s) running simultaneously",
		cfg.Taxa, cfg.Instances)
	figures.WriteTable(os.Stdout, title, pts)
	fmt.Println()
	return pts
}

func runAblation(seed int64) {
	if seed == 0 {
		seed = 3
	}
	const donors, totalCost = 60, 500_000
	makespans, err := figures.AdaptiveVsFixed(donors, totalCost, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Scheduling-policy ablation: %d heterogeneous donors, total cost %d\n", donors, totalCost)
	names := make([]string, 0, len(makespans))
	for n := range makespans {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return makespans[names[i]] < makespans[names[j]] })
	best := makespans[names[0]]
	for _, n := range names {
		fmt.Printf("%16s  makespan %12s  (%.2fx best)\n",
			n, makespans[n].Round(time.Second), makespans[n].Seconds()/best.Seconds())
	}
	fmt.Println()
}
