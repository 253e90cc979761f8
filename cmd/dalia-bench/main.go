// dalia-bench regenerates the tables and figures of the paper's evaluation
// section. Each experiment prints the same rows/series the paper reports,
// annotated with the paper's published numbers for comparison.
//
// Usage:
//
//	dalia-bench -exp=fig4            # one experiment
//	dalia-bench -exp=fig4,fig5,app   # several
//	dalia-bench -exp=all -quick      # everything, trimmed sweeps
//
// Experiments: table1, table4, fig4, fig5, fig6a, fig6b, fig7, app,
// x1 (mapping), x3 (solver ablation), x4 (S2 ablation), x5 (lb sweep),
// pintime (parallel-in-time BTA engine: single-evaluation latency and
// selected-inversion throughput vs partitions), hybrid (two-level ranks ×
// partitions distributed BTA solver cycle times), latency (closed-loop
// clients against the replicated HTTP serving path: p50/p99/p999 request
// latency and throughput), recovery (crash recovery: restart-from-store vs
// refit cost for a registry of fitted models, failing unless the recovered
// predictions are byte-identical). Every experiment prints a table; the
// recorded benchmark is `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/dalia-hpc/dalia/internal/bench"
)

type experiment struct {
	name string
	desc string
	run  func(quick bool) error
}

// printExp wraps an experiment that measures a report and prints it.
func printExp[R any](name, desc string, run func(bool) (R, error), print func(R, io.Writer)) experiment {
	return experiment{name: name, desc: desc, run: func(quick bool) error {
		rep, err := run(quick)
		if err != nil {
			return err
		}
		print(rep, os.Stdout)
		return nil
	}}
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiments or 'all'")
	quick := flag.Bool("quick", false, "trim sweeps for fast runs")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this path")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	fig := (*bench.Figure).Fprint
	experiments := []experiment{
		{"table1", "framework capability matrix (Table I)", func(bool) error {
			bench.Table1().Fprint(os.Stdout)
			return nil
		}},
		{"table4", "dataset dimensions, paper and scaled (Table IV)", func(bool) error {
			bench.Table4().Fprint(os.Stdout)
			return nil
		}},
		printExp("fig4", "strong scaling vs INLA_DIST-like and R-INLA-like (MB1)", bench.Fig4, fig),
		printExp("fig5", "distributed solver weak scaling with/without lb (MB2)", bench.Fig5, fig),
		printExp("fig6a", "weak scaling through the time domain (WA1)", bench.Fig6a, fig),
		printExp("fig6b", "weak scaling through mesh refinement + memory cap (WA2)", bench.Fig6b, fig),
		printExp("fig7", "application-level strong scaling (SA1)", bench.Fig7, fig),
		printExp("app", "air-pollution application study (§VI, AP1)", bench.App, bench.PrintApp),
		printExp("x1", "ablation: cached vs naive sparse→dense mapping (§IV-F)", bench.AblationMapping, fig),
		printExp("x3", "ablation: BTA solver vs general sparse Cholesky", bench.AblationBTAvsSparse, fig),
		printExp("x4", "ablation: S2 pipeline on/off at fixed resources", bench.AblationS2, fig),
		printExp("x5", "ablation: load-balance factor sweep (§V-C)", bench.AblationLB, fig),
		printExp("latency", "serving tail latency under concurrent closed-loop load (replicated snapshot path)", bench.Latency, bench.PrintLatency),
		printExp("recovery", "crash recovery: restart-from-store vs refit (byte-identical predictions)", bench.Recovery, bench.PrintRecovery),
		printExp("hybrid", "hybrid two-level (ranks × partitions) distributed BTA solver", bench.Hybrid, bench.PrintHybrid),
		printExp("pintime", "parallel-in-time BTA engine (single-eval latency, selected-inversion throughput)", bench.Pintime, bench.PrintPintime),
	}

	want := map[string]bool{}
	runAll := *expFlag == "all"
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}

	ran := 0
	for _, ex := range experiments {
		if !runAll && !want[ex.name] {
			continue
		}
		fmt.Printf("--- %s: %s\n", ex.name, ex.desc)
		t0 := time.Now()
		if err := ex.run(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", ex.name, err)
			os.Exit(1)
		}
		fmt.Printf("    (%.1fs)\n\n", time.Since(t0).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known:", *expFlag)
		for _, ex := range experiments {
			fmt.Fprintf(os.Stderr, " %s", ex.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
}
