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
// x1 (Q_c assembly), x3 (solver ablation), x5 (lb sweep),
// latency (closed-loop clients against the HTTP serving path:
// p50/p99/p999 request latency and throughput). Every requested name is
// checked before anything runs: one unknown name exits 2 and lists the
// known experiments. Every experiment prints a table; the recorded
// benchmark is `go run ./benchmark`.
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
	run  func(quick bool, w io.Writer) error
}

// printExp wraps an experiment that measures a report and prints it.
func printExp[R any](name, desc string, run func(bool) (R, error), print func(R, io.Writer)) experiment {
	return experiment{name: name, desc: desc, run: func(quick bool, w io.Writer) error {
		rep, err := run(quick)
		if err != nil {
			return err
		}
		print(rep, w)
		return nil
	}}
}

var fig = (*bench.Figure).Fprint

var experiments = []experiment{
	{"table1", "framework capability matrix (Table I)", func(_ bool, w io.Writer) error {
		bench.Table1().Fprint(w)
		return nil
	}},
	{"table4", "dataset dimensions, paper and scaled (Table IV)", func(_ bool, w io.Writer) error {
		bench.Table4().Fprint(w)
		return nil
	}},
	printExp("fig4", "strong scaling vs INLA_DIST-like and R-INLA-like (MB1)", bench.Fig4, fig),
	printExp("fig5", "distributed solver weak scaling with/without lb (MB2)", bench.Fig5, fig),
	printExp("fig6a", "weak scaling through the time domain (WA1)", bench.Fig6a, fig),
	printExp("fig6b", "weak scaling through mesh refinement + memory cap (WA2)", bench.Fig6b, fig),
	printExp("fig7", "application-level strong scaling (SA1)", bench.Fig7, fig),
	printExp("app", "air-pollution application study (§VI, AP1)", bench.App, bench.PrintApp),
	printExp("x1", "ablation: per-class in-place Q_c assembly vs naive densification (§IV-F)", bench.AblationMapping, fig),
	printExp("x3", "ablation: BTA solver vs general sparse Cholesky", bench.AblationBTAvsSparse, fig),
	printExp("x5", "ablation: load-balance factor sweep (§V-C)", bench.AblationLB, fig),
	printExp("latency", "serving tail latency under concurrent closed-loop load (lock-free snapshot path)", bench.Latency, bench.PrintLatency),
}

// selectExperiments resolves the -exp list ("all", or comma-separated
// names, case-insensitive) to experiments in their listed order, or errors
// on the first name no experiment has.
func selectExperiments(spec string) ([]experiment, error) {
	if spec == "all" {
		return experiments, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		known := false
		for _, ex := range experiments {
			known = known || ex.name == name
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		want[name] = true
	}
	var sel []experiment
	for _, ex := range experiments {
		if want[ex.name] {
			sel = append(sel, ex)
		}
	}
	return sel, nil
}

// run is the command: it parses args, checks every requested experiment
// name, then runs the selection, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dalia-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "comma-separated experiments or 'all'")
	quick := fs.Bool("quick", false, "trim sweeps for fast runs")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sel, err := selectExperiments(*expFlag)
	if err != nil {
		fmt.Fprintf(stderr, "%v; known:", err)
		for _, ex := range experiments {
			fmt.Fprintf(stderr, " %s", ex.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			}
		}()
	}

	for _, ex := range sel {
		fmt.Fprintf(stdout, "--- %s: %s\n", ex.name, ex.desc)
		t0 := time.Now()
		if err := ex.run(*quick, stdout); err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", ex.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "    (%.1fs)\n\n", time.Since(t0).Seconds())
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
