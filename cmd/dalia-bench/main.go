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
// kernels (dense BLAS-3 engine GFLOP/s; -out writes a JSON perf baseline,
// -compare checks GEMM rates against a stored baseline and fails on
// regression), serving (posterior-prediction throughput; -out writes the
// serving baseline BENCH_2.json, -compare gates the engine path against
// one), pintime (parallel-in-time BTA engine: single-evaluation latency
// and selected-inversion throughput vs partitions), hybrid (two-level
// ranks × partitions distributed BTA solver cycle times), latency
// (closed-loop clients against the replicated HTTP serving path:
// p50/p99/p999 request latency and throughput), recovery (crash recovery:
// restart-from-store vs refit cost for a registry of fitted models, failing
// unless the recovered predictions are byte-identical). The last four
// compare against nothing; -out writes their measurements as JSON.
package main

import (
	"flag"
	"fmt"
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

func figExp(name, desc string, f func(bool) (*bench.Figure, error)) experiment {
	return experiment{name: name, desc: desc, run: func(quick bool) error {
		fig, err := f(quick)
		if err != nil {
			return err
		}
		fig.Fprint(os.Stdout)
		return nil
	}}
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiments or 'all'")
	quick := flag.Bool("quick", false, "trim sweeps for fast runs")
	out := flag.String("out", "", "write the kernels/serving/pintime/hybrid/latency/recovery experiment's JSON measurements to this path")
	compare := flag.String("compare", "", "kernels/serving: compare against this stored baseline and exit 1 on a >-maxregress rate regression")
	maxRegress := flag.Float64("maxregress", 0.25, "maximum tolerated fractional rate regression in -compare mode")
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

	experiments := []experiment{
		{"table1", "framework capability matrix (Table I)", func(bool) error {
			bench.Table1().Fprint(os.Stdout)
			return nil
		}},
		{"table4", "dataset dimensions, paper and scaled (Table IV)", func(bool) error {
			bench.Table4().Fprint(os.Stdout)
			return nil
		}},
		figExp("fig4", "strong scaling vs INLA_DIST-like and R-INLA-like (MB1)", bench.Fig4),
		figExp("fig5", "distributed solver weak scaling with/without lb (MB2)", bench.Fig5),
		figExp("fig6a", "weak scaling through the time domain (WA1)", bench.Fig6a),
		figExp("fig6b", "weak scaling through mesh refinement + memory cap (WA2)", bench.Fig6b),
		figExp("fig7", "application-level strong scaling (SA1)", bench.Fig7),
		{"app", "air-pollution application study (§VI, AP1)", func(quick bool) error {
			rep, err := bench.App(quick)
			if err != nil {
				return err
			}
			bench.PrintApp(rep, os.Stdout)
			return nil
		}},
		figExp("x1", "ablation: cached vs naive sparse→dense mapping (§IV-F)", bench.AblationMapping),
		figExp("x3", "ablation: BTA solver vs general sparse Cholesky", bench.AblationBTAvsSparse),
		figExp("x4", "ablation: S2 pipeline on/off at fixed resources", bench.AblationS2),
		figExp("x5", "ablation: load-balance factor sweep (§V-C)", bench.AblationLB),
		{"kernels", "dense BLAS-3 engine microbenchmarks (tiled vs naive)", func(quick bool) error {
			base := bench.Kernels(quick)
			bench.PrintKernels(base, os.Stdout)
			if *out != "" {
				if err := bench.WriteBaseline(base, *out); err != nil {
					return err
				}
				fmt.Printf("    baseline written to %s\n", *out)
			}
			if *compare != "" {
				stored, err := bench.LoadBaseline(*compare)
				if err != nil {
					return err
				}
				regs := bench.CompareKernels(base, stored, *maxRegress)
				if len(regs) > 0 {
					for _, r := range regs {
						fmt.Fprintf(os.Stderr, "    REGRESSION %s\n", r)
					}
					return fmt.Errorf("%d GEMM regression(s) beyond %.0f%% vs %s", len(regs), *maxRegress*100, *compare)
				}
				fmt.Printf("    no GEMM regression beyond %.0f%% vs %s\n", *maxRegress*100, *compare)
			}
			return nil
		}},
		{"serving", "posterior-prediction serving throughput (engine + HTTP paths)", func(quick bool) error {
			base, err := bench.Serving(quick)
			if err != nil {
				return err
			}
			bench.PrintServing(base, os.Stdout)
			if *out != "" {
				if err := bench.WriteServingBaseline(base, *out); err != nil {
					return err
				}
				fmt.Printf("    baseline written to %s\n", *out)
			}
			if *compare != "" {
				stored, err := bench.LoadServingBaseline(*compare)
				if err != nil {
					return err
				}
				regs := bench.CompareServing(base, stored, *maxRegress)
				if len(regs) > 0 {
					for _, r := range regs {
						fmt.Fprintf(os.Stderr, "    REGRESSION %s\n", r)
					}
					return fmt.Errorf("%d serving regression(s) beyond %.0f%% vs %s", len(regs), *maxRegress*100, *compare)
				}
				fmt.Printf("    no engine-path regression beyond %.0f%% vs %s\n", *maxRegress*100, *compare)
			}
			return nil
		}},
		{"latency", "serving tail latency under concurrent closed-loop load (replicated snapshot path)", func(quick bool) error {
			base, err := bench.Latency(quick)
			if err != nil {
				return err
			}
			bench.PrintLatency(base, os.Stdout)
			if *out != "" {
				if err := bench.WriteLatencyBaseline(base, *out); err != nil {
					return err
				}
				fmt.Printf("    baseline written to %s\n", *out)
			}
			return nil
		}},
		{"recovery", "crash recovery: restart-from-store vs refit (byte-identical predictions)", func(quick bool) error {
			base, err := bench.Recovery(quick)
			if err != nil {
				return err
			}
			bench.PrintRecovery(base, os.Stdout)
			if *out != "" {
				if err := bench.WriteRecoveryBaseline(base, *out); err != nil {
					return err
				}
				fmt.Printf("    baseline written to %s\n", *out)
			}
			return nil
		}},
		{"hybrid", "hybrid two-level (ranks × partitions) distributed BTA solver", func(quick bool) error {
			base, err := bench.Hybrid(quick)
			if err != nil {
				return err
			}
			bench.PrintHybrid(base, os.Stdout)
			if *out != "" {
				if err := bench.WriteHybridBaseline(base, *out); err != nil {
					return err
				}
				fmt.Printf("    baseline written to %s\n", *out)
			}
			return nil
		}},
		{"pintime", "parallel-in-time BTA engine (single-eval latency, selected-inversion throughput)", func(quick bool) error {
			base, err := bench.Pintime(quick)
			if err != nil {
				return err
			}
			bench.PrintPintime(base, os.Stdout)
			if *out != "" {
				if err := bench.WritePintimeBaseline(base, *out); err != nil {
					return err
				}
				fmt.Printf("    baseline written to %s\n", *out)
			}
			return nil
		}},
	}

	want := map[string]bool{}
	runAll := *expFlag == "all"
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}

	// -out is honored by several experiments; refuse a selection where a
	// later one would silently overwrite an earlier one's file.
	nOut := 0
	for _, name := range []string{"kernels", "serving", "pintime", "hybrid", "latency", "recovery"} {
		if runAll || want[name] {
			nOut++
		}
	}
	if *out != "" && nOut > 1 {
		fmt.Fprintln(os.Stderr, "-out with several baseline-writing experiments selected would write them to one path; pick one of kernels/serving/pintime/hybrid/latency/recovery")
		os.Exit(2)
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
