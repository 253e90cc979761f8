// Command benchmark is the repository's one end-to-end benchmark: it takes
// one model (a workload) through build → fit → publish → predict, checks
// the outputs, and prints every metric by name with its unit. The last
// line of standard output is the machine-readable result.
//
//	go run ./benchmark --workload fit_uni_gauss --seed 1            # the end-to-end metrics
//	go run ./benchmark --workload fit_uni_gauss --seed 1 --trace 1  # per-layer ledger + spans
//	go run ./benchmark --workload fit_uni_gauss --seed 1 --aa 5     # A/A test of the bounds
//
// See README.md for the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 25

// bound is the regression bound of every end-to-end metric: the share of
// the parent's median by which a metric may get worse. It is the contract's
// maximum. issueBound is what ISSUE 13 asked for and the reference host
// supports only in its quiet hours (README.md, "Bounds"): that acceptance
// criterion is not met, and --aa says so for every metric it misses on.
const (
	bound      = 0.25
	issueBound = 0.10
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fit_uni_gauss, fit_tri_gauss, fit_bi_poisson or serve_predict")
	seed := fs.Int64("seed", 1, "seed of the dataset, the query pools and the request mix")
	seconds := fs.Float64("seconds", defaultSeconds, "how long an untraced run cycles through fits, requests and set-ups")
	trace := fs.Int("trace", 0, "1 makes the separate traced run that yields the per-layer metrics")
	traceOut := fs.String("trace-out", "", "where the traced run writes its spans (default .bench_out/trace-<workload>-<seed>.json)")
	aa := fs.Int("aa", 0, "run the workload 2N times and compare the medians of alternating sets A and B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be at least 1")
		return 2
	}
	if *aa > 0 {
		return runAA(w, *seed, *seconds, *aa, stdout, stderr)
	}
	var res *result
	if *trace == 0 {
		res, err = runUntraced(w, *seed, *seconds, stderr)
	} else {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_out", fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		}
		res, err = runTraced(w, *seed, path, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if res.c.failed > 0 {
		return 1
	}
	return 0
}

// print writes the human-readable report, then the result object the
// driver reads as the last line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d\n", r.workload, r.seed)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricJSON{}
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.c.fail("metric %s was not measured", d.name)
			v = 0
		}
		if r.na[d.name] {
			fmt.Fprintf(w, "%-32s %14s %s (not applicable to this workload; 0 in the result object)\n", d.name, "n/a", d.unit)
		} else {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v, d.unit)
		}
		metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "checks: %d operations attempted, %d failed\n", r.c.attempted, r.c.failed)
	for _, m := range r.c.msgs {
		fmt.Fprintln(w, "  FAILED:", m)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.c.failed == 0, max(r.c.attempted, 1), r.c.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAA is the A/A test of the regression bounds: 2N runs of the same code,
// alternately assigned to sets A and B (run i of either set uses seed
// base+i). It exits non-zero when two set medians differ by more than the
// gated bound, and marks every difference above ISSUE 13's 0.10.
func runAA(w *workload, seed int64, seconds float64, n int, stdout, stderr io.Writer) int {
	sets := [2]map[string][]float64{{}, {}}
	failed := 0
	for i := 0; i < 2*n; i++ {
		res, err := runUntraced(w, seed+int64(i/2), seconds, io.Discard)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		failed += res.c.failed
		for _, d := range endToEnd {
			sets[i%2][d.name] = append(sets[i%2][d.name], res.values[d.name])
		}
		fmt.Fprintf(stderr, "# aa run %d/%d (set %c, seed %d): %d failed checks\n", i+1, 2*n, 'A'+rune(i%2), seed+int64(i/2), res.c.failed)
	}
	fmt.Fprintf(stdout, "A/A %s: %d runs per set, %g s each\n", w.name, n, seconds)
	fmt.Fprintf(stdout, "%-22s %14s %14s %9s %10s\n", "metric", "median A", "median B", "diff", "bound")
	code, missed := 0, 0
	for _, d := range endToEnd {
		a, b := median(sets[0][d.name]), median(sets[1][d.name])
		diff := math.Abs(b-a) / a
		limit := fmt.Sprintf("%.0f%%", 100*bound)
		verdict := ""
		switch {
		case diff > bound:
			verdict, code = "  EXCEEDS THE BOUND", 1
			missed++
		case diff > issueBound:
			verdict = fmt.Sprintf("  above the issue's %.0f%%", 100*issueBound)
			missed++
		}
		fmt.Fprintf(stdout, "%-22s %14.6g %14.6g %8.2f%% %10s%s\n", d.name, a, b, 100*diff, limit, verdict)
	}
	fmt.Fprintf(stdout, "%d of %d differences are above ISSUE 13's %.0f%%\n", missed, len(endToEnd), 100*issueBound)
	if failed > 0 {
		fmt.Fprintf(stdout, "%d output checks failed\n", failed)
		code = 1
	}
	return code
}
