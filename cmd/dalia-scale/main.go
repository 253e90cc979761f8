// dalia-scale runs free-form scaling sweeps of the layered parallel scheme
// (S1 evaluation groups, each an S3 solver of one time partition per rank)
// on the simulated distributed machine and prints the virtual-time report
// for each width; the plan column reads S1×groups+S3×w, w the ranks of
// each group that factorize (Plan.SolverWidths; at most
// bta.MaxPartitions(nt), so a wider group idles its last ranks), which
// split the time blocks as the shared-memory parallel factor does
// (bta.Partitions).
// s/iter is the virtual time of the run divided by its BFGS iterations; an
// iteration is a line search plus a gradient batch, and the run's first
// gradient batch at θ0 is charged to it too.
//
// Usage:
//
//	dalia-scale -workers 1,4,16,31 -nv 3 -nt 8
//	dalia-scale -workers 8 -memcap 3145728     # force S3 via memory cap
//	dalia-scale -fig fig7                      # a paper figure, every point
//	dalia-scale -fig fig4 -workers 1,4,9       # only the points on 1, 4, 9 workers
//
// Speedup and efficiency are relative to the first width of -workers.
//
// -fig runs one of the paper's evaluation figures on its scaled Table IV
// dataset and prints its series with the paper's numbers as notes: fig4,
// fig5, fig6a, fig6b, fig7 or table4 (figures.go). With -fig, an explicit
// -workers keeps only the figure's points on the listed worker counts (a
// table has none, so -workers is an error there), and the dataset flags,
// -memcap and -iters, which the figure fixes, are errors. Flag errors exit
// 2 before anything runs; a failed run exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	dalia "github.com/dalia-hpc/dalia"
)

// figureFixed names the flags a -fig preset sets itself.
var figureFixed = []string{"nv", "nt", "nr", "mesh-nx", "mesh-ny", "obs", "seed", "memcap", "iters"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses and checks every flag, then runs the
// free-form sweep or the -fig preset, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dalia-scale", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workersFlag := fs.String("workers", "1,4,16", "comma-separated worker counts")
	nv := fs.Int("nv", 3, "number of response variables")
	nt := fs.Int("nt", 8, "time steps")
	nr := fs.Int("nr", 1, "fixed effects per process")
	meshNx := fs.Int("mesh-nx", 5, "mesh vertices in x")
	meshNy := fs.Int("mesh-ny", 4, "mesh vertices in y")
	obs := fs.Int("obs", 15, "observations per time step")
	memcap := fs.Int64("memcap", 0, "modeled device memory in bytes (0 = unlimited)")
	iters := fs.Int("iters", 1, "BFGS iterations to simulate (at most; a converged search stops early)")
	seed := fs.Int64("seed", 31, "dataset seed")
	figNames := slices.Sorted(maps.Keys(figures))
	figName := fs.String("fig", "", "paper figure to run: "+strings.Join(figNames, ", "))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dalia-scale: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	var workers []int
	for _, w := range strings.Split(*workersFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(w))
		if err != nil || v < 1 {
			return usage("bad worker count %q", w)
		}
		workers = append(workers, v)
	}
	if *iters < 1 {
		return usage("-iters %d: at least one BFGS iteration", *iters)
	}
	if *memcap < 0 {
		return usage("-memcap %d: negative device memory (0 = unlimited)", *memcap)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if set["fig"] {
		fig, ok := figures[*figName]
		if !ok {
			return usage("unknown figure %q; known: %s", *figName, strings.Join(figNames, " "))
		}
		for _, name := range figureFixed {
			if set[name] {
				return usage("-%s: -fig %s fixes its dataset, machine and iterations", name, *figName)
			}
		}
		points := fig.workers
		if set["workers"] && points == nil {
			return usage("-workers: -fig %s is a table without points", *figName)
		}
		if set["workers"] {
			points = slices.DeleteFunc(slices.Clone(points), func(w int) bool { return !slices.Contains(workers, w) })
			if len(points) == 0 {
				return usage("-fig %s has no point on workers %s (its points: %v)", *figName, *workersFlag, fig.workers)
			}
		}
		f, err := fig.run(points)
		if err != nil {
			fmt.Fprintf(stderr, "dalia-scale: %s: %v\n", *figName, err)
			return 1
		}
		f.Fprint(stdout)
		return 0
	}

	ds, err := dalia.Generate(dalia.GenConfig{
		Nv: *nv, Nt: *nt, Nr: *nr,
		MeshNx: *meshNx, MeshNy: *meshNy,
		ObsPerStep: *obs,
		Seed:       *seed,
	})
	if err != nil {
		fmt.Fprintf(stderr, "dalia-scale: %v\n", err)
		return 1
	}
	m := ds.Model
	fmt.Fprintf(stdout, "model: nv=%d ns=%d nt=%d nr=%d  dim(θ)=%d  gradient batch width %d\n\n",
		m.Dims.Nv, m.Dims.Ns, m.Dims.Nt, m.Dims.Nr, m.NumHyper(), 2*m.NumHyper()+1)
	fmt.Fprintf(stdout, "%8s  %10s  %9s  %7s  %-22s %12s\n",
		"workers", "s/iter", "speedup", "eff %", "plan", "max-imbal")
	reps, err := sweep(m, ds.Theta0, workers, *iters, *memcap)
	for i, rep := range reps {
		plan := fmt.Sprintf("S1×%d", rep.Plan.Groups)
		if w := rep.Plan.SolverWidths[0]; w > 1 {
			plan += fmt.Sprintf("+S3×%d", w)
		}
		speedup, eff := scaling(reps[0].PerIter, workers[0], rep.PerIter, workers[i])
		fmt.Fprintf(stdout, "%8d  %10.4f  %8.1fx  %7.1f  %-22s %11.2fx\n",
			workers[i], rep.PerIter, speedup, eff, plan, rep.Stats.Imbalance())
	}
	if err != nil {
		fmt.Fprintf(stderr, "dalia-scale: %v\n", err)
		return 1
	}
	return 0
}

// sweep runs the distributed mode search on m from theta0, under a weak
// prior centred there, once per world size of workers, for at most iters
// BFGS iterations on the default machine with memcap bytes of modeled
// device memory, and returns the reports in order; after a failed run it
// returns the reports before it with the error.
func sweep(m *dalia.Model, theta0 []float64, workers []int, iters int, memcap int64) ([]*dalia.ClusterReport, error) {
	prior := dalia.WeakPrior(theta0, 5)
	var reps []*dalia.ClusterReport
	for _, w := range workers {
		rep, err := dalia.RunCluster(m, prior, theta0, dalia.ClusterConfig{
			World:       w,
			Machine:     dalia.DefaultMachine(),
			Iterations:  iters,
			MemCapBytes: memcap,
		})
		if err != nil {
			return reps, fmt.Errorf("world %d: %w", w, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// scaling returns the speedup t0/t and the parallel efficiency in percent,
// 100·t0·w0/(t·w), of a run of t seconds per iteration on w workers against
// the reference run of t0 seconds on w0 workers.
func scaling(t0 float64, w0 int, t float64, w int) (speedup, effPct float64) {
	return t0 / t, 100 * t0 * float64(w0) / (t * float64(w))
}
