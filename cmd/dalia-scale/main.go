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
//
// Speedup and efficiency are relative to the first width of -workers.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	dalia "github.com/dalia-hpc/dalia"
)

func main() {
	workersFlag := flag.String("workers", "1,4,16", "comma-separated worker counts")
	nv := flag.Int("nv", 3, "number of response variables")
	nt := flag.Int("nt", 8, "time steps")
	nr := flag.Int("nr", 1, "fixed effects per process")
	meshNx := flag.Int("mesh-nx", 5, "mesh vertices in x")
	meshNy := flag.Int("mesh-ny", 4, "mesh vertices in y")
	obs := flag.Int("obs", 15, "observations per time step")
	memcap := flag.Int64("memcap", 0, "modeled device memory in bytes (0 = unlimited)")
	iters := flag.Int("iters", 1, "BFGS iterations to simulate (at most; a converged search stops early)")
	seed := flag.Int64("seed", 31, "dataset seed")
	flag.Parse()

	var workers []int
	for _, w := range strings.Split(*workersFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(w))
		if err != nil || v < 1 {
			log.Fatalf("bad worker count %q", w)
		}
		workers = append(workers, v)
	}

	// Validate flag combinations up front — a clear error beats a sweep
	// that silently ignores an unsupported pair.
	if *iters < 1 {
		log.Fatalf("-iters %d: at least one BFGS iteration", *iters)
	}

	ds, err := dalia.Generate(dalia.GenConfig{
		Nv: *nv, Nt: *nt, Nr: *nr,
		MeshNx: *meshNx, MeshNy: *meshNy,
		ObsPerStep: *obs,
		Seed:       *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	m := ds.Model
	prior := dalia.WeakPrior(ds.Theta0, 5)
	fmt.Printf("model: nv=%d ns=%d nt=%d nr=%d  dim(θ)=%d  gradient batch width %d\n\n",
		m.Dims.Nv, m.Dims.Ns, m.Dims.Nt, m.Dims.Nr, m.NumHyper(), 2*m.NumHyper()+1)
	fmt.Printf("%8s  %10s  %9s  %7s  %-22s %12s\n",
		"workers", "s/iter", "speedup", "eff %", "plan", "max-imbal")

	var t0 float64
	for _, w := range workers {
		rep, err := dalia.RunCluster(m, prior, ds.Theta0, dalia.ClusterConfig{
			World:       w,
			Machine:     dalia.DefaultMachine(),
			Iterations:  *iters,
			MemCapBytes: *memcap,
		})
		if err != nil {
			log.Fatal(err)
		}
		if t0 == 0 {
			t0 = rep.PerIter
		}
		plan := fmt.Sprintf("S1×%d", rep.Plan.Groups)
		if w := rep.Plan.SolverWidths[0]; w > 1 {
			plan += fmt.Sprintf("+S3×%d", w)
		}
		speedup, eff := scaling(t0, workers[0], rep.PerIter, w)
		fmt.Printf("%8d  %10.4f  %8.1fx  %7.1f  %-22s %11.2fx\n",
			w, rep.PerIter, speedup, eff, plan, rep.Stats.Imbalance())
	}
}

// scaling returns the speedup t0/t and the parallel efficiency in percent,
// 100·t0·w0/(t·w), of a run of t seconds per iteration on w workers against
// the reference run of t0 seconds on w0 workers.
func scaling(t0 float64, w0 int, t float64, w int) (speedup, effPct float64) {
	return t0 / t, 100 * t0 * float64(w0) / (t * float64(w))
}
