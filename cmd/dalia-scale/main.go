// dalia-scale runs free-form scaling sweeps of the three-layer parallel
// scheme on the simulated distributed machine and prints the virtual-time
// report for each width.
//
// Usage:
//
//	dalia-scale -workers 1,4,16,31 -nv 3 -nt 8
//	dalia-scale -workers 8 -memcap 3145728     # force S3 via memory cap
//	dalia-scale -workers 4 -partitions 2       # hybrid ranks × partitions
//	dalia-scale -workers 8 -nt 64 -reduce-depth 1 -pipeline
//	                                           # recursive reduced system +
//	                                           # pipelined boundary handoff
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
	lb := flag.Float64("lb", 1.6, "S3 load-balance factor")
	partitions := flag.Int("partitions", 1, "S3 partitions per rank (hybrid two-level topology)")
	memcap := flag.Int64("memcap", 0, "modeled device memory in bytes (0 = unlimited)")
	iters := flag.Int("iters", 1, "quasi-Newton iterations to simulate")
	seed := flag.Int64("seed", 31, "dataset seed")
	reduceDepth := flag.Int("reduce-depth", 0, "reduced-system recursion depth (0 = sequential reduced solve)")
	pipeline := flag.Bool("pipeline", false, "stream boundary contributions into the reduced assembly (pipelined handoff)")
	flag.Parse()

	var workers []int
	maxWorkers := 0
	for _, w := range strings.Split(*workersFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(w))
		if err != nil || v < 1 {
			log.Fatalf("bad worker count %q", w)
		}
		workers = append(workers, v)
		if v > maxWorkers {
			maxWorkers = v
		}
	}

	// Validate flag combinations up front — a clear error beats a sweep
	// that silently ignores an unsupported pair.
	if *lb < 1 {
		log.Fatalf("-lb %v: the load-balance factor must be ≥ 1 (1 = even partitions)", *lb)
	}
	if *partitions < 1 {
		log.Fatalf("-partitions %d: the per-rank stream width must be ≥ 1", *partitions)
	}
	if *reduceDepth < 0 || *reduceDepth > dalia.MaxReducedRecursionDepth {
		log.Fatalf("-reduce-depth %d: must be in [0, %d]", *reduceDepth, dalia.MaxReducedRecursionDepth)
	}
	// The runtime clamps the total solver width to what nt can absorb
	// (middle partitions need 2 blocks), so validate against the width the
	// sweep can actually reach, not the raw flag product.
	effWidth := maxWorkers * *partitions
	if mx := (*nt + 2) / 2; effWidth > mx {
		effWidth = mx
	}
	if (*reduceDepth > 0 || *pipeline) && effWidth < 2 {
		log.Fatalf("-reduce-depth/-pipeline act on the reduced boundary system, which only exists when "+
			"ranks × partitions ≥ 2 (got max workers %d × partitions %d at nt=%d); widen -workers, -partitions or -nt",
			maxWorkers, *partitions, *nt)
	}
	// The reduced system has 2·(ranks × partitions)−2 blocks; recursion
	// engages once it reaches the crossover.
	minRecurseWidth := dalia.DefaultReducedCrossover/2 + 1
	if *reduceDepth > 0 && effWidth < minRecurseWidth {
		log.Fatalf("-reduce-depth %d cannot engage below the recursion crossover: the reduced system has "+
			"2·(ranks × partitions)−2 blocks and needs ≥ %d of them (ranks × partitions ≥ %d after the nt=%d clamp); "+
			"widen the sweep or drop the flag",
			*reduceDepth, dalia.DefaultReducedCrossover, minRecurseWidth, *nt)
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
	fmt.Printf("model: nv=%d ns=%d nt=%d nr=%d  dim(θ)=%d → %d evals/iter\n\n",
		m.Dims.Nv, m.Dims.Ns, m.Dims.Nt, m.Dims.Nr, m.NumHyper(), 2*m.NumHyper()+1)
	fmt.Printf("%8s  %10s  %9s  %7s  %-22s %12s\n",
		"workers", "s/iter", "speedup", "eff %", "plan", "max-imbal")

	var t1 float64
	for _, w := range workers {
		rep, err := dalia.RunCluster(m, prior, ds.Theta0, dalia.ClusterConfig{
			World:             w,
			Machine:           dalia.DefaultMachine(),
			Iterations:        *iters,
			LB:                *lb,
			MemCapBytes:       *memcap,
			PartitionsPerRank: *partitions,
			ReduceDepth:       *reduceDepth,
			PipelineReduced:   *pipeline,
		})
		if err != nil {
			log.Fatal(err)
		}
		if t1 == 0 {
			t1 = rep.PerIter * float64(workers[0])
		}
		plan := fmt.Sprintf("S1×%d", rep.Plan.Groups)
		if rep.Plan.UseS2 {
			plan += "+S2"
		}
		if rep.Plan.P3Min > 1 {
			plan += fmt.Sprintf("+S3(≥%d)", rep.Plan.P3Min)
		}
		if rep.Plan.PartitionsPerRank > 1 {
			plan += fmt.Sprintf("×%dq", rep.Plan.PartitionsPerRank)
		}
		if rep.Plan.ReduceDepth > 0 {
			plan += fmt.Sprintf("+R%d", rep.Plan.ReduceDepth)
		}
		if rep.Plan.PipelineReduced {
			plan += "+pipe"
		}
		fmt.Printf("%8d  %10.4f  %8.1fx  %7.1f  %-22s %11.2fx\n",
			w, rep.PerIter,
			t1/(rep.PerIter*float64(workers[0])),
			100*t1/(float64(w)*rep.PerIter*float64(workers[0])),
			plan, rep.Stats.Imbalance())
		// The static flag validation can only bound the raw product; the
		// planner may still route this row's workers to S1 groups whose
		// solver width leaves the reduced-engine flags inert — say so
		// rather than sweeping silently.
		if *reduceDepth > 0 || *pipeline {
			sw := rep.Plan.SolverWidthAt(m.Dims.Nt)
			if sw < 2 {
				fmt.Printf("%8s  note: solver width %d at this row — no reduced system; -reduce-depth/-pipeline inert\n", "", sw)
			} else if *reduceDepth > 0 && 2*sw-2 < dalia.DefaultReducedCrossover {
				fmt.Printf("%8s  note: reduced system has %d blocks at this row (< crossover %d); -reduce-depth inert\n",
					"", 2*sw-2, dalia.DefaultReducedCrossover)
			}
		}
	}
}
