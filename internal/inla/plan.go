package inla

import (
	"runtime"

	"github.com/dalia-hpc/dalia/internal/bta"
)

// SharedPlan is the shared-memory counterpart of the distributed Plan: how
// one evaluation batch spends the machine's cores across the nested
// parallelization layers. It generalizes MakePlan's fill-S1-first policy to
// goroutine scheduling: wide gradient/Hessian batches keep all cores on
// point-level parallelism (S1), while narrow batches — a Hessian stencil's
// tail — spend the spare cores inside each factorization as parallel-in-time
// partitions (S3 in shared-memory form, bta.ParallelFactor). A width-1
// batch gets at most nt/4 partitions and, under S2, half the cores, so on
// few cores or short time series it runs sequentially; the BFGS line search
// therefore batches as many candidate steps as the width-1 plan leaves
// cores for (Minimize).
type SharedPlan struct {
	// Width is the batch width the plan was computed for.
	Width int
	// Cores is the core budget the plan distributes.
	Cores int
	// PointWorkers is the S1 width: concurrently evaluated θ-points.
	PointWorkers int
	// Partitions is the within-factorization parallel-in-time width
	// (1 = sequential POBTAF).
	Partitions int
}

// PlanBatch computes the shared-memory layer assignment for one batch of
// width points on a budget of cores (0 = GOMAXPROCS) over a model with
// ntBlocks time steps. Policy, mirroring §V-D: fill S1 first — one worker
// per point up to the core budget; spend what is left (half of it under
// s2) inside the factorization as parallel-in-time partitions.
func PlanBatch(width, cores, ntBlocks int, s2 bool) SharedPlan {
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	if width < 1 {
		width = 1
	}
	pw := width
	if pw > cores {
		pw = cores
	}
	spare := cores / pw
	perPipeline := spare
	if s2 && spare >= 2 {
		perPipeline = spare / 2
	}
	parts := perPipeline
	if mx := bta.MaxUsefulPartitions(ntBlocks); parts > mx {
		parts = mx
	}
	if parts < 1 {
		parts = 1
	}
	return SharedPlan{
		Width:        width,
		Cores:        cores,
		PointWorkers: pw,
		Partitions:   parts,
	}
}
