package inla

import (
	"runtime"

	"github.com/dalia-hpc/dalia/internal/bta"
)

// SharedPlan is the shared-memory counterpart of the distributed Plan: how
// one evaluation batch spends the machine's cores across the nested
// parallelization layers. It generalizes MakePlan's fill-S1-first policy to
// goroutine scheduling: wide gradient/Hessian batches keep all cores on
// point-level parallelism (S1), while narrow batches — the line-search
// probes of the BFGS loop, posterior extraction, mode factorization —
// spend the spare cores inside each factorization as parallel-in-time
// partitions (S3 in shared-memory form, bta.ParallelFactor).
type SharedPlan struct {
	// Width is the batch width the plan was computed for.
	Width int
	// Cores is the core budget the plan distributes.
	Cores int
	// PointWorkers is the S1 width: concurrently evaluated θ-points.
	PointWorkers int
	// S2 splits each point's evaluation into the concurrent Q_p and Q_c
	// pipelines.
	S2 bool
	// Partitions is the within-factorization parallel-in-time width each
	// pipeline runs at (1 = sequential POBTAF).
	Partitions int
	// Recursion is the reduced-system nesting depth the factorizations run
	// at: at wide Partitions the 2P−2 reduced boundary system is itself
	// factorized by a nested partition gang instead of a sequential sweep
	// (bta.ReducedOptions.Depth). 0 = sequential reduced solve.
	Recursion int
	// PipelineReduced streams partitions' boundary contributions into the
	// reduced assembly as each interior elimination finishes, overlapping
	// the reduced phase with the interior-sweep tail.
	PipelineReduced bool
}

// recursionWorthwhileWidth is the partition count from which the reduced
// system reaches bta.DefaultReducedCrossover blocks (2P−2 ≥ crossover), so
// the plan turns recursive nesting on.
const recursionWorthwhileWidth = bta.DefaultReducedCrossover/2 + 1

// maxUsefulPartitions is bta.MaxUsefulPartitions: the diminishing-returns
// bound on the parallel-in-time width (§V-B's strong-scaling knee).
func maxUsefulPartitions(n int) int { return bta.MaxUsefulPartitions(n) }

// PlanBatch computes the shared-memory layer assignment for one batch of
// width points on a budget of cores (0 = GOMAXPROCS) over a model with
// ntBlocks time steps. Policy, mirroring §V-D: fill S1 first — one worker
// per point up to the core budget; give each point's S2 pipelines their
// own core when the budget allows; spend whatever is left inside the
// factorizations as parallel-in-time partitions.
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
	if mx := maxUsefulPartitions(ntBlocks); parts > mx {
		parts = mx
	}
	if parts < 1 {
		parts = 1
	}
	plan := SharedPlan{
		Width:        width,
		Cores:        cores,
		PointWorkers: pw,
		S2:           s2,
		Partitions:   parts,
	}
	plan.applyReducedDefaults()
	return plan
}

// applyReducedDefaults sets the reduced-engine policy for the plan's
// partition width: wide gangs hit the §V-B reduced-system knee, so one
// level of recursive nesting and the pipelined handoff turn on once the
// reduced system is big enough for either to pay.
func (p *SharedPlan) applyReducedDefaults() {
	p.Recursion, p.PipelineReduced = 0, false
	if p.Partitions >= recursionWorthwhileWidth {
		p.Recursion, p.PipelineReduced = 1, true
	}
}
