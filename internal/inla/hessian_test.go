package inla

import (
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// planEvaluator wraps the analytic quadratic evaluator with a synthetic
// scheduling plan (cores × time blocks) and records every batch width it
// receives, so the Hessian stage's plan-aligned splitting is observable.
type planEvaluator struct {
	quadEvaluator
	cores, nt int
	pinned    int // pinned parallel-in-time width (0 = plan per batch)
	widths    []int
}

func (e *planEvaluator) StencilPlan(width int) SharedPlan {
	plan := PlanBatch(width, e.cores, e.nt, false)
	if e.pinned > 0 {
		plan.Partitions = e.pinned
	}
	return plan
}

func (e *planEvaluator) EvalBatch(points [][]float64) []float64 {
	e.widths = append(e.widths, len(points))
	return e.quadEvaluator.EvalBatch(points)
}

func quadProblem(d int) (*dense.Matrix, []float64) {
	q := dense.New(d, d)
	for i := 0; i < d; i++ {
		q.Set(i, i, float64(2+i))
		if i > 0 {
			q.Set(i, i-1, 0.5)
			q.Set(i-1, i, 0.5)
		}
	}
	c := make([]float64, d)
	for i := range c {
		c[i] = 0.3 * float64(i+1)
	}
	return q, c
}

// TestHessianStencilSplitsAtPlanBoundary: a small-d stencil on a wide
// machine is split into full-core chunks plus a narrow tail whose plan
// routes the spare cores into factorization partitions — and the split
// batches produce the exact same Hessian as the single wide batch (same
// points, same per-point arithmetic).
func TestHessianStencilSplitsAtPlanBoundary(t *testing.T) {
	q, c := quadProblem(3) // d=3: 1 + 2d + 2d(d−1) = 19 stencil points
	const h = 1e-3

	// Reference: plain Evaluator, one batch of 19.
	ref := &quadEvaluator{q: q, c: c}
	want, err := HessianAtMode(ref, c, h)
	if err != nil {
		t.Fatal(err)
	}

	// Planner with 8 cores and a deep time dimension: 19 = 2×8 + 3, and the
	// width-3 tail plan carries partitions > 1 → split into [16, 3].
	pe := &planEvaluator{quadEvaluator: quadEvaluator{q: q, c: c}, cores: 8, nt: 64}
	got, err := HessianAtMode(pe, c, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(pe.widths) != 2 || pe.widths[0] != 16 || pe.widths[1] != 3 {
		t.Fatalf("batch widths %v, want [16 3]", pe.widths)
	}
	if !got.Equal(want, 0) {
		t.Fatal("split stencil changed the Hessian")
	}
	// The estimate is still the quadratic's exact Hessian.
	if !got.Equal(q, 1e-5) {
		t.Fatal("Hessian estimate off")
	}
}

// TestHessianStencilNoSplit: no split when the batch already fits the core
// budget, when the tail divides evenly, or when the time dimension is too
// shallow for the tail to absorb spare cores.
func TestHessianStencilNoSplit(t *testing.T) {
	q, c := quadProblem(3)
	const h = 1e-3

	// Width 19 ≤ 32 cores: a single batch (EvalBatch partitions internally).
	pe := &planEvaluator{quadEvaluator: quadEvaluator{q: q, c: c}, cores: 32, nt: 64}
	if _, err := HessianAtMode(pe, c, h); err != nil {
		t.Fatal(err)
	}
	if len(pe.widths) != 1 || pe.widths[0] != 19 {
		t.Fatalf("batch widths %v, want [19]", pe.widths)
	}

	// d=2: width 9 over 3 cores divides evenly — nothing to gain from a
	// split.
	q2, c2 := quadProblem(2)
	pe = &planEvaluator{quadEvaluator: quadEvaluator{q: q2, c: c2}, cores: 3, nt: 64}
	if _, err := HessianAtMode(pe, c2, h); err != nil {
		t.Fatal(err)
	}
	if len(pe.widths) != 1 || pe.widths[0] != 9 {
		t.Fatalf("batch widths %v, want [9]", pe.widths)
	}

	// Shallow time dimension: the tail plan cannot partition, keep one batch.
	pe = &planEvaluator{quadEvaluator: quadEvaluator{q: q, c: c}, cores: 8, nt: 4}
	if _, err := HessianAtMode(pe, c, h); err != nil {
		t.Fatal(err)
	}
	if len(pe.widths) != 1 {
		t.Fatalf("batch widths %v, want one batch", pe.widths)
	}

	// Pinned width: both chunks would run at the identical partition count,
	// so splitting would only serialize — keep one batch.
	pe = &planEvaluator{quadEvaluator: quadEvaluator{q: q, c: c}, cores: 8, nt: 64, pinned: 2}
	if _, err := HessianAtMode(pe, c, h); err != nil {
		t.Fatal(err)
	}
	if len(pe.widths) != 1 {
		t.Fatalf("batch widths %v, want one batch under a pinned width", pe.widths)
	}
}

// TestBTAEvaluatorStencilPlan: the evaluator's plan hook matches PlanBatch
// and honors a pinned partitions seam, and the Hessian stage sees it
// through the Evaluator interface.
func TestBTAEvaluatorStencilPlan(t *testing.T) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 32, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 8,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5), Workers: 8}
	plan := e.StencilPlan(3)
	wantParts := PlanBatch(3, 8, ds.Model.Dims.Nt, false).Partitions
	if plan.Cores != 8 || plan.Partitions != wantParts {
		t.Fatalf("plan %+v, want cores 8 partitions %d", plan, wantParts)
	}
	e.partitions = 2
	if p := e.StencilPlan(3); p.Partitions != 2 {
		t.Fatalf("pinned partitions not honored: %+v", p)
	}
	var iface Evaluator = e
	if _, ok := iface.(StencilPlanner); !ok {
		t.Fatal("BTAEvaluator must implement StencilPlanner through Evaluator")
	}
}
