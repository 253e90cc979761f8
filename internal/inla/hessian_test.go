package inla

import (
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// planEvaluator wraps the analytic quadratic evaluator with a core budget
// and records every batch width it receives.
type planEvaluator struct {
	quadEvaluator
	cores  int
	widths []int
}

func (e *planEvaluator) StencilPlan(width int) SharedPlan { return SharedPlan{Cores: e.cores} }

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

// TestBTAEvaluatorStencilPlan: the evaluator's plan hook reports its core
// budget at every width, and the line search reads it through the
// Evaluator interface.
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
	for _, width := range []int{1, 3, 8, 33} {
		if plan := e.StencilPlan(width); plan != (SharedPlan{Cores: 8}) {
			t.Fatalf("width %d: plan %+v, want 8 cores", width, plan)
		}
	}
	var iface Evaluator = e
	if _, ok := iface.(StencilPlanner); !ok {
		t.Fatal("BTAEvaluator must implement StencilPlanner through Evaluator")
	}
	if k := lineSearchWidth(iface); k != 8 {
		t.Fatalf("line search batches %d candidates, want 8", k)
	}
}
