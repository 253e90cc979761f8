package inla

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
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

// hessianPoint is a Gaussian model with its prior and a θ to take the
// Hessian at.
type hessianPoint struct {
	name  string
	m     *model.Model
	prior Prior
	theta []float64
}

// hessianPoints are the three Gaussian benchmark shapes at the benchmark's
// θ₁ (one BFGS iteration from θ₀ at seed 1, the benchmark's recipe) and at
// the converged modes of seeds 1–3, and the diffusion shape of
// gradientShapes at its point and one iteration on. The diffusion shape's
// search does not converge (its line search fails at seeds 1–3 with
// ‖∂V‖∞ of 0.9–11), so it has no mode to test at.
func hessianPoints(t *testing.T) []hessianPoint {
	t.Helper()
	theta1 := func(m *model.Model, prior Prior, theta0 []float64) []float64 {
		opt := DefaultOptOptions()
		opt.MaxIter, opt.GradTol = 1, 0
		res, err := Minimize(&BTAEvaluator{Model: m, Prior: prior}, theta0, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Theta
	}
	var out []hessianPoint
	for _, name := range []string{"fit_uni_gauss", "fit_tri_gauss", "serve_predict"} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := benchmarkShapes(t)[name]
			cfg.Seed = seed
			ds, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, prior := ds.Model, WeakPrior(ds.Theta0, 5)
			if seed == 1 {
				out = append(out, hessianPoint{name + ", θ₁", m, prior, theta1(m, prior, ds.Theta0)})
			}
			res, err := Minimize(&BTAEvaluator{Model: m, Prior: prior}, ds.Theta0, DefaultOptOptions())
			if err != nil || !res.Converged {
				t.Fatalf("%s, seed %d: the search did not converge (%v)", name, seed, err)
			}
			out = append(out, hessianPoint{fmt.Sprintf("%s, mode of seed %d", name, seed), m, prior, res.Theta})
		}
	}
	ds := gradientShapes(t)["diffusion"]
	prior := WeakPrior(ds.Theta0, 5)
	return append(out,
		hessianPoint{"diffusion, θ₀", ds.Model, prior, ds.Theta0},
		hessianPoint{"diffusion, θ₁", ds.Model, prior, theta1(ds.Model, prior, ds.Theta0)})
}

// TestHessianFromGradientsMatchesStencil is the Hessian's oracle: on the
// Gaussian benchmark shapes (hessianPoints) the forward differences of
// exact gradients agree with the 2d² + 1-point stencil at Fit's step 5e-3
// to 1e-4 of the stencil's largest entry, and are bit-identical at Workers
// 1, 2 and 8. The diffusion shape's Hessian is the stencil's, bit for bit:
// that prior's gradient is too rough for a forward difference.
func TestHessianFromGradientsMatchesStencil(t *testing.T) {
	for _, pt := range hessianPoints(t) {
		want, err := hessianFromStencil(&BTAEvaluator{Model: pt.m, Prior: pt.prior}, pt.theta, 5e-3)
		if err != nil {
			t.Fatalf("%s: stencil: %v", pt.name, err)
		}
		var got *dense.Matrix
		for _, workers := range []int{1, 2, 8} {
			h, err := HessianAtMode(&BTAEvaluator{Model: pt.m, Prior: pt.prior, Workers: workers}, pt.theta, 5e-3)
			if err != nil {
				t.Fatalf("%s, Workers %d: %v", pt.name, workers, err)
			}
			if got == nil {
				got = h
			} else if !slices.Equal(h.Data, got.Data) {
				t.Fatalf("%s: the Hessian at Workers %d differs from Workers 1's", pt.name, workers)
			}
		}
		var scale, worst float64
		for i, v := range want.Data {
			scale = math.Max(scale, math.Abs(v))
			worst = math.Max(worst, math.Abs(got.Data[i]-v))
		}
		if pt.m.ST == model.STDiffusion && worst != 0 {
			t.Errorf("%s: the diffusion prior's Hessian is not the stencil's", pt.name)
		}
		t.Logf("%s: max|H − H_stencil| = %.2g of max|H_stencil| = %.3g", pt.name, worst/scale, scale)
		if worst > 1e-4*scale {
			t.Errorf("%s: max|H − H_stencil| = %.3g, %.2g of max|H_stencil|", pt.name, worst, worst/scale)
		}
	}
}

// BenchmarkHessianAtMode times the mode Hessian at the benchmark's θ₁ on
// the fit_uni_gauss and fit_tri_gauss shapes by both routes: from exact
// gradients, with the base gradient the search's last request left (as
// in Fit), and by the 2d² + 1-point stencil at Fit's step. It reports the
// gradient requests, or the evaluations, per Hessian.
func BenchmarkHessianAtMode(b *testing.B) {
	for _, name := range []string{"fit_uni_gauss", "fit_tri_gauss"} {
		ds, err := synth.Generate(benchmarkShapes(b)[name])
		if err != nil {
			b.Fatal(err)
		}
		e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5)}
		opt := DefaultOptOptions()
		opt.MaxIter, opt.GradTol = 1, 0
		res, err := Minimize(e, ds.Theta0, opt)
		if err != nil {
			b.Fatal(err)
		}
		base := e.grads.Swap(nil) // the last request's: at θ₁
		b.Run(name+"/gradients", func(b *testing.B) {
			n0 := e.gradRequests.Load()
			for i := 0; i < b.N; i++ {
				if _, base, err = e.hessianFromGradients(res.Theta, base); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.gradRequests.Load()-n0)/float64(b.N), "requests/op")
		})
		b.Run(name+"/stencil", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hessianFromStencil(e, res.Theta, DefaultFitOptions().HessStep); err != nil {
					b.Fatal(err)
				}
			}
			d := len(res.Theta)
			b.ReportMetric(float64(2*d*d+1), "evals/op")
		})
	}
}
