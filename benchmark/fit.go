package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/dalia-hpc/dalia"
	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// checks counts the operations a run attempted and how many failed; the
// first few failure messages are kept for the report.
type checks struct {
	attempted, failed int
	msgs              []string
}

func (c *checks) ok(cond bool, format string, args ...any) bool {
	c.attempted++
	if !cond {
		c.fail(format, args...)
	}
	return cond
}

// merge adds another counter's operations to c.
func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.msgs = append(c.msgs, o.msgs...)
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// priorSD is the weak prior every fit uses (the server's recipe).
const priorSD = 5

// fitOptions is the fixed-work fit recipe of a workload: exactly k BFGS
// iterations (the gradient test can never fire), the Hessian stage on
// unless the workload follows the server's recipe.
func (w *workload) fitOptions() inla.FitOptions {
	o := dalia.DefaultFitOptions()
	o.Opt.MaxIter = w.k
	o.Opt.GradTol = 0
	o.SkipHyperUncertainty = !w.hessian
	return o
}

// gradientStencil is the 2d+1-point batch the mode search evaluates per
// iteration (center, then θ ± h·e_i).
func gradientStencil(theta []float64, h float64) [][]float64 {
	pts := make([][]float64, 2*len(theta)+1)
	for i := range pts {
		pts[i] = append([]float64(nil), theta...)
	}
	for i := range theta {
		pts[1+2*i][i] += h
		pts[2+2*i][i] -= h
	}
	return pts
}

// newEvaluator builds the evaluator inla.Fit builds for default options.
func newEvaluator(ds *synth.Dataset) *inla.BTAEvaluator {
	return &inla.BTAEvaluator{Model: ds.Model, Prior: inla.WeakPrior(ds.Theta0, priorSD), S2: true}
}

// construct is one cold set-up of a workload: dataset, mesh, FEM matrices
// and model.New with its BTA mappings (all inside synth.Generate), then the
// first gradient-stencil batch on a fresh evaluator, which allocates the
// solver arenas.
func (w *workload) construct(seed int64) (*synth.Dataset, error) {
	ds, err := synth.Generate(w.genConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	for _, v := range newEvaluator(ds).EvalBatch(gradientStencil(ds.Theta0, dalia.DefaultFitOptions().Opt.GradStep)) {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("objective is not finite on the gradient stencil at θ₀")
		}
	}
	return ds, nil
}

// fitRep is one timed dalia.Fit.
type fitRep struct {
	res     *inla.Result
	fitS    float64
	iterS   float64 // (K-th checkpoint − start) / K
	allocMB float64
}

func (w *workload) fitOnce(ds *synth.Dataset) (fitRep, error) {
	opts := w.fitOptions()
	var kth time.Time
	opts.Checkpoint = func(ck *inla.OptCheckpoint) error {
		if ck.Iter == w.k {
			kth = time.Now()
		}
		return nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := dalia.Fit(ds.Model, inla.WeakPrior(ds.Theta0, priorSD), ds.Theta0, opts)
	fitS := time.Since(t0).Seconds()
	if err != nil {
		return fitRep{}, err
	}
	runtime.ReadMemStats(&m1)
	rep := fitRep{res: res, fitS: fitS, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}
	if !kth.IsZero() {
		rep.iterS = kth.Sub(t0).Seconds() / float64(w.k)
	}
	return rep, nil
}

// checkFit verifies one fit's outputs on their own: exactly k iterations,
// a decrease of the objective, a finite positive latent posterior.
func (w *workload) checkFit(c *checks, r fitRep) {
	o := r.res.Opt
	c.ok(o.Iterations == w.k && r.iterS > 0, "fit ran %d BFGS iterations, want %d", o.Iterations, w.k)
	c.ok(len(o.Trace) > 0 && o.F < o.Trace[0], "objective did not decrease: F(θ_K)=%g, F(θ₀)=%v", o.F, o.Trace)
	bad := 0
	for _, v := range r.res.LatentVar {
		if !(v > 0) || math.IsInf(v, 0) {
			bad++
		}
	}
	c.ok(bad == 0 && len(r.res.LatentVar) == len(r.res.Mu), "%d latent variances are not positive", bad)
	// ThetaSD exists only where the finite-difference Hessian at θ_K is
	// positive definite, which k fixed iterations do not guarantee; when it
	// exists it must be usable, and without the stage it must be absent.
	sdOK := w.hessian || r.res.ThetaSD == nil
	for _, s := range r.res.ThetaSD {
		if !(s > 0) || math.IsInf(s, 0) {
			sdOK = false
		}
	}
	c.ok(sdOK, "ThetaSD is unusable: %v", r.res.ThetaSD)
}

// checkSameFit verifies a rep did the warm-up's work and found its answer:
// the same evaluation count, θ and F to 1e-9 relative, and the Hessian
// stage agreeing on whether it produced a covariance.
func checkSameFit(c *checks, ref, r fitRep) {
	a, b := ref.res, r.res
	same := a.Opt.FEvals == b.Opt.FEvals && closeTo(b.Opt.F, a.Opt.F, 1e-9) &&
		(a.ThetaSD == nil) == (b.ThetaSD == nil)
	for i := range a.Theta {
		same = same && closeTo(b.Theta[i], a.Theta[i], 1e-9)
	}
	c.ok(same, "rep differs from the warm-up fit: FEvals %d vs %d, F %.12g vs %.12g",
		b.Opt.FEvals, a.Opt.FEvals, b.Opt.F, a.Opt.F)
}

// checkDenseOracle compares the structured conditional-mean solve at θ₀
// with a dense Cholesky solve of the densified Q_c (Gaussian models).
func checkDenseOracle(c *checks, ds *synth.Dataset) {
	m := ds.Model
	if m.Lik != model.LikGaussian {
		return
	}
	t, err := m.DecodeTheta(ds.Theta0)
	if !c.ok(err == nil, "decode θ₀: %v", err) {
		return
	}
	qc, err := m.Qc(t)
	if !c.ok(err == nil, "assemble Q_c(θ₀): %v", err) {
		return
	}
	f, err := bta.Factorize(qc)
	if !c.ok(err == nil, "factorize Q_c(θ₀): %v", err) {
		return
	}
	rhs := m.CondRHS(t)
	mu := append([]float64(nil), rhs...)
	f.Solve(mu)
	want, err := dense.Solve(qc.ToDense(), rhs)
	if !c.ok(err == nil, "dense Cholesky of Q_c(θ₀): %v", err) {
		return
	}
	var worst float64
	for i := range mu {
		worst = math.Max(worst, math.Abs(mu[i]-want[i])/math.Max(1, math.Abs(want[i])))
	}
	c.ok(worst <= 1e-8, "BTA solve differs from the dense solve by %.3g", worst)
}
