package inla

import (
	"errors"
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
)

// FitOptions configures a full INLA fit.
type FitOptions struct {
	Opt OptOptions
	// HessStep is the step of the mode Hessian's second-order stencil
	// (hessianFromStencil), the route of count models — whose gradient is
	// exact, but whose Hessian is not differenced from it — of the
	// diffusion prior and of evaluators other than BTAEvaluator. A Gaussian
	// fit with a separable prior on Fit's evaluator takes the Hessian from
	// exact gradients (hessianFromGradients) and ignores it.
	HessStep float64
	// SkipHyperUncertainty disables the Hessian stage (scaling benches).
	SkipHyperUncertainty bool
	// IntegrateHyperGrid additionally integrates the latent posterior over
	// the eigenvector grid of the mode Hessian (§III-4) instead of the
	// plug-in at θ* only; requires the Hessian stage.
	IntegrateHyperGrid bool
	// Checkpoint, when set, replaces Opt.Checkpoint: it receives a
	// deep-copied resumable snapshot of the optimizer state every
	// Opt.CheckpointEvery completed mode-search iterations. Cancellation
	// (Opt.Ctx) and resumption (Opt.Resume) are set on Opt as well.
	Checkpoint func(*OptCheckpoint) error
}

// DefaultFitOptions returns the standard configuration.
func DefaultFitOptions() FitOptions {
	return FitOptions{Opt: DefaultOptOptions(), HessStep: 5e-3}
}

// Result is the outcome of a full INLA fit: the hyperparameter mode and its
// Gaussian approximation, and the latent posterior (mean + marginal
// variances, BTA ordering).
type Result struct {
	Theta     []float64
	ThetaSD   []float64
	ThetaCov  *dense.Matrix
	Opt       *OptResult
	Mu        []float64
	LatentVar []float64
	// Sigma holds the blocks of Σ = Q_c(θ*)⁻¹ on the BTA pattern, the
	// selected inversion LatentVar is the diagonal of. It lives in memory
	// only: MarshalResult does not encode it, so a decoded Result has none,
	// and predict.NewSnapshot recomputes it (ModeSigma, the same routine).
	Sigma *bta.Matrix
	// Integrated holds the grid-integrated latent posterior when
	// FitOptions.IntegrateHyperGrid was set and the Hessian stage succeeded.
	Integrated *IntegratedPosterior
}

// Fit runs the complete INLA procedure on the model: mode search (BFGS; its
// gradient stencils are answered from one Laplace step, for a count model
// with one adjoint solve more), hyperparameter uncertainty (Hessian at the
// mode: for a Gaussian model with a separable prior differences of exact
// gradients, otherwise the 2d² + 1-point stencil), and latent posterior
// extraction (conditional mean and selected inversion of Q_c at the mode,
// those of the search's last gradient request when it was at the mode).
func Fit(m *model.Model, prior Prior, theta0 []float64, opts FitOptions) (*Result, error) {
	return fitWith(m, &BTAEvaluator{Model: m, Prior: prior}, theta0, opts)
}

// fitWith runs the mode search and the Hessian stage (HessianAtMode) on
// any Evaluator backend, then extracts the latent posterior of m at the
// mode with the sequential latentPosterior, whatever the backend. On m's
// own *BTAEvaluator the later stages take over the evaluator's idle
// gradient arena once the Hessian is in: it holds θ*'s factor, μ and Σ
// whenever the search's last request, or the gradient Hessian's base
// request, was at θ*, and the integration grid's centre and the posterior
// read them there without recomputing them — for a count model the mode
// from x = 0, so the same bits as a cold recompute; otherwise the
// posterior recomputes them on that arena.
func fitWith(m *model.Model, e Evaluator, theta0 []float64, opts FitOptions) (*Result, error) {
	if opts.Checkpoint != nil {
		opts.Opt.Checkpoint = opts.Checkpoint
	}
	opt, err := Minimize(e, theta0, opts.Opt)
	if err != nil && opt == nil {
		return nil, err
	}
	if errors.Is(err, ErrFitCanceled) {
		// An aborted search has no business running the posterior stages;
		// the caller holds the resumable checkpoint.
		return nil, err
	}
	// A failed line search still yields a usable (if premature) mode.
	res := &Result{Theta: opt.Theta, Opt: opt}

	var hess *dense.Matrix // nil: no Hessian stage, or it failed
	if !opts.SkipHyperUncertainty {
		h := opts.HessStep
		if h == 0 {
			h = 5e-3
		}
		hess, _ = HessianAtMode(e, opt.Theta, h)
	}
	// The search's gradient arena, a sequential factor and a Σ, is the
	// search's no more: the later stages take it over instead of
	// allocating their own.
	var ws *solverScratch
	if be, ok := e.(*BTAEvaluator); ok && be.Model == m {
		ws = be.grads.Swap(nil)
	}

	if hess != nil {
		if opts.IntegrateHyperGrid {
			if ip, ierr := IntegrateHyper(e, gridPosterior(m, ws), opt.Theta, hess, 1); ierr == nil {
				res.Integrated = ip
			}
		}
		if cov, cerr := dense.Inverse(hess); cerr == nil {
			res.ThetaCov = cov
			res.ThetaSD = make([]float64, len(opt.Theta))
			ok := true
			for i := range res.ThetaSD {
				v := cov.At(i, i)
				if v <= 0 {
					ok = false
					break
				}
				res.ThetaSD[i] = math.Sqrt(v)
			}
			if !ok {
				res.ThetaSD = nil
				res.ThetaCov = nil
			}
		}
	}

	_, mu, _, sig, perr := latentPosterior(m, opt.Theta, true, ws)
	if perr != nil {
		return nil, fmt.Errorf("inla: posterior extraction at the mode: %w", perr)
	}
	res.Mu, res.LatentVar, res.Sigma = mu, sig.DiagVec(), sig
	return res, nil
}

// gridPosterior is the latent posterior IntegrateHyper mixes over fitWith's
// grid: at the centre θ* it is mode's, the gradient arena that holds θ*'s
// posterior (nil: none), and every other point runs on one gradient arena,
// built on first use and reused from point to point. The μ it returns
// aliases that arena until the next call.
func gridPosterior(m *model.Model, mode *solverScratch) func([]float64) ([]float64, []float64, error) {
	var grid *solverScratch
	return func(theta []float64) ([]float64, []float64, error) {
		ws := mode
		if ws == nil || !ws.grad.holds(theta) {
			if grid == nil {
				grid = newGradScratch(m)
			}
			ws = grid
		}
		_, mu, _, sig, err := latentPosterior(m, theta, true, ws)
		if err != nil {
			return nil, nil, err
		}
		return mu, sig.DiagVec(), nil
	}
}

// FixedEffect summarizes one fixed effect's Gaussian posterior.
type FixedEffect struct {
	Process int
	Index   int
	Mean    float64
	SD      float64
	Q025    float64
	Q975    float64
}

// FixedEffects extracts the fixed-effect posteriors from the latent result
// (they live in the BTA arrow tip, ordered process-major).
func FixedEffects(m *model.Model, r *Result) []FixedEffect {
	d := m.Dims
	base := d.Nv * d.Ns * d.Nt
	out := make([]FixedEffect, 0, d.Nv*d.Nr)
	const z = 1.959963984540054
	for v := 0; v < d.Nv; v++ {
		for k := 0; k < d.Nr; k++ {
			idx := base + v*d.Nr + k
			sd := math.Sqrt(r.LatentVar[idx])
			out = append(out, FixedEffect{
				Process: v, Index: k,
				Mean: r.Mu[idx], SD: sd,
				Q025: r.Mu[idx] - z*sd, Q975: r.Mu[idx] + z*sd,
			})
		}
	}
	return out
}
