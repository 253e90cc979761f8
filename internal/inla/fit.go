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
	// HessStep is the finite-difference step of the mode Hessian.
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

// Fit runs the complete INLA procedure on the model: mode search (BFGS; a
// Gaussian model's gradient stencils are answered from one Laplace step,
// a count model's by parallel central differences), hyperparameter
// uncertainty (Hessian at the mode), and latent posterior extraction
// (conditional mean and selected inversion of Q_c at the mode).
func Fit(m *model.Model, prior Prior, theta0 []float64, opts FitOptions) (*Result, error) {
	return fitWith(m, &BTAEvaluator{Model: m, Prior: prior}, theta0, opts)
}

// fitWith runs the mode search and the Hessian stage on any Evaluator
// backend, then extracts the latent posterior of m at the mode with the
// sequential latentPosterior, whatever the backend.
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

	if !opts.SkipHyperUncertainty {
		h := opts.HessStep
		if h == 0 {
			h = 5e-3
		}
		hess, herr := HessianAtMode(e, opt.Theta, h)
		if herr == nil {
			if opts.IntegrateHyperGrid {
				if ip, ierr := IntegrateHyper(e, (&BTAEvaluator{Model: m}).Posterior, opt.Theta, hess, 1); ierr == nil {
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
	}

	// The search's gradient arena, a sequential factor and a Σ, is dead by
	// now: the posterior takes it over instead of allocating its own.
	var ws *solverScratch
	if be, ok := e.(*BTAEvaluator); ok && be.Model == m {
		ws = be.grads.Swap(nil)
	}
	_, mu, _, sig, perr := latentPosterior(m, opt.Theta, true, ws)
	if perr != nil {
		return nil, fmt.Errorf("inla: posterior extraction at the mode: %w", perr)
	}
	res.Mu, res.LatentVar, res.Sigma = mu, sig.DiagVec(), sig
	return res, nil
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
