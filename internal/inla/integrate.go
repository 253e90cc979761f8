package inla

import (
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// IntegratedPosterior holds the latent posterior integrated over the
// hyperparameter uncertainty (§III-4: p_G computed at different θ and
// mixed), instead of the simplest plug-in at the mode θ*.
type IntegratedPosterior struct {
	// Points are the explored configurations (center first), Weights their
	// normalized integration weights.
	Points  [][]float64
	Weights []float64
	// Mu and Var are the mixture mean and marginal variance of the latent
	// field (BTA ordering): Var includes the between-configuration spread.
	Mu  []float64
	Var []float64
}

// IntegrateHyper explores the hyperparameter posterior on the eigenvector
// grid of the mode Hessian (the reparametrization of §III-3): the z-grid
// θ = θ* ± δ·√λ_i⁻¹·v_i along each eigendirection, weighting each
// configuration by its posterior density exp(fobj(θ)−fobj(θ*)), and mixes
// the Gaussian latent approximations:
//
//	μ̄ = Σ w_k μ_k,   σ̄² = Σ w_k (σ_k² + μ_k²) − μ̄².
//
// e gives the densities; posterior gives the latent mean and marginal
// variances at a configuration, the latent posterior of the model (Fit's
// runs every grid point but the centre on one reused arena and reads the
// centre's off the mode's, BTAEvaluator.Posterior allocates a fresh arena
// per call). The μ and variances it returns are read before its next call
// and never kept, so they may alias its storage. hess is ∇²(−fobj) at the
// mode (from HessianAtMode); delta ≈ 1 explores one posterior standard
// deviation.
func IntegrateHyper(e Evaluator, posterior func(theta []float64) (mu, variance []float64, err error), thetaMode []float64, hess *dense.Matrix, delta float64) (*IntegratedPosterior, error) {
	d := len(thetaMode)
	vals, vecs, err := dense.SymEigen(hess)
	if err != nil {
		return nil, err
	}
	for i, l := range vals {
		if l <= 0 {
			return nil, fmt.Errorf("inla: mode Hessian not positive definite (λ[%d] = %v)", i, l)
		}
	}
	if delta <= 0 {
		delta = 1
	}
	// Grid: center + ±delta along each eigendirection (2d+1 points).
	pts := make([][]float64, 0, 2*d+1)
	pts = append(pts, append([]float64(nil), thetaMode...))
	for i := 0; i < d; i++ {
		step := delta / math.Sqrt(vals[i])
		plus := append([]float64(nil), thetaMode...)
		minus := append([]float64(nil), thetaMode...)
		for r := 0; r < d; r++ {
			plus[r] += step * vecs.At(r, i)
			minus[r] -= step * vecs.At(r, i)
		}
		pts = append(pts, plus, minus)
	}

	// Posterior density ratios from −fobj (S1-parallel batch), the centre
	// evaluated last: a grid along the coordinate axes (a diagonal Hessian)
	// laid out centre first is a gradient stencil, which an evaluator may
	// answer with first-order values.
	last := e.EvalBatch(append(pts[1:len(pts):len(pts)], pts[0]))
	fvals := append([]float64{last[2*d]}, last[:2*d]...)
	f0 := fvals[0]
	weights := make([]float64, len(pts))
	var wsum float64
	for k, f := range fvals {
		if math.IsInf(f, 1) || math.IsNaN(f) {
			weights[k] = 0
			continue
		}
		weights[k] = math.Exp(f0 - f) // fobj(θ_k) − fobj(θ*) on the log scale
		wsum += weights[k]
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("inla: all integration points infeasible")
	}
	for k := range weights {
		weights[k] /= wsum
	}

	// Mix the Gaussian approximations.
	out := &IntegratedPosterior{Points: pts, Weights: weights}
	for k, p := range pts {
		if weights[k] == 0 {
			continue
		}
		mu, va, err := posterior(p)
		if err != nil {
			// An infeasible posterior at a grid point: drop its mass.
			continue
		}
		if out.Mu == nil {
			out.Mu = make([]float64, len(mu))
			out.Var = make([]float64, len(mu))
		}
		w := weights[k]
		for i := range mu {
			out.Mu[i] += w * mu[i]
			out.Var[i] += w * (va[i] + mu[i]*mu[i])
		}
	}
	if out.Mu == nil {
		return nil, fmt.Errorf("inla: no integration point produced a posterior")
	}
	for i := range out.Var {
		out.Var[i] -= out.Mu[i] * out.Mu[i]
		if out.Var[i] < 0 {
			out.Var[i] = 0
		}
	}
	return out, nil
}
