package inla

import (
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/model"
)

// ModeFactor assembles and factorizes the conditional precision Q_c(θ) —
// typically at the fitted mode θ* of a Result — and returns the decoded
// configuration alongside the sequential factor. For a count model Q_c is
// taken at the conditional mode of the latent field (the Laplace
// approximation's centre). The factor supports Solve/SolveMultiInto/
// SelectedInversion for arbitrary downstream right-hand sides without
// re-running any INLA stage.
//
// The returned factor is freshly allocated and exclusively owned by the
// caller, while the evaluator pools keep recycling their own.
func ModeFactor(m *model.Model, theta []float64) (*model.Theta, *bta.Factor, error) {
	t, _, f, _, err := latentPosterior(m, theta, false, nil)
	return t, f, err
}

// ModeSigma returns the blocks of Σ = Q_c(θ)⁻¹ on the BTA pattern — the
// selected inversion Fit stores as Result.Sigma, so the same θ gives the
// same bits on every call. The prediction layer calls it for a result that
// carries no Σ (one decoded from a checkpoint, or built by hand).
func ModeSigma(m *model.Model, theta []float64) (*model.Theta, *bta.Matrix, error) {
	t, _, _, sig, err := latentPosterior(m, theta, true, nil)
	return t, sig, err
}

// latentPosterior is the one computation of the Gaussian approximation of
// the latent posterior at θ (§III): decode θ, run the Laplace step on the
// sequential factor of ws, an arena the caller hands over (nil = a fresh
// one) — Q_c assembled, for a count model at the conditional mode found by
// the inner Newton loop, and factorized with POBTAF, μ solved — and, when
// withSigma is set, the sequential POBTASI for the blocks of Σ = Q_c⁻¹:
// into the Σ of a gradient arena, for a count model into the Newton work's
// Q_p, which nothing reads once the mode is found, and otherwise into a
// freshly allocated matrix. A gradient arena whose tag holds θ bit for bit
// already has all of it — its last request ran this Laplace step and this
// selected inversion at θ (exactGradient) — so it is returned as it
// stands; on any other gradient arena the tag is cleared and the posterior
// recomputed. Everything it returns is owned by the caller, and being
// sequential it gives the same bits for the same θ whatever the core
// budget and whatever the arena held before.
func latentPosterior(m *model.Model, theta []float64, withSigma bool, ws *solverScratch) (t *model.Theta, mu []float64, f *bta.Factor, sigma *bta.Matrix, err error) {
	if t, err = m.DecodeTheta(theta); err != nil {
		return nil, nil, nil, nil, err
	}
	if ws == nil {
		ws = newSolverScratch(m)
	}
	if g := ws.grad; g != nil {
		if g.holds(theta) {
			if withSigma {
				sigma = g.sigma
			}
			return t, g.mu, ws.fc, sigma, nil
		}
		g.ok = false // the factor, μ and Σ are about to move
	}
	if mu, err = laplaceStep(m, t, ws.fc, ws); err != nil {
		return nil, nil, nil, nil, err
	}
	if withSigma {
		switch {
		case ws.grad != nil:
			sigma = ws.grad.sigma
		case ws.newton != nil:
			sigma = ws.newton.Qp()
		default:
			sigma = bta.NewMatrix(m.Dims.BTAShape())
		}
		if err := ws.fc.SelectedInversionInto(sigma); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("inla: selected inversion: %w", err)
		}
	}
	return t, mu, ws.fc, sigma, nil
}

// LatentMarginal returns the posterior marginal (mean, sd) of latent
// coordinate i in the BTA ordering, reusing the mean and selected-inversion
// diagonal the fit already computed — no solve is performed. Predictions at
// observed mesh nodes reduce to exactly these numbers (scaled through the
// coregionalization), which the prediction tests exploit as an invariant.
func (r *Result) LatentMarginal(i int) (mean, sd float64) {
	return r.Mu[i], math.Sqrt(r.LatentVar[i])
}
