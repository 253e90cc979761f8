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
	t, _, f, err := modeFactor(m, theta)
	return t, f, err
}

// ModeSigma returns the blocks of Σ = Q_c(θ)⁻¹ on the BTA pattern — the
// sequential selected inversion of ModeFactor's factor, so the same θ gives
// the same bits on every call. This is what the prediction layer freezes:
// a projection row is supported on one time block and the arrow, so
// Diag[t], Arrow[t] and Tip hold every entry a predictive variance reads.
// Σ is written over the assembled Q_c: two BTA-sized allocations in all,
// one of which (the factor) is garbage on return.
func ModeSigma(m *model.Model, theta []float64) (*model.Theta, *bta.Matrix, error) {
	t, qc, f, err := modeFactor(m, theta)
	if err != nil {
		return nil, nil, err
	}
	if err := f.SelectedInversionInto(qc); err != nil {
		return nil, nil, fmt.Errorf("inla: selected inversion at the mode: %w", err)
	}
	return t, qc, nil
}

// modeFactor is ModeFactor that also hands back the assembled Q_c, whose
// storage the factor no longer needs.
func modeFactor(m *model.Model, theta []float64) (*model.Theta, *bta.Matrix, *bta.Factor, error) {
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return nil, nil, nil, err
	}
	if m.Lik == model.LikPoisson {
		_, qc, f, err := laplaceFactor(m, t)
		if err != nil {
			return nil, nil, nil, err
		}
		return t, qc, f, nil
	}
	n, b, a := m.Dims.BTAShape()
	qc := bta.NewMatrix(n, b, a)
	if err := m.QcInto(t, qc); err != nil {
		return nil, nil, nil, err
	}
	f := bta.NewFactor(n, b, a)
	if err := f.Refactorize(qc); err != nil {
		return nil, nil, nil, fmt.Errorf("inla: Q_c factorization at the mode: %w", err)
	}
	return t, qc, f, nil
}

// LatentMarginal returns the posterior marginal (mean, sd) of latent
// coordinate i in the BTA ordering, reusing the mean and selected-inversion
// diagonal the fit already computed — no solve is performed. Predictions at
// observed mesh nodes reduce to exactly these numbers (scaled through the
// coregionalization), which the prediction tests exploit as an invariant.
func (r *Result) LatentMarginal(i int) (mean, sd float64) {
	return r.Mu[i], math.Sqrt(r.LatentVar[i])
}
