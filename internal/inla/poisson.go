package inla

import (
	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/model"
)

// evalFobjPoisson evaluates the INLA objective for the Poisson model on the
// arena: find the conditional mode by damped Newton, every step a refill of
// ws.qc and a Refactorize of the sequential factor, then assemble Eq. 8
// with the Laplace approximation p_G centered at the mode.
func evalFobjPoisson(m *model.Model, prior Prior, t *model.Theta, theta []float64, ws *solverScratch) (FobjParts, error) {
	parts := FobjParts{LogPrior: prior.LogDensity(theta)}
	if ws.newton == nil {
		ws.newton = m.NewNewtonWork()
	}
	mode, err := m.ConditionalModeInto(t, ws.qc, ws.fc, ws.newton)
	if err != nil {
		return FobjParts{}, err
	}
	if parts.LogDetQp, err = m.PriorLogDet(t); err != nil {
		return FobjParts{}, err
	}
	parts.LogDetQc = ws.fc.LogDet()
	parts.Mu = mode.XPerm
	parts.LatentDim = len(mode.XPerm)
	parts.QuadQp = m.PriorQuad(t, mode.XPerm, ws.z)
	parts.LogLik = mode.LogLik
	return parts, nil
}

// laplaceFactor finds the conditional mode of a count model's latent field
// at t and factorizes Q_c there, in fresh storage. The assembled Q_c comes
// back too: the factor does not need it, so callers after the selected
// inverse write Σ over it.
func laplaceFactor(m *model.Model, t *model.Theta) (*model.PoissonMode, *bta.Matrix, *bta.Factor, error) {
	n, b, a := m.Dims.BTAShape()
	qc, f := bta.NewMatrix(n, b, a), bta.NewFactor(n, b, a)
	mode, err := m.ConditionalModeInto(t, qc, f, m.NewNewtonWork())
	if err != nil {
		return nil, nil, nil, err
	}
	return mode, qc, f, nil
}

// posteriorPoisson computes the latent posterior at theta for a Poisson
// model: the conditional mode and the marginal variances from the selected
// inversion of Q_c at the mode.
func posteriorPoisson(m *model.Model, theta []float64) ([]float64, []float64, error) {
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return nil, nil, err
	}
	mode, sig, f, err := laplaceFactor(m, t)
	if err != nil {
		return nil, nil, err
	}
	if err := f.SelectedInversionInto(sig); err != nil {
		return nil, nil, err
	}
	return mode.XPerm, sig.DiagVec(), nil
}
