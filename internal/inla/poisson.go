package inla

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// btaFactorizer adapts the structured solver to the inner-Newton interface
// of model.ConditionalModePoisson: it maps a process-major Q_c with the
// model's pattern into BTA form, factorizes, and returns a solver closure
// operating on process-major vectors.
func btaFactorizer(m *model.Model) func(*sparse.CSR) (func([]float64) []float64, error) {
	return func(qc *sparse.CSR) (func([]float64) []float64, error) {
		qb, err := m.QcFromCSR(qc)
		if err != nil {
			return nil, err
		}
		f, err := bta.Factorize(qb)
		if err != nil {
			return nil, err
		}
		return func(rhsPM []float64) []float64 {
			x := m.ApplyPerm(rhsPM)
			f.Solve(x)
			return m.UnPerm(x)
		}, nil
	}
}

// evalFobjPoisson evaluates the INLA objective for the Poisson model: find
// the conditional mode via damped Newton (each step a structured solve),
// then assemble Eq. 8 with the Laplace approximation p_G centered at the
// mode.
func evalFobjPoisson(m *model.Model, prior Prior, t *model.Theta, theta []float64) (FobjParts, error) {
	parts := FobjParts{LogPrior: prior.LogDensity(theta)}

	mode, _, fc, err := laplaceFactor(m, t)
	if err != nil {
		return FobjParts{}, err
	}
	if parts.LogDetQp, err = m.PriorLogDet(t); err != nil {
		return FobjParts{}, err
	}
	parts.LogDetQc = fc.LogDet()
	parts.Mu = mode.XPerm
	parts.LatentDim = len(mode.XPerm)
	parts.QuadQp = m.PriorQuad(t, mode.XPerm, make([]float64, m.Dims.PerProcess()))
	parts.LogLik = mode.LogLik
	return parts, nil
}

// laplaceFactor finds the conditional mode of a count model's latent field
// at t by damped Newton and factorizes Q_c there. The assembled Q_c comes
// back too: the factor does not need it, so callers after the selected
// inverse write Σ over it.
func laplaceFactor(m *model.Model, t *model.Theta) (*model.PoissonMode, *bta.Matrix, *bta.Factor, error) {
	mode, err := m.ConditionalModePoisson(t, btaFactorizer(m))
	if err != nil {
		return nil, nil, nil, err
	}
	qc, err := m.QcFromCSR(mode.QcCSR)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := bta.Factorize(qc)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("inla: Q_c at the Poisson mode: %w", err)
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
