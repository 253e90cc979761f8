package inla

import "github.com/dalia-hpc/dalia/internal/model"

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
