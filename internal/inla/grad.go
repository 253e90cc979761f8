package inla

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/model"
)

// The Gaussian gradient from one Laplace step (§III, Eq. 10). For the
// Gaussian likelihood the Laplace step is exact and μ maximizes
// log ℓ + log p(x|θ), so by the envelope theorem
//
//	∂_iF = ∂_i log p(θ) + ∂_i[log ℓ + ½ log|Q_p| − ½ μᵀQ_pμ]|_μ − ½⟨Σ, ∂_iQ_c⟩
//
// with μ held at the mode and Σ = Q_c⁻¹. One contraction of Σ and μ
// (model.QcTable) gives the bracket and the trace term in closed form, with
// no assembly per component: one Laplace step and one selected inversion
// replace the 2d + 1 full evaluations of a stencil.

// gradWork is what a gradient arena needs beyond one evaluation to answer
// a gradient request: Σ, the contraction table and the gradient ∂V.
type gradWork struct {
	sigma *bta.Matrix
	table *model.QcTable
	dvdth []float64
}

// getGradScratch takes the evaluator's idle gradient arena, or builds one
// with its gradWork. The evaluator keeps one such arena apart from the
// point evaluations' pool, so that the fit's posterior takes it over
// (fitWith); of concurrent requests' arenas it keeps the last returned.
func (e *BTAEvaluator) getGradScratch() *solverScratch {
	if ws := e.grads.Swap(nil); ws != nil {
		return ws
	}
	m := e.Model
	ws := newSolverScratch(m)
	ws.grad = &gradWork{
		sigma: bta.NewMatrix(m.Dims.BTAShape()),
		table: m.NewQcTable(),
		dvdth: make([]float64, m.NumHyper()),
	}
	return ws
}

// evalGradientRequest answers a Gaussian batch laid out as a
// central-difference stencil (gradientCentre) from one Laplace step at its
// centre c on the arena's sequential factor: out gets V(c) = −F(c) at the
// centre and V(c) ± h_i·∂_iV(c) at the arms, h_i read off the points, so
// the stencil's central differences give ∂V(c) to rounding. It reports
// false, leaving out untouched, for any other batch and when the centre's
// evaluation fails; the caller then evaluates every point. The values do
// not depend on the core budget, the batch plan or the arena's history.
func (e *BTAEvaluator) evalGradientRequest(points [][]float64, out []float64) bool {
	d := e.Model.NumHyper()
	if len(points) != 2*d && len(points) != 2*d+1 {
		return false
	}
	c := make([]float64, d)
	from, ok := gradientCentre(points, c)
	if !ok {
		return false
	}
	ws := e.getGradScratch()
	g := ws.grad
	v, ok := func() (v float64, ok bool) {
		defer func() {
			// The point-by-point fallback meets the panic again, and
			// quarantines it; a poisoned arena is dropped, not pooled.
			if recover() != nil {
				ws = nil
			}
		}()
		v, err := exactGradient(e.Model, e.Prior, ws, g, c)
		return v, err == nil
	}()
	if ws == nil {
		return false
	}
	defer e.grads.Store(ws) // g is dead past this call
	if !ok {
		return false
	}
	if from == 1 {
		out[0] = v
	}
	for i, dv := range g.dvdth {
		plus, minus := points[from+2*i], points[from+2*i+1]
		out[from+2*i] = v + (plus[i]-c[i])*dv
		out[from+2*i+1] = v - (c[i]-minus[i])*dv
	}
	return true
}

// exactGradient runs the Laplace step at c on ws's sequential factor,
// selects Σ into g.sigma and contracts it with μ, then writes ∂V = −∂F
// into g.dvdth and returns V = −F at c.
func exactGradient(m *model.Model, prior Prior, ws *solverScratch, g *gradWork, c []float64) (float64, error) {
	t, err := m.DecodeTheta(c)
	if err != nil {
		return 0, err
	}
	mu, err := laplaceStep(m, t, ws.fc, ws, nil)
	if err != nil {
		return 0, err
	}
	parts, err := closeFobj(m, prior, t, c, mu, ws.fc.LogDet(), &ws.evalVectors)
	if err != nil {
		return 0, err
	}
	if err := ws.fc.SelectedInversionInto(g.sigma); err != nil {
		return 0, fmt.Errorf("inla: selected inversion: %w", err)
	}
	if err := g.table.Contract(g.sigma, mu); err != nil {
		return 0, err
	}
	if err := g.table.Grad(t, c, ws.obs, g.dvdth); err != nil {
		return 0, err
	}
	for i, dF := range g.dvdth {
		g.dvdth[i] = -(prior.dLogDensity(c, i) + dF)
	}
	return -parts.F(), nil
}
