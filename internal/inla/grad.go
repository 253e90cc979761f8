package inla

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
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
//
// A count model's Laplace step is not exact and log|Q_c| depends on the
// mode, so its gradient adds the implicit term through μ(θ): one adjoint
// solve on the same factor (model.QcTable.ContractCount). Its μ is the
// centre's mode from x = 0, the one a point evaluation finds there, so V(c)
// is the point's value and the arena's μ, factor and Σ are the posterior's
// at c, bit for bit.

// gradWork is what a gradient arena needs beyond one evaluation to answer
// a gradient request: Σ, the contraction table and the gradient ∂V, and
// the tag at: a bit-exact copy of the centre the arena's factor, μ, Σ and
// ∂V belong to, valid only while ok is set. exactGradient sets it when it
// succeeds; anything else that runs on the arena clears it first, so a
// failed or panicking request leaves it invalid.
type gradWork struct {
	sigma *bta.Matrix
	table *model.QcTable
	dvdth []float64
	mu    []float64 // the request's μ, aliasing its arena
	at    []float64
	ok    bool
}

// holds reports whether the arena's factor, μ, Σ and ∂V are those of θ,
// bit for bit.
func (g *gradWork) holds(theta []float64) bool {
	if !g.ok || len(theta) != len(g.at) {
		return false
	}
	for i, v := range theta {
		if math.Float64bits(v) != math.Float64bits(g.at[i]) {
			return false
		}
	}
	return true
}

// newGradWork builds what a gradient request on m needs beyond an
// evaluation arena.
func newGradWork(m *model.Model) *gradWork {
	return &gradWork{
		sigma: bta.NewMatrix(m.Dims.BTAShape()),
		table: m.NewQcTable(),
		dvdth: make([]float64, m.NumHyper()),
		at:    make([]float64, m.NumHyper()),
	}
}

// newGradScratch builds a gradient arena: an evaluation arena with its
// gradWork.
func newGradScratch(m *model.Model) *solverScratch {
	ws := newSolverScratch(m)
	ws.grad = newGradWork(m)
	return ws
}

// getGradScratch takes the evaluator's idle gradient arena, or builds one.
// The evaluator keeps one such arena apart from the point evaluations'
// pool, so that the fit takes it over (fitWith); of concurrent requests'
// arenas it keeps the last returned.
func (e *BTAEvaluator) getGradScratch() *solverScratch {
	if ws := e.grads.Swap(nil); ws != nil {
		return ws
	}
	return newGradScratch(e.Model)
}

// gradientOn answers one gradient request at c on the gradient arena ws:
// V(c), with ∂V(c) in ws.grad.dvdth and the tag at c. A count model's
// request takes x0, when set, as the mode at c from x = 0, and counts the
// Newton steps it takes otherwise. It reports keep = false when the
// request panicked: the arena is poisoned and its caller drops it.
func (e *BTAEvaluator) gradientOn(ws *solverScratch, c, x0 []float64) (v float64, keep bool, err error) {
	e.gradRequests.Add(1)
	defer func() {
		if r := recover(); r != nil {
			keep, err = false, fmt.Errorf("inla: gradient request panicked: %v", r)
		}
	}()
	v, err = exactGradient(e.Model, e.Prior, ws, c, x0)
	if err == nil && ws.mode != nil {
		e.newtonSteps.Add(int64(ws.mode.Inner))
	}
	return v, true, err
}

// evalGradientRequest answers a batch laid out as a central-difference
// stencil (gradientCentre) from one Laplace step at its centre c on the
// arena's sequential factor: out gets V(c) = −F(c) at the centre and
// V(c) ± h_i·∂_iV(c) at the arms, h_i read off the points, so the
// stencil's central differences give ∂V(c) to rounding. A count model's
// request reads the mode at c from kept when kept holds it. It reports
// false, leaving out untouched, for any other batch and when the centre's
// evaluation fails; the caller then evaluates every point. The values do
// not depend on the core budget, the batch plan or the arena's history.
func (e *BTAEvaluator) evalGradientRequest(points [][]float64, out []float64, kept *modeCache) bool {
	d := e.Model.NumHyper()
	if len(points) != 2*d && len(points) != 2*d+1 {
		return false
	}
	c := make([]float64, d)
	from, ok := gradientCentre(points, c)
	if !ok {
		return false
	}
	var x0 []float64
	if kept != nil {
		x0 = kept.lookup(c)
	}
	ws := e.getGradScratch()
	v, keep, err := e.gradientOn(ws, c, x0)
	if !keep {
		// The point-by-point fallback meets the panic again, and
		// quarantines it; a poisoned arena is dropped, not pooled.
		return false
	}
	defer e.grads.Store(ws) // idle again once out is written
	if err != nil {
		return false
	}
	if from == 1 {
		out[0] = v
	}
	for i, dv := range ws.grad.dvdth {
		plus, minus := points[from+2*i], points[from+2*i+1]
		out[from+2*i] = v + (plus[i]-c[i])*dv
		out[from+2*i+1] = v - (c[i]-minus[i])*dv
	}
	return true
}

// exactGradient decodes c and answers the gradient request on the
// gradient arena ws (gradientAt). The tag is cleared first, so it stays
// invalid unless every step succeeds.
func exactGradient(m *model.Model, prior Prior, ws *solverScratch, c, x0 []float64) (float64, error) {
	ws.grad.ok = false
	t, err := m.DecodeTheta(c)
	if err != nil {
		return 0, err
	}
	return gradientAt(m, prior, ws, t, c, x0)
}

// gradientAt runs the Laplace step at c (t decoded) on the sequential
// factor of the gradient arena ws — for a count model with x0 set, the
// closing step at x0, the mode at c from x = 0 (model.ConditionalModeAt) —
// selects Σ into its gradWork g's Σ and contracts it with μ (for counts
// with the adjoint solve too), then writes ∂V = −∂F into g.dvdth, tags the
// arena with c and returns V = −F at c.
func gradientAt(m *model.Model, prior Prior, ws *solverScratch, t *model.Theta, c, x0 []float64) (float64, error) {
	g := ws.grad
	var mu []float64
	var err error
	if m.Lik == model.LikPoisson && x0 != nil {
		ws.mode, err = m.ConditionalModeAt(t, ws.fc, ws.newtonWork(m), x0)
		if err == nil {
			mu = ws.mode.XPerm
		}
	} else {
		mu, err = laplaceStep(m, t, ws.fc, ws)
	}
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
	if m.Lik == model.LikPoisson {
		err = g.table.ContractCount(t, g.sigma, mu, ws.obs, ws.fc)
	} else {
		err = g.table.Contract(g.sigma, mu)
	}
	if err != nil {
		return 0, err
	}
	if err := g.table.Grad(t, c, ws.obs, g.dvdth); err != nil {
		return 0, err
	}
	for i, dF := range g.dvdth {
		g.dvdth[i] = -(prior.dLogDensity(c, i) + dF)
	}
	g.mu = mu
	copy(g.at, c)
	g.ok = true
	return -parts.F(), nil
}

// hessGradStep is the step of the Hessian from exact gradients, chosen
// against the 2d² + 1-point stencil at FitOptions.HessStep
// (TestHessianFromGradientsMatchesStencil). An exact gradient carries no
// factorization noise of the stencil's kind, so a forward difference at a
// step far below the stencil's agrees with it to 1e-5–3e-5 of max|H| on
// the Gaussian benchmark shapes.
const hessGradStep = 1e-5

// hessianFromGradients estimates ∇²V(θ) for a Gaussian model from forward
// differences of exact gradients, symmetrized: with
// D_i = (∂V(θ + h·e_i) − ∂V(θ))/h at h = hessGradStep, h the step as
// θ_i + h rounds it,
//
//	H_ij = ½(D_i ∂_jV + D_j ∂_iV).
//
// The base ∂V(θ) is base's when its tag holds θ and is otherwise requested
// on base (nil: a new gradient arena). The d shifted requests, and the
// base's when it is missing, run concurrently over the core budget. A
// shifted request runs on a pooled point arena's factor with a gradWork
// lent for the request, which goes back to the Hessian's own stock before
// the arena returns to the pool: pooled arenas never hold one. Every
// request runs on the sequential factor, so the Hessian depends on θ
// alone. It returns the base arena, holding θ's factor, μ, Σ and ∂V when no
// error is returned, and nil when its request panicked.
func (e *BTAEvaluator) hessianFromGradients(theta []float64, base *solverScratch) (*dense.Matrix, *solverScratch, error) {
	d := len(theta)
	if base == nil {
		base = newGradScratch(e.Model)
	}
	// Request i < d is at θ + h·e_i; request d, when there is one, is the
	// base's.
	n := d
	if !base.grad.holds(theta) {
		n++
	}
	pts := make([][]float64, d)
	for i := range pts {
		pts[i] = slices.Clone(theta)
		pts[i][i] += hessGradStep
	}
	grads := make([][]float64, d)
	errs := make([]error, n)
	baseKept := true
	// A runner holds one gradWork at a time and there are at most cores
	// runners, so a send never blocks.
	works := make(chan *gradWork, e.cores())
	e.runOnExecutor(n, e.cores(), func(i int) {
		if i == d {
			_, baseKept, errs[i] = e.gradientOn(base, theta, nil)
			return
		}
		ws := e.getScratch()
		select {
		case ws.grad = <-works:
		default:
			ws.grad = newGradWork(e.Model)
		}
		_, keep, err := e.gradientOn(ws, pts[i], nil)
		if err != nil {
			errs[i] = fmt.Errorf("inla: Hessian gradient at θ%+.3g·e_%d: %w", pts[i][i]-theta[i], i, err)
		} else {
			grads[i] = slices.Clone(ws.grad.dvdth)
		}
		if keep {
			works <- ws.grad
			ws.grad = nil
			e.scratch.Put(ws)
		}
	})
	if !baseKept {
		base = nil
	}
	if err := errors.Join(errs...); err != nil {
		return nil, base, err
	}
	// diff row i: D_i ∂V.
	diff := make([][]float64, d)
	for i := range diff {
		step := pts[i][i] - theta[i]
		diff[i] = make([]float64, d)
		for j, g := range grads[i] {
			diff[i][j] = (g - base.grad.dvdth[j]) / step
		}
		if !finiteVec(diff[i]) {
			return nil, base, fmt.Errorf("inla: Hessian gradient difference along e_%d is not finite", i)
		}
	}
	hm := dense.New(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			hm.Set(i, j, 0.5*(diff[i][j]+diff[j][i]))
		}
	}
	return hm, base, nil
}
