// Package baselines implements the two comparator systems of Table I so the
// evaluation figures can show the same three frameworks as the paper:
//
//   - RINLAEvaluator — the R-INLA-like path: the INLA objective evaluated
//     through the *general sparse* Cholesky solver (package sparse, our
//     PARDISO stand-in) in process-major ordering with a fill-reducing
//     permutation, shared-memory parallelism across function evaluations
//     only (the nested OpenMP scheme), no structured-solver exploitation,
//     no distribution.
//   - INLA_DIST-like — the sequential BTA solver with the S1/S2 layers but
//     the undistributed O(n·b²) densification and no S3; reachable through
//     inla.DistConfig{DisableS3: true, NaiveMapping: true} and the
//     INLADistEvaluator here for shared-memory runs.
package baselines

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// RINLAEvaluator evaluates −fobj through the general sparse solver. The
// symbolic factorization is computed once per pattern and reused across
// evaluations (as R-INLA reuses PARDISO's analysis phase).
type RINLAEvaluator struct {
	Model *model.Model
	Prior inla.Prior

	mu    sync.Mutex
	qpFac *sparse.CholFactor
	qcFac *sparse.CholFactor
}

// EvalOne evaluates −fobj(θ) via the sparse path; +Inf when infeasible.
func (e *RINLAEvaluator) EvalOne(theta []float64) float64 {
	f, err := e.evalParts(theta)
	if err != nil {
		return math.Inf(1)
	}
	return -f.F()
}

func (e *RINLAEvaluator) evalParts(theta []float64) (inla.FobjParts, error) {
	m := e.Model
	if m.Lik != model.LikGaussian {
		return inla.FobjParts{}, fmt.Errorf("baselines: the R-INLA-like path implements the Gaussian likelihood only; got %v", m.Lik)
	}
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return inla.FobjParts{}, err
	}
	parts := inla.FobjParts{LogPrior: e.Prior.LogDensity(theta)}

	qp := m.QpCSR(t)
	qc := m.QcCSR(t)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.qpFac == nil {
		if e.qpFac, err = sparse.CholFactorize(qp, nil); err != nil {
			return inla.FobjParts{}, err
		}
	} else if err = e.qpFac.Refactorize(qp); err != nil {
		return inla.FobjParts{}, err
	}
	if e.qcFac == nil {
		if e.qcFac, err = sparse.CholFactorize(qc, nil); err != nil {
			return inla.FobjParts{}, err
		}
	} else if err = e.qcFac.Refactorize(qc); err != nil {
		return inla.FobjParts{}, err
	}
	parts.LogDetQp = e.qpFac.LogDet()
	parts.LogDetQc = e.qcFac.LogDet()

	rhsPM := m.UnPerm(m.CondRHS(t))
	muPM := e.qcFac.Solve(rhsPM)
	tmp := make([]float64, len(muPM))
	qp.MulVec(muPM, tmp)
	parts.QuadQp = dense.Dot(muPM, tmp)
	parts.Mu = m.ApplyPerm(muPM)
	parts.LatentDim = len(muPM)
	parts.LogLik = m.LogLik(t, parts.Mu)
	return parts, nil
}

// EvalBatch evaluates sequentially — the factor state is shared, matching
// one PARDISO instance per evaluation group.
func (e *RINLAEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = e.EvalOne(p)
	}
	return out
}

// Posterior computes μ and latent marginal variances via the sparse
// Takahashi selected inversion, returned in the BTA ordering for interface
// parity with the DALIA evaluators.
func (e *RINLAEvaluator) Posterior(theta []float64) ([]float64, []float64, error) {
	parts, err := e.evalParts(theta)
	if err != nil {
		return nil, nil, err
	}
	e.mu.Lock()
	varPM := e.qcFac.SelectedInverseDiag()
	e.mu.Unlock()
	return parts.Mu, e.Model.ApplyPerm(varPM), nil
}

var _ inla.Evaluator = (*RINLAEvaluator)(nil)

// INLADistEvaluator is the INLA_DIST-like shared-memory evaluator: the
// sequential BTA solver with concurrent Q_p/Q_c pipelines but the naive
// O(n·b²) densification.
type INLADistEvaluator struct {
	Model *model.Model
	Prior inla.Prior
}

// EvalOne evaluates −fobj via the sequential BTA solver with naive assembly.
func (e *INLADistEvaluator) EvalOne(theta []float64) float64 {
	m := e.Model
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return math.Inf(1)
	}
	qp, err := m.QpDensifyNaive(t)
	if err != nil {
		return math.Inf(1)
	}
	qc, err := m.QcDensifyNaive(t)
	if err != nil {
		return math.Inf(1)
	}
	fp, err := bta.Factorize(qp)
	if err != nil {
		return math.Inf(1)
	}
	fc, err := bta.Factorize(qc)
	if err != nil {
		return math.Inf(1)
	}
	mu := m.CondRHS(t)
	fc.Solve(mu)
	tmp := make([]float64, len(mu))
	qp.MulVec(mu, tmp)
	quad := dense.Dot(mu, tmp)
	ll := m.LogLik(t, mu)
	f := e.Prior.LogDensity(theta) + ll + 0.5*fp.LogDet() - 0.5*quad - 0.5*fc.LogDet()
	return -f
}

// EvalBatch evaluates each point sequentially (per-group instance).
func (e *INLADistEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = e.EvalOne(p)
	}
	return out
}

// Posterior mirrors the BTA evaluator's posterior path.
func (e *INLADistEvaluator) Posterior(theta []float64) ([]float64, []float64, error) {
	be := &inla.BTAEvaluator{Model: e.Model, Prior: e.Prior}
	return be.Posterior(theta)
}

var _ inla.Evaluator = (*INLADistEvaluator)(nil)

// SimReport summarizes one simulated baseline run.
type SimReport struct {
	PerIter  float64
	Makespan float64
	Stats    comm.Stats
	// Evals counts the objective evaluations each group performed.
	Evals []int
}

// RunRINLASim simulates the R-INLA shared-memory execution on the virtual
// machine: `world` evaluation groups (the S1 OpenMP teams of [43]) each
// evaluate their share of the 2d+1 gradient points with one sparse-solver
// instance, then synchronize. Per-group work is measured from the real
// sparse kernels.
func RunRINLASim(m *model.Model, prior inla.Prior, theta0 []float64, world, iterations int, mach comm.Machine) (*SimReport, error) {
	if iterations < 1 {
		iterations = 1
	}
	d := len(theta0)
	evaluators := make([]*RINLAEvaluator, world)
	for i := range evaluators {
		evaluators[i] = &RINLAEvaluator{Model: m, Prior: prior}
	}
	evals := make([]int, world) // each rank writes its own element
	st, err := comm.Run(world, mach, nil, func(c *comm.Comm) error {
		ev := evaluators[c.Rank()]
		theta := append([]float64(nil), theta0...)
		for iter := 0; iter < iterations; iter++ {
			pts := gradientStencil(theta, 1e-3)
			vals := make([]float64, len(pts))
			for i := c.Rank(); i < len(pts); i += c.Size() {
				var f float64
				c.Compute(func() { f = ev.EvalOne(pts[i]) })
				vals[i] = f
				evals[c.Rank()]++
			}
			red := c.AllReduceSum(vals)
			// Fixed damped step, mirroring the DALIA simulated driver.
			g := make([]float64, d)
			for i := 0; i < d; i++ {
				g[i] = (red[1+2*i] - red[2+2*i]) / (2e-3)
			}
			step := 0.5 / (1 + dense.Nrm2(g))
			for i := range theta {
				theta[i] -= step * g[i]
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SimReport{
		PerIter:  st.Makespan() / float64(iterations),
		Makespan: st.Makespan(),
		Stats:    st,
		Evals:    evals,
	}, nil
}

// gradientStencil duplicates the inla central-difference layout (center,
// then ±h per dimension).
func gradientStencil(theta []float64, h float64) [][]float64 {
	d := len(theta)
	pts := make([][]float64, 0, 2*d+1)
	pts = append(pts, append([]float64(nil), theta...))
	for i := 0; i < d; i++ {
		p := append([]float64(nil), theta...)
		p[i] += h
		q := append([]float64(nil), theta...)
		q[i] -= h
		pts = append(pts, p, q)
	}
	return pts
}

// MeasureEvalSeconds times a single objective evaluation of the given
// evaluator (used by the figure drivers for single-device comparisons).
func MeasureEvalSeconds(eval func([]float64) float64, theta []float64) float64 {
	t0 := time.Now()
	eval(theta)
	return time.Since(t0).Seconds()
}
