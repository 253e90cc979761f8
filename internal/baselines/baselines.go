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
//
// The simulated runs of both comparators — RunRINLASim here and the
// INLA_DIST-like inla.RunDistributed — run inla.Minimize, the optimizer of
// DALIA's own runs, so every per-iteration figure counts the same BFGS
// iteration.
package baselines

import (
	"errors"
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
	PerIter  float64 // virtual seconds per BFGS iteration (Opt.Iterations)
	Makespan float64
	Stats    comm.Stats
	// Opt is the mode search every group ran, identical on every group.
	Opt *inla.OptResult
	// Evals counts the objective evaluations each group performed.
	Evals []int
}

// RunRINLASim simulates the R-INLA shared-memory execution on the virtual
// machine: `world` evaluation groups (the S1 OpenMP teams of [43]), each
// with one sparse-solver instance, run inla.Minimize for at most
// `iterations` (< 1 = 1) BFGS iterations from theta0 with the other
// settings of inla.DefaultOptOptions — the optimizer RunDistributed runs,
// so both count the same iteration. Every batch is split round-robin over
// the groups and summed over the world, so every group holds the same
// values and BFGS state. Per-group work is measured from the real sparse
// kernels. A failed line search keeps the iterate, as in inla.Fit.
func RunRINLASim(m *model.Model, prior inla.Prior, theta0 []float64, world, iterations int, mach comm.Machine) (*SimReport, error) {
	opt := inla.DefaultOptOptions()
	opt.MaxIter = max(1, iterations)
	rep := &SimReport{Evals: make([]int, world)} // each group writes its own Evals element
	var optErr error
	st, err := comm.Run(world, mach, nil, func(c *comm.Comm) error {
		e := &simEvaluator{RINLAEvaluator: &RINLAEvaluator{Model: m, Prior: prior}, c: c, evals: &rep.Evals[c.Rank()]}
		res, err := inla.Minimize(e, theta0, opt)
		if c.Rank() == 0 {
			rep.Opt, optErr = res, err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if optErr != nil && !errors.Is(optErr, inla.ErrLineSearchFailed) {
		return nil, optErr
	}
	rep.Stats, rep.Makespan = st, st.Makespan()
	rep.PerIter = rep.Makespan / float64(max(1, rep.Opt.Iterations))
	return rep, nil
}

// simEvaluator is one group of RunRINLASim: it evaluates its round-robin
// share of a batch on its own sparse solver and sums the batch over the
// world.
type simEvaluator struct {
	*RINLAEvaluator
	c     *comm.Comm
	evals *int
}

func (e *simEvaluator) EvalBatch(points [][]float64) []float64 {
	vals := make([]float64, len(points))
	for i := e.c.Rank(); i < len(points); i += e.c.Size() {
		e.c.Compute(func() { vals[i] = e.EvalOne(points[i]) })
		*e.evals++
	}
	return e.c.AllReduceSum(vals)
}

// StencilPlan reports one core per group, so the line search evaluates
// one candidate per group.
func (e *simEvaluator) StencilPlan(width int) inla.SharedPlan {
	g := e.c.Size()
	return inla.SharedPlan{Width: width, Cores: g, PointWorkers: min(width, g), Partitions: 1}
}

// MeasureEvalSeconds times a single objective evaluation of the given
// evaluator (used by the figure drivers for single-device comparisons).
func MeasureEvalSeconds(eval func([]float64) float64, theta []float64) float64 {
	t0 := time.Now()
	eval(theta)
	return time.Since(t0).Seconds()
}
