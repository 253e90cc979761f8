// Package baselines implements the two comparator systems of Table I so the
// evaluation figures can show the same three frameworks as the paper:
//
//   - RINLAEvaluator — the R-INLA-like path: the INLA objective evaluated
//     through the *general sparse* Cholesky solver (package sparse, our
//     PARDISO stand-in) in process-major ordering with a fill-reducing
//     permutation, shared-memory parallelism across function evaluations
//     only (the nested OpenMP scheme), no structured-solver exploitation,
//     no distribution.
//   - INLA_DIST-like — the sequential BTA solver over the undistributed
//     O(n·b²) densification, factorizing both Q_p and Q_c, with the S1
//     and S2 layers and no S3 (RunINLADistSim). DALIA has no S2 layer:
//     its prior terms are closed forms, so an evaluation factorizes Q_c
//     alone.
//
// The simulated runs of both comparators, RunRINLASim and RunINLADistSim,
// run inla.Minimize, the optimizer of DALIA's own runs, so every
// per-iteration figure counts the same BFGS iteration.
package baselines

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// RINLAEvaluator evaluates −fobj through the general sparse solver, one
// point at a time: the factor state is shared, one PARDISO instance per
// evaluation group. The
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

// Posterior computes μ and latent marginal variances via the sparse
// Takahashi selected inversion, returned in the BTA ordering of the DALIA
// evaluators.
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
// with one sparse-solver instance, run inla.Minimize (runSim). Per-group
// work is measured from the real sparse kernels.
func RunRINLASim(m *model.Model, prior inla.Prior, theta0 []float64, world, iterations int, mach comm.Machine) (*SimReport, error) {
	return runSim(theta0, world, iterations, mach, func(c *comm.Comm) func([]float64) float64 {
		e := &RINLAEvaluator{Model: m, Prior: prior}
		return func(theta []float64) (f float64) {
			c.Compute(func() { f = e.EvalOne(theta) })
			return f
		}
	})
}

// RunINLADistSim simulates the INLA_DIST execution on the virtual machine:
// `world` ranks spread over S1 groups as inla.MakePlan spreads them, each
// group evaluating its points with inlaDistParts and running inla.Minimize
// (runSim). A group of two or more ranks runs the Q_c and Q_p halves of an
// evaluation side by side — INLA_DIST's S2 layer — and is charged the
// larger of the two measured halves; a one-rank group is charged both.
// Ranks past the second of a group idle: INLA_DIST has no S3 layer.
func RunINLADistSim(m *model.Model, prior inla.Prior, theta0 []float64, world, iterations int, mach comm.Machine) (*SimReport, error) {
	_, b, a := m.Dims.BTAShape()
	plan := inla.MakePlan(world, 2*m.NumHyper()+1, 0, 0, m.Dims.Nt, b, a)
	return runSim(theta0, plan.Groups, iterations, mach, func(c *comm.Comm) func([]float64) float64 {
		s2 := plan.GroupSizes[c.Rank()] >= 2
		return func(theta []float64) float64 {
			var sum, slowest float64
			parts, err := inlaDistParts(m, prior, theta, func(half func()) {
				dt := c.Measure(half)
				sum, slowest = sum+dt, max(slowest, dt)
			})
			if !s2 {
				slowest = sum
			}
			c.Elapse(slowest)
			if err != nil {
				return math.Inf(1)
			}
			return -parts.F()
		}
	})
}

// inlaDistParts evaluates fobj(θ) the INLA_DIST way: Q_c and Q_p densified
// naively (O(n·b²)) and both factorized by the sequential BTA solver. It
// runs its two halves through half — the Q_c pipeline (assembly,
// factorization, solve, likelihood), then the Q_p pipeline (assembly,
// factorization, μᵀQ_pμ) — so a caller can time them apart.
func inlaDistParts(m *model.Model, prior inla.Prior, theta []float64, half func(func())) (inla.FobjParts, error) {
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return inla.FobjParts{}, err
	}
	parts := inla.FobjParts{LogPrior: prior.LogDensity(theta)}
	half(func() {
		var f *bta.Factor
		if _, f, err = naiveFactor(m.QcDensifyNaive, t); err == nil {
			parts.Mu = m.CondRHS(t)
			f.Solve(parts.Mu)
			parts.LogDetQc, parts.LogLik = f.LogDet(), m.LogLik(t, parts.Mu)
		}
	})
	if err != nil {
		return inla.FobjParts{}, err
	}
	half(func() {
		var q *bta.Matrix
		var f *bta.Factor
		if q, f, err = naiveFactor(m.QpDensifyNaive, t); err == nil {
			tmp := make([]float64, len(parts.Mu))
			q.MulVec(parts.Mu, tmp)
			parts.LogDetQp, parts.QuadQp = f.LogDet(), dense.Dot(parts.Mu, tmp)
		}
	})
	return parts, err
}

// naiveFactor densifies a precision and factorizes it.
func naiveFactor(densify func(*model.Theta) (*bta.Matrix, error), t *model.Theta) (*bta.Matrix, *bta.Factor, error) {
	q, err := densify(t)
	if err != nil {
		return nil, nil, err
	}
	f, err := bta.Factorize(q)
	return q, f, err
}

// runSim runs inla.Minimize for at most `iterations` (< 1 = 1) BFGS
// iterations from theta0, with the other settings of
// inla.DefaultOptOptions — the optimizer inla.RunDistributed runs, so every
// simulation counts the same iteration — on `groups` simulated groups.
// newEval builds a group's evaluation of one point, which charges the group
// for its work. Every batch is split round-robin over the groups and summed
// over the world, so every group holds the same values and BFGS state. A
// failed line search keeps the iterate, as in inla.Fit.
func runSim(theta0 []float64, groups, iterations int, mach comm.Machine, newEval func(*comm.Comm) func([]float64) float64) (*SimReport, error) {
	opt := inla.DefaultOptOptions()
	opt.MaxIter = max(1, iterations)
	rep := &SimReport{Evals: make([]int, groups)} // each group writes its own Evals element
	var optErr error
	st, err := comm.Run(groups, mach, nil, func(c *comm.Comm) error {
		e := &simEvaluator{c: c, eval: newEval(c), evals: &rep.Evals[c.Rank()]}
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

// simEvaluator is one group of runSim: it evaluates its round-robin share
// of a batch and sums the batch over the world.
type simEvaluator struct {
	c     *comm.Comm
	eval  func([]float64) float64
	evals *int
}

func (e *simEvaluator) EvalBatch(points [][]float64) []float64 {
	vals := make([]float64, len(points))
	for i := e.c.Rank(); i < len(points); i += e.c.Size() {
		vals[i] = e.eval(points[i])
		*e.evals++
	}
	return e.c.AllReduceSum(vals)
}

// StencilPlan reports one core per group, so the line search evaluates
// one candidate per group.
func (e *simEvaluator) StencilPlan(width int) inla.SharedPlan {
	return inla.SharedPlan{Cores: e.c.Size()}
}
