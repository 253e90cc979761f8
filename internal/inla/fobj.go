// Package inla implements the integrated nested Laplace approximation
// engine of the paper (§III): the objective function fobj(θ) of Eq. 8, its
// BFGS optimization with batched line-search candidates (layer S1:
// independent θ-points evaluated concurrently) and gradients — in process
// exact, from one Laplace step, a selected inversion and a contraction
// table (grad.go; for counts with one adjoint solve more); for the
// distributed evaluator parallel central differences — the solver
// integration (package bta:
// the sequential factor in process, layer S3's partitioned solvers in the
// distributed evaluator), posterior extraction for the hyperparameters
// (Hessian at the mode) and for the latent field (selected inversion of
// Q_c).
//
// One evaluation of fobj factorizes one BTA matrix, Q_c. The prior's two
// scalars — log det Q_p and μᵀQ_pμ — are closed forms of the LMC ⊗ temporal
// ⊗ SPDE structure (model.PriorLogDet, model.PriorQuad; microseconds), so
// no evaluator has a prior pipeline, and the paper's layer S2 — Q_p and Q_c
// factorized concurrently on two halves of a rank group — has no work: the
// distributed evaluator (dist.go) runs the same arithmetic over S1 groups
// of S3 solvers. The assembled joint Q_p is the closed forms' test oracle,
// and the INLA_DIST-like comparator's arithmetic (package baselines).
//
// fobj(θ) and the latent posterior p_G(x|θ,y) come from one Laplace step,
// laplaceStep: Q_c(θ) factorized at the conditional mode μ (for counts,
// found by the inner Newton loop). closeFobj turns θ, μ and log|Q_c| into
// the terms of Eq. 8; every evaluation — pooled, sequential or on a
// distributed solver's root — ends with it. The latent posterior at a θ —
// μ and, on request, the blocks of Σ = Q_c⁻¹ — is latentPosterior
// (mode.go): the Laplace step on a sequential factor and its selected
// inversion, whatever the core budget, so it returns the same bits for the
// same θ. Fit, BTAEvaluator.Posterior, ModeFactor, ModeSigma and
// SamplePosterior all call it, and Fit keeps the Σ it computed at θ* on
// Result.Sigma for the prediction layer to freeze.
//
// A gradient request computes that same Laplace step and selected
// inversion at its centre — for counts at the centre's mode from x = 0 —
// and its arena remembers the centre bit for bit (gradWork). So a Fit's
// second stage reuses the search's last request: when it was at θ*, the
// posterior returns its μ, factor and Σ without recomputing them. For a
// Gaussian model with a separable prior the mode Hessian (§III-3) is
// forward differences of d exact gradients around θ*, run concurrently
// over the core budget, instead of the 2d² + 1-point stencil of F that
// count models, the diffusion prior and every other evaluator keep
// (hessianFromGradients, hessianFromStencil).
package inla

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/sched"
)

// evalLabels caches eval=<k> pprof label contexts so batch runners tag each
// point's work for per-evaluation profile attribution without allocating.
var evalLabels = sched.NewLabelSet("eval")

// Prior places independent Gaussian priors on the working-scale
// hyperparameters θ.
type Prior struct {
	Mean []float64
	SD   []float64
}

// WeakPrior centers a wide prior (sd) at the given point.
func WeakPrior(center []float64, sd float64) Prior {
	m := append([]float64(nil), center...)
	s := make([]float64, len(center))
	for i := range s {
		s[i] = sd
	}
	return Prior{Mean: m, SD: s}
}

// LogDensity evaluates Σ log N(θ_i | mean_i, sd_i²).
func (p Prior) LogDensity(theta []float64) float64 {
	var ll float64
	for i, t := range theta {
		z := (t - p.Mean[i]) / p.SD[i]
		ll += -0.5*z*z - math.Log(p.SD[i]) - 0.5*math.Log(2*math.Pi)
	}
	return ll
}

// dLogDensity is ∂ log p(θ)/∂θ_i.
func (p Prior) dLogDensity(theta []float64, i int) float64 {
	return -(theta[i] - p.Mean[i]) / (p.SD[i] * p.SD[i])
}

// FobjParts carries the per-term decomposition of one objective evaluation
// (Eq. 8), plus the conditional mean computed on the way.
type FobjParts struct {
	LogPrior  float64
	LogLik    float64
	LogDetQp  float64
	LogDetQc  float64
	QuadQp    float64 // μᵀ·Q_p·μ
	Mu        []float64
	LatentDim int
}

// F returns fobj(θ) = log p(θ) + log ℓ(y|θ,x*) + log p(x*|θ) − log p_G(x*|θ,y).
// For the Gaussian likelihood the Laplace approximation is exact and the
// Gaussian normalization constants of the two densities cancel:
// fobj = log p(θ) + log ℓ + ½log|Q_p| − ½μᵀQ_pμ − ½log|Q_c|.
func (p FobjParts) F() float64 {
	return p.LogPrior + p.LogLik + 0.5*p.LogDetQp - 0.5*p.QuadQp - 0.5*p.LogDetQc
}

// evalVectors are the vectors of one evaluation besides its matrices.
type evalVectors struct {
	mu  []float64 // conditional mean (solution of Q_c·μ = rhs)
	z   []float64 // one process of (Λ_c⁻¹⊗I)·μ for the prior quadratic form
	pm  []float64 // process-major rhs before permutation, then μ unpermuted
	obs []float64 // (nv+1)·M: response combinations, projections, residual
}

func newEvalVectors(m *model.Model) evalVectors {
	tot := m.Dims.Total()
	return evalVectors{
		mu:  make([]float64, tot),
		z:   make([]float64, m.Dims.PerProcess()),
		pm:  make([]float64, tot),
		obs: make([]float64, (m.Dims.Nv+1)*m.Obs.M()),
	}
}

// solverScratch is the reusable arena of one fobj evaluation: the solver
// backend of the conditional precision, into whose workspace the Laplace
// step assembles Q_c, and the evaluation's vectors. It holds no other BTA
// matrix but, in a gradient arena, the Σ of a gradient request:
// the prior's two scalars come in closed form from
// model.PriorLogDet / PriorQuad, and a count model's Q_p(θ) lives in its
// NewtonWork. After warm-up, repeated assemble + factorize + Solve cycles
// on the same scratch perform zero heap allocations — the
// fixed-memory-footprint property the INLA mode search needs across its
// hundreds of θ-evaluations.
type solverScratch struct {
	fc *bta.Factor // the one factor every evaluation on the arena runs on

	evalVectors

	newton *model.NewtonWork  // count models' inner loop, built on first use
	mode   *model.PoissonMode // count models: the last evaluation's mode, aliasing newton

	grad *gradWork // a gradient arena's (grad.go); nil in the others
}

func newSolverScratch(m *model.Model) *solverScratch {
	return &solverScratch{fc: bta.NewFactor(m.Dims.BTAShape()), evalVectors: newEvalVectors(m)}
}

// newtonWork is the arena's count-model Newton work, built on first use.
func (ws *solverScratch) newtonWork(m *model.Model) *model.NewtonWork {
	if ws.newton == nil {
		ws.newton = m.NewNewtonWork()
	}
	return ws.newton
}

// EvalFobj evaluates the objective at theta using the sequential BTA solver
// (the single-device DALIA path): one factorization, of Q_c; the prior's
// log-determinant and quadratic form are closed forms. Non-Gaussian
// likelihoods route through the inner Newton loop for the conditional mode.
func EvalFobj(m *model.Model, prior Prior, theta []float64) (FobjParts, error) {
	return evalFobjScratch(m, prior, theta, nil)
}

// evalFobjScratch is EvalFobj against a caller-owned arena (nil allocates a
// fresh one): decode θ, then the Laplace step on the arena's sequential
// factor and the closing step. The returned FobjParts.Mu aliases the arena
// and is only valid until the arena's next evaluation.
func evalFobjScratch(m *model.Model, prior Prior, theta []float64, ws *solverScratch) (FobjParts, error) {
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return FobjParts{}, err
	}
	if ws == nil {
		ws = newSolverScratch(m)
	}
	mu, err := laplaceStep(m, t, ws.fc, ws)
	if err != nil {
		return FobjParts{}, err
	}
	return closeFobj(m, prior, t, theta, mu, ws.fc.LogDet(), &ws.evalVectors)
}

// laplaceStep leaves Q_c(θ) factorized on f at the conditional mode of the
// latent field and returns the mode μ (BTA ordering), the step fobj and
// p_G(x|θ,y) share (§III). For the Gaussian likelihood it assembles Q_c
// into f's workspace, factorizes it there and solves Q_c·μ = rhs into
// ws.mu. For counts the inner Newton loop (model.ConditionalModeInto) finds
// the mode from x = 0 on f, and ws.mode keeps it. μ aliases ws until its
// next evaluation.
func laplaceStep(m *model.Model, t *model.Theta, f *bta.Factor, ws *solverScratch) ([]float64, error) {
	if m.Lik == model.LikPoisson {
		mode, err := m.ConditionalModeInto(t, f, ws.newtonWork(m))
		if ws.mode = mode; err != nil {
			return nil, err
		}
		return mode.XPerm, nil
	}
	if err := m.QcInto(t, f.Workspace()); err != nil {
		return nil, err
	}
	if err := f.FactorizeWorkspace(); err != nil {
		return nil, fmt.Errorf("inla: Q_c factorization: %w", err)
	}
	m.CondRHSInto(t, ws.mu, ws.pm, ws.obs)
	f.Solve(ws.mu)
	return ws.mu, nil
}

// closeFobj is the closing step of an evaluation: it turns θ, the mode μ
// (BTA ordering) and log|Q_c| at μ into the terms of Eq. 8 — the prior
// density, log det Q_p and μᵀQ_pμ in closed form, and log ℓ(y|μ) — on the
// scratch vectors of v other than μ.
func closeFobj(m *model.Model, prior Prior, t *model.Theta, theta, mu []float64, logDetQc float64, v *evalVectors) (FobjParts, error) {
	logDetQp, err := m.PriorLogDet(t)
	if err != nil {
		return FobjParts{}, err
	}
	return FobjParts{
		LogPrior:  prior.LogDensity(theta),
		LogLik:    m.LogLikInto(t, mu, v.pm, v.obs),
		LogDetQp:  logDetQp,
		LogDetQc:  logDetQc,
		QuadQp:    m.PriorQuad(t, mu, v.z),
		Mu:        mu,
		LatentDim: len(mu),
	}, nil
}

// Evaluator evaluates −fobj at a batch of hyperparameter points; its
// implementations define where the work runs (goroutines here, each point
// on a sequential factor; the comm simulator in dist.go, each point on an
// S1 group's S3 solver; both with one Laplace step per point; the
// comparators' own arithmetic in package baselines), and Minimize drives
// every one of them. Infeasible points (non-SPD precision) evaluate to
// +Inf. A batch laid out as a central-difference stencil
// (fillGradientPoints, with or without its centre) is a gradient request:
// an evaluator may answer its arms with first-order values
// V(c) ± h_i·∂_iV(c) (BTAEvaluator does), so only the arms' central
// differences carry meaning, not the values themselves. The
// latent posterior is not an evaluator's business: it is latentPosterior
// of the model, whatever the backend.
type Evaluator interface {
	EvalBatch(points [][]float64) []float64
}

// BTAEvaluator runs fobj on the structured BTA solvers with goroutine
// parallelism across points (S1): its core budget bounds the concurrent
// point evaluations, and every evaluation factorizes Q_c on the sequential
// factor of its arena, whatever the budget, so the values depend on the
// points alone. Every worker draws a solverScratch arena from an internal
// pool, so steady-state batches re-use the precision workspace, factor and
// vectors instead of re-allocating them at each evaluation.
//
// A gradient stencil is answered from one Laplace step at its centre
// (evalGradientRequest); for a count model at the centre's mode from
// x = 0, kept from the line-search round that accepted the centre when it
// did (evalCountBatch). Every inner Newton loop starts from x = 0.
type BTAEvaluator struct {
	Model *model.Model
	Prior Prior
	// Workers is the core budget: the bound on concurrent point
	// evaluations, and the line search's candidates per round
	// (StencilPlan); 0 = GOMAXPROCS.
	Workers int
	// S2 has no effect. It is kept only because the end-to-end benchmark
	// sets it, and goes with the next change to that benchmark.
	S2 bool
	// exec overrides the task executor batches run on (nil =
	// sched.Shared()), a test seam: private executors let tests assert
	// shutdown/leak behaviour in isolation.
	exec *sched.Executor

	scratch sync.Pool                     // *solverScratch, shape-bound to Model
	grads   atomic.Pointer[solverScratch] // the idle gradient arena (grad.go), if any

	// Quarantine bookkeeping: failed θ evaluations (infeasible points,
	// non-SPD beyond the solver's recovery, escaped panics) are absorbed as
	// +Inf and recorded here instead of crashing the fit.
	failures    atomic.Int64
	evalErrMu   sync.Mutex
	lastEvalErr *EvalError

	// Count models: the last line-search round's modes (evalCountBatch),
	// and the inner Newton steps of every mode solve, read by
	// BenchmarkMinimizeOneIterationPoisson.
	modes       modeCache
	newtonSteps atomic.Int64

	// gradRequests counts gradient requests (gradientOn), read by
	// BenchmarkHessianAtMode and BenchmarkMinimizeOneIterationPoisson.
	gradRequests atomic.Int64
}

// EvalError is one quarantined θ evaluation failure: the point, the retry
// attempt it occurred on (0 for a first evaluation), and the underlying
// cause. BFGS absorbs quarantined evaluations as +Inf objective values and
// recovers with step-backoff (maxEvalRetries retries, each shrinking the
// gradient step by retryBackoff; bfgs.go).
type EvalError struct {
	Theta   []float64
	Attempt int
	Err     error
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("inla: evaluation at θ=%v quarantined (attempt %d): %v", e.Theta, e.Attempt, e.Err)
}

func (e *EvalError) Unwrap() error { return e.Err }

// quarantine records one failed evaluation.
func (e *BTAEvaluator) quarantine(theta []float64, err error) {
	ee := &EvalError{Theta: append([]float64(nil), theta...), Err: err}
	e.failures.Add(1)
	e.evalErrMu.Lock()
	e.lastEvalErr = ee
	e.evalErrMu.Unlock()
}

// EvalFailures returns how many evaluations have been quarantined. It
// counts the speculative line-search candidates too: a candidate past the
// accepted step is evaluated, and may fail, although the search never moves
// there.
func (e *BTAEvaluator) EvalFailures() int64 { return e.failures.Load() }

// LastEvalError returns the most recently quarantined evaluation (nil when
// every evaluation so far succeeded).
func (e *BTAEvaluator) LastEvalError() *EvalError {
	e.evalErrMu.Lock()
	defer e.evalErrMu.Unlock()
	return e.lastEvalErr
}

func (e *BTAEvaluator) getScratch() *solverScratch {
	if ws, ok := e.scratch.Get().(*solverScratch); ok {
		return ws
	}
	return newSolverScratch(e.Model)
}

// cores resolves the evaluator's core budget.
func (e *BTAEvaluator) cores() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// executor resolves the task executor the evaluator's batches run on.
func (e *BTAEvaluator) executor() *sched.Executor {
	if e.exec != nil {
		return e.exec
	}
	return sched.Shared()
}

// StencilPlan reports the evaluator's core budget, the same for a batch of
// any width (the StencilPlanner hook of Minimize, whose line search
// evaluates StencilPlan(1).Cores candidates per batch).
func (e *BTAEvaluator) StencilPlan(width int) SharedPlan {
	return SharedPlan{Cores: e.cores()}
}

// EvalBatch evaluates −fobj at every point, +Inf for infeasible ones. The
// batch runs at a bound of min(width, core budget) concurrent point
// evaluations pulling points off a shared counter (dynamic load balance:
// line-search-adjacent batches mix cheap and infeasible points), each on
// the sequential factor of its arena. The point bodies are heavy
// tasks on the shared work-stealing executor — warm workers reused across
// gradient/Hessian/line-search batches, and tasks from concurrently running
// batches interleaved on the same cores.
//
// A batch laid out as a gradient stencil is a gradient request. It costs
// one Laplace step at the centre on the sequential factor and one selected
// inversion — for a count model one adjoint solve more, and no Newton step
// when the centre's mode is kept (evalCountBatch) — and its arms hold the
// first-order values V(c) ± h_i·∂_iV(c) with the exact ∂V
// (evalGradientRequest): only their central differences carry meaning.
// When the centre fails, every point is evaluated. Either way the values
// depend only on the points, never on the core budget or on earlier
// batches.
func (e *BTAEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	switch {
	case e.Model.Lik == model.LikPoisson:
		e.evalCountBatch(points, out)
	case !e.evalGradientRequest(points, out, nil):
		e.evalPoints(points, out, nil)
	}
	return out
}

// evalPoints evaluates −fobj at every point into out as one scheduled
// batch, quarantining the failures as +Inf. For a count model keep, when
// set, receives the mode of every point that succeeded at keep[i].
func (e *BTAEvaluator) evalPoints(points [][]float64, out []float64, keep [][]float64) {
	e.runOnExecutor(len(points), e.cores(), func(i int) {
		var k []float64
		if keep != nil {
			k = keep[i]
		}
		v, err := e.evalPoint(points[i], k)
		if err != nil {
			e.quarantine(points[i], err)
		}
		out[i] = v
	})
}

// evalPoint evaluates −fobj at theta on a pooled arena: +Inf and the cause
// for a failed point. A solver abort costs the point, not the process; the
// poisoned arena is dropped, not pooled. For a count model the inner
// loop's steps are counted, and keep, when set, receives the mode.
func (e *BTAEvaluator) evalPoint(theta []float64, keep []float64) (float64, error) {
	ws := e.getScratch()
	var parts FobjParts
	var err error
	panicked := true
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("inla: evaluation panicked: %v", r)
			}
		}()
		parts, err = evalFobjScratch(e.Model, e.Prior, theta, ws)
		panicked = false
	}()
	if panicked {
		return math.Inf(1), err
	}
	defer e.scratch.Put(ws) // parts.Mu and ws.mode are dead past this call
	if err != nil {
		return math.Inf(1), err
	}
	if ws.mode != nil {
		e.newtonSteps.Add(int64(ws.mode.Inner))
		copy(keep, ws.mode.XPM)
	}
	return -parts.F(), nil
}

// runOnExecutor executes body(i) for i in [0, n) as at most `workers`
// concurrent runners: workers−1 heavy tasks submitted to the executor's
// injector plus the calling goroutine, all pulling indices from a shared
// atomic counter. The caller finishes by help-joining (WaitHeavy), so the
// batch completes even when every executor worker is busy in another
// evaluation — and those workers, when free, pick these runners up without
// a single goroutine spawn.
func (e *BTAEvaluator) runOnExecutor(n, workers int, body func(i int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	runner := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				pprof.SetGoroutineLabels(context.Background())
				return
			}
			pprof.SetGoroutineLabels(evalLabels.Get(i))
			body(i)
		}
	}
	if workers == 1 {
		runner()
		return
	}
	ex := e.executor()
	var g sched.Group
	g.Init(ex)
	g.Add(workers - 1)
	tasks := make([]sched.Task, workers-1)
	for k := range tasks {
		tasks[k].Reset(ex, &g, runner, nil)
		ex.Submit(&tasks[k])
	}
	runner()
	g.WaitHeavy(nil)
}

// Posterior computes μ(θ) and the latent marginal variances, the diagonal
// of the sequential selected inversion of Q_c (latentPosterior); it is
// what Fit integrates over the hyperparameter grid. Count models center
// the Gaussian approximation at the conditional mode.
func (e *BTAEvaluator) Posterior(theta []float64) ([]float64, []float64, error) {
	_, mu, _, sig, err := latentPosterior(e.Model, theta, true, nil)
	if err != nil {
		return nil, nil, err
	}
	return mu, sig.DiagVec(), nil
}
