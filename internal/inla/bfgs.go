package inla

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
)

// OptOptions configures the quasi-Newton mode search (§III-2).
type OptOptions struct {
	MaxIter  int     // BFGS iteration cap
	GradStep float64 // central-difference step h (Eq. 10)
	GradTol  float64 // ‖∇F‖∞ convergence threshold
	StepTol  float64 // minimal line-search step before giving up
	// Ctx, when non-nil, lets a caller abort the search between iterations:
	// cancellation is observed at iteration boundaries only (a checkpoint
	// boundary — the iterate, gradient and inverse Hessian are consistent),
	// and the search returns the current iterate with ErrFitCanceled.
	Ctx context.Context
	// Checkpoint, when set, receives a consistent deep-copied snapshot of
	// the optimizer state every CheckpointEvery completed iterations (and on
	// a context abort). An error returned by the callback stops the search
	// — callers that treat persistence as best-effort absorb errors inside
	// the callback instead.
	Checkpoint func(*OptCheckpoint) error
	// CheckpointEvery is the iteration stride of the Checkpoint callback
	// (≤ 0 = every iteration).
	CheckpointEvery int
	// Resume, when set, restarts the search from a previously captured
	// checkpoint instead of theta0: the iterate, gradient, objective and
	// inverse Hessian are restored exactly, so the continuation performs the
	// same evaluations the uninterrupted run would have from that iteration
	// on. Iteration and evaluation counters continue from the checkpoint.
	Resume *OptCheckpoint
}

// DefaultOptOptions mirrors the tolerances R-INLA uses for its BFGS stage.
func DefaultOptOptions() OptOptions {
	return OptOptions{MaxIter: 60, GradStep: 1e-3, GradTol: 5e-3, StepTol: 1e-10}
}

// The gradient retry policy: an undefined finite-difference gradient (a
// stencil arm quarantined as +Inf/NaN) is retried with the step shrunk by
// retryBackoff, which pulls the arms back inside the feasible region, at
// most maxEvalRetries times before the search gives up with
// ErrGradientUndefined.
const (
	maxEvalRetries = 2
	retryBackoff   = 0.5
)

// OptResult reports the outcome of the mode search.
type OptResult struct {
	Theta      []float64
	F          float64
	Iterations int
	// FEvals counts every point handed to the evaluator: each stencil point
	// (also when the evaluator answers the stencil as a gradient request,
	// from one Laplace step) and the speculative line-search candidates past
	// the accepted step (at most k−1 per line search, k set by the
	// evaluator's core budget — see Minimize), so it depends on that budget
	// while θ, F and the trace do not.
	FEvals    int
	Trace     []float64 // F value per iteration
	Converged bool
}

// ErrLineSearchFailed signals that no decreasing step could be found; the
// current iterate is returned as the best available mode.
var ErrLineSearchFailed = errors.New("inla: line search failed to decrease the objective")

// ErrGradientUndefined signals that a finite-difference stencil touched
// infeasible points, leaving the gradient NaN/Inf; the current iterate is
// returned as the best available mode.
var ErrGradientUndefined = errors.New("inla: finite-difference gradient is undefined (stencil hit infeasible points)")

// ErrFitCanceled signals that the search's context was canceled; the search
// stopped at an iteration boundary and the current iterate is returned as
// the best available mode (a resumable checkpoint was emitted first when a
// Checkpoint callback is configured).
var ErrFitCanceled = errors.New("inla: fit canceled")

// finiteVec reports whether every component is finite.
func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// fillGradientPoints refills a preallocated 2d+1-point central-difference
// stencil (the S1 batch) in place: the center followed by θ ± h·e_i.
func fillGradientPoints(pts [][]float64, theta []float64, h float64) {
	copy(pts[0], theta)
	for i := range theta {
		copy(pts[1+2*i], theta)
		pts[1+2*i][i] += h
		copy(pts[2+2*i], theta)
		pts[2+2*i][i] -= h
	}
}

// gradientCentre is the inverse of fillGradientPoints: it recognizes a
// batch laid out as a central-difference stencil — the centre followed by
// the pairs θ + h·e_i, θ − h·e_i, or the 2d pairs alone — writes the centre
// into c (of the points' length d) and returns the index of the first arm
// (1 with the centre, 0 without). Coordinate j of the centre is read off
// pair (j+1) mod d, which fillGradientPoints copied from θ unchanged, so
// it is exact; then every arm must equal the centre off its own
// coordinate and its pair must straddle the centre on it, and a leading
// centre must equal the one read off the arms. The points of a
// line-search round lie on a line and never match for d ≥ 2; d = 1 is
// never recognized, since one pair alone does not fix its centre.
func gradientCentre(pts [][]float64, c []float64) (from int, ok bool) {
	d := len(c)
	switch {
	case d < 2:
		return 0, false
	case len(pts) == 2*d+1:
		from = 1
	case len(pts) != 2*d:
		return 0, false
	}
	for _, p := range pts {
		if len(p) != d {
			return 0, false
		}
	}
	arms := pts[from:]
	for j := range c {
		c[j] = arms[2*((j+1)%d)][j]
	}
	for i := 0; i < d; i++ {
		plus, minus := arms[2*i], arms[2*i+1]
		for j, cj := range c {
			if j == i {
				if !(plus[j] > cj && minus[j] < cj) {
					return 0, false
				}
			} else if plus[j] != cj || minus[j] != cj {
				return 0, false
			}
		}
	}
	if from == 1 && !slices.Equal(pts[0], c) {
		return 0, false
	}
	return from, true
}

// gradientFromBatchInto extracts ∇F(θ) into g from batched values in
// fillGradientPoints order and returns the center value F(θ).
func gradientFromBatchInto(g, vals []float64, h float64) float64 {
	for i := range g {
		g[i] = (vals[1+2*i] - vals[2+2*i]) / (2 * h)
	}
	return vals[0]
}

// bfgsState holds every per-iteration buffer of the mode search. The BFGS
// loop ran hot enough that rebuilding the direction, trial point and
// curvature vectors on each line-search step showed up next to the solver
// work itself; with the state allocated once, an iteration's bookkeeping
// (everything but the Evaluator calls and the trace append) is
// allocation-free (pinned by TestBFGSIterationAllocFree).
type bfgsState struct {
	x, p, s, yv, hy, g, gNew []float64
	pts                      [][]float64 // 2d+1 gradient stencil, centre first
	vals                     []float64   // the stencil's values, centre first
	cands                    [][]float64 // one line-search round's candidates
}

// newBFGSState allocates the state for a search from theta0 whose line
// search evaluates k candidates per round.
func newBFGSState(theta0 []float64, k int) *bfgsState {
	d := len(theta0)
	st := &bfgsState{
		x:     append([]float64(nil), theta0...),
		p:     make([]float64, d),
		s:     make([]float64, d),
		yv:    make([]float64, d),
		hy:    make([]float64, d),
		g:     make([]float64, d),
		gNew:  make([]float64, d),
		pts:   make([][]float64, 2*d+1),
		vals:  make([]float64, 2*d+1),
		cands: make([][]float64, k),
	}
	for i := range st.pts {
		st.pts[i] = make([]float64, d)
	}
	for i := range st.cands {
		st.cands[i] = make([]float64, d)
	}
	return st
}

// lineSearchWidth is the number of candidate steps one line-search round
// evaluates: one per core of the evaluator's plan (StencilPlan(1).Cores),
// and 1 for evaluators without a plan.
func lineSearchWidth(e Evaluator) int {
	p, ok := e.(StencilPlanner)
	if !ok {
		return 1
	}
	return max(1, p.StencilPlan(1).Cores)
}

// evalGradient evaluates the central-difference gradient at x into g via
// the evaluator, shrinking the stencil step and retrying when an arm lands
// on an infeasible (quarantined) point, per the retry policy
// (maxEvalRetries, retryBackoff). f is F(x) when the caller already knows
// it (the accepted line-search candidate): then only the 2d arms are
// evaluated. NaN means unknown; the first attempt then evaluates the centre
// with the arms, and retries reuse it. It returns F(x), the number of
// evaluations spent, and whether the resulting gradient is finite.
func evalGradient(e Evaluator, st *bfgsState, x, g []float64, f float64, opt OptOptions) (float64, int, bool) {
	h := opt.GradStep
	from := 1 // first stencil point to evaluate: 0 includes the centre
	if math.IsNaN(f) {
		from = 0
	}
	nevals := 0
	for attempt := 0; ; attempt++ {
		fillGradientPoints(st.pts, x, h)
		st.vals[0] = f
		copy(st.vals[from:], e.EvalBatch(st.pts[from:]))
		nevals += len(st.pts) - from
		f, from = gradientFromBatchInto(g, st.vals, h), 1
		if finiteVec(g) {
			return f, nevals, true
		}
		if attempt >= maxEvalRetries {
			return f, nevals, false
		}
		h *= retryBackoff
	}
}

// searchPoint fills xNew = x + step·p.
func searchPoint(xNew, x, p []float64, step float64) {
	for i := range xNew {
		xNew[i] = x[i] + step*p[i]
	}
}

// lineSearch is the backtracking Armijo search from st.x along st.p, k =
// len(st.cands) candidates per round: one batch evaluates step, step/2, …,
// step/2^(k−1) (none below stepTol), and the first to pass the Armijo test
// in halving order is accepted — the step one-at-a-time backtracking
// accepts. It returns the accepted candidate's index in st.cands (−1 when no
// step ≥ stepTol passes), its value, and the evaluations spent.
func lineSearch(e Evaluator, st *bfgsState, f, stepTol float64) (acc int, fNew float64, nevals int) {
	slope := dense.Dot(st.g, st.p)
	step := 1.0
	for step >= stepTol {
		n := 0
		for s := step; n < len(st.cands) && s >= stepTol; s *= 0.5 {
			searchPoint(st.cands[n], st.x, st.p, s)
			n++
		}
		nevals += n
		for j, v := range e.EvalBatch(st.cands[:n]) {
			if v < f+1e-4*step*slope {
				return j, v, nevals
			}
			step *= 0.5
		}
	}
	return -1, 0, nevals
}

// setEye resets a square matrix to the identity in place.
func setEye(m *dense.Matrix) {
	m.Zero()
	for i := 0; i < m.Rows; i++ {
		m.Set(i, i, 1)
	}
}

// bfgsUpdate applies the inverse BFGS update (Nocedal & Wright Eq. 6.17)
// for the displacement s and gradient change yv, using hy as workspace.
// Degenerate curvature (sᵀy ≤ 0, up to roundoff) skips the update.
func bfgsUpdate(hInv *dense.Matrix, s, yv, hy []float64) {
	sy := dense.Dot(s, yv)
	if sy <= 1e-12 {
		return
	}
	rho := 1 / sy
	dense.Gemv(dense.NoTrans, 1, hInv, yv, 0, hy)
	yhy := dense.Dot(yv, hy)
	// H ← H − ρ(s·hyᵀ + hy·sᵀ) + ρ²(yᵀHy)s·sᵀ + ρ·s·sᵀ
	d := len(s)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			v := hInv.At(i, j)
			v -= rho * (s[i]*hy[j] + hy[i]*s[j])
			v += rho * (rho*yhy + 1) * s[i] * s[j]
			hInv.Set(i, j, v)
		}
	}
}

// snapshotOpt deep-copies the live optimizer state into a resumable
// checkpoint (the Checkpoint callback owns the copy outright).
func snapshotOpt(st *bfgsState, hInv *dense.Matrix, f float64, iter int, res *OptResult) *OptCheckpoint {
	return (&OptCheckpoint{
		Theta: st.x, Grad: st.g, F: f, HInv: hInv,
		Iter: iter, FEvals: res.FEvals, Trace: res.Trace,
	}).clone()
}

// Minimize runs BFGS on F(θ) = −fobj(θ) with gradients from central
// differences of a stencil batch evaluated through the Evaluator, which may
// answer it as a gradient request (Evaluator): then the arms' values are
// first-order and only their differences are the gradient. FEvals counts
// the stencil's points either way. Each iteration is an
// Armijo backtracking line search whose batches hold k halving candidate
// steps — k = StencilPlan(1).Cores, one per core of the evaluator's budget
// (1 without a StencilPlanner) — and which accepts the step one-at-a-time
// backtracking accepts, so θ, F and the trace do not depend on k. The accepted candidate's value is F at the new
// iterate, so the gradient batch that follows evaluates only the 2d arms.
// All iteration state lives in buffers allocated once up front; the
// per-iteration cost is the Evaluator batches.
//
// With opt.Resume set the search continues from the checkpointed iterate
// instead of theta0; with opt.Checkpoint set a resumable snapshot is emitted
// every opt.CheckpointEvery completed iterations; with opt.Ctx set a
// cancellation aborts at the next iteration boundary with ErrFitCanceled.
func Minimize(e Evaluator, theta0 []float64, opt OptOptions) (*OptResult, error) {
	d := len(theta0)
	if opt.Resume != nil && len(opt.Resume.Theta) != d {
		return nil, fmt.Errorf("inla: resume checkpoint dimension %d, want %d", len(opt.Resume.Theta), d)
	}
	st := newBFGSState(theta0, lineSearchWidth(e))
	hInv := dense.Eye(d) // inverse Hessian approximation
	ckEvery := opt.CheckpointEvery
	if ckEvery <= 0 {
		ckEvery = 1
	}

	finish := func(res *OptResult, f float64) *OptResult {
		res.Theta = append([]float64(nil), st.x...)
		res.F = f
		return res
	}

	var res *OptResult
	var f float64
	var gradOK bool
	startIter := 0
	if ck := opt.Resume; ck != nil {
		// Restore the interrupted search's exact state: from here on the
		// continuation evaluates the same points the uninterrupted run
		// would have.
		copy(st.x, ck.Theta)
		copy(st.g, ck.Grad)
		f = ck.F
		if ck.HInv != nil && ck.HInv.Rows == d && ck.HInv.Cols == d {
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					hInv.Set(i, j, ck.HInv.At(i, j))
				}
			}
		}
		startIter = ck.Iter
		gradOK = finiteVec(st.g)
		res = &OptResult{FEvals: ck.FEvals, Iterations: ck.Iter,
			Trace: append([]float64(nil), ck.Trace...)}
	} else {
		var nevals int
		f, nevals, gradOK = evalGradient(e, st, st.x, st.g, math.NaN(), opt)
		if math.IsInf(f, 1) {
			return nil, fmt.Errorf("inla: objective is infeasible at the initial point")
		}
		res = &OptResult{FEvals: nevals, Trace: []float64{f}}
	}

	for iter := startIter; iter < opt.MaxIter; iter++ {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			// Iteration boundaries are checkpoint boundaries: emit a final
			// resumable snapshot, then abort with the current iterate.
			if opt.Checkpoint != nil {
				if cerr := opt.Checkpoint(snapshotOpt(st, hInv, f, iter, res)); cerr != nil {
					return finish(res, f), fmt.Errorf("%w; final checkpoint: %v", ErrFitCanceled, cerr)
				}
			}
			return finish(res, f), fmt.Errorf("%w: %v", ErrFitCanceled, opt.Ctx.Err())
		}
		res.Iterations = iter + 1
		if !gradOK || !finiteVec(st.g) {
			return finish(res, f), fmt.Errorf("%w (after %d step-backoff retries)", ErrGradientUndefined, maxEvalRetries)
		}
		if infNorm(st.g) < opt.GradTol {
			res.Converged = true
			break
		}
		// Search direction p = −H⁻¹·g.
		dense.Gemv(dense.NoTrans, -1, hInv, st.g, 0, st.p)
		if dense.Dot(st.p, st.g) >= 0 {
			// Not a descent direction (degenerate curvature update): reset.
			setEye(hInv)
			for i := range st.p {
				st.p[i] = -st.g[i]
			}
		}
		acc, fNew, n := lineSearch(e, st, f, opt.StepTol)
		res.FEvals += n
		if acc < 0 {
			return finish(res, f), ErrLineSearchFailed
		}
		// New gradient at the accepted candidate, whose value is F there:
		// the parallel batch evaluates the 2d arms only.
		xNew := st.cands[acc]
		_, n, gradOK = evalGradient(e, st, xNew, st.gNew, fNew, opt)
		res.FEvals += n

		for i := range st.s {
			st.s[i] = xNew[i] - st.x[i]
			st.yv[i] = st.gNew[i] - st.g[i]
		}
		bfgsUpdate(hInv, st.s, st.yv, st.hy)
		// Roll the iterate by swapping buffers.
		st.x, st.cands[acc] = xNew, st.x
		st.g, st.gNew = st.gNew, st.g
		f = fNew
		res.Trace = append(res.Trace, f)
		if opt.Checkpoint != nil && (iter+1)%ckEvery == 0 {
			if cerr := opt.Checkpoint(snapshotOpt(st, hInv, f, iter+1, res)); cerr != nil {
				return finish(res, f), fmt.Errorf("inla: optimizer checkpoint at iteration %d: %w", iter+1, cerr)
			}
		}
	}
	return finish(res, f), nil
}

func infNorm(v []float64) float64 {
	var mx float64
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// StencilPlanner is implemented by evaluators whose EvalBatch schedules
// against a core budget (BTAEvaluator; the simulated distributed evaluators
// report one core per S1 group): StencilPlan reports that budget, and
// Minimize reads the width-1 plan to set how many line-search candidates
// one batch evaluates.
type StencilPlanner interface {
	StencilPlan(width int) SharedPlan
}

// hessianStencil builds the 1 + 2d + 4·d(d−1)/2 = 2d² + 1 evaluation points
// of the second-order central-difference scheme at theta: the centre,
// θ − h·e_i before θ + h·e_i for each i, then the off-diagonal quadruples.
// The minus-first pairs keep any run of 2d or 2d + 1 of its points from
// reading as a gradient stencil (gradientCentre wants plus first), which
// an evaluator may answer with first-order values.
func hessianStencil(theta []float64, h float64) (pts [][]float64, offIdx [][2]int) {
	d := len(theta)
	shift := func(i, j int, si, sj float64) []float64 {
		p := append([]float64(nil), theta...)
		p[i] += si * h
		if j >= 0 {
			p[j] += sj * h
		}
		return p
	}
	pts = append(pts, append([]float64(nil), theta...))
	for i := 0; i < d; i++ {
		pts = append(pts, shift(i, -1, -1, 0), shift(i, -1, 1, 0))
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			offIdx = append(offIdx, [2]int{i, j})
			pts = append(pts,
				shift(i, j, 1, 1), shift(i, j, 1, -1),
				shift(i, j, -1, 1), shift(i, j, -1, -1))
		}
	}
	return pts, offIdx
}

// HessianAtMode estimates ∇²F(θ*) (§III-3). For a Gaussian model with a
// separable prior on a *BTAEvaluator it takes forward differences of d
// exact gradients around θ*, symmetrized (hessianFromGradients), and
// ignores h; the evaluator's idle gradient arena gives the base gradient
// when its last request was at θ*, and holds θ*'s posterior afterwards.
// Every other evaluator — count models, the diffusion prior, whose
// gradient differences its prior log det numerically and is too rough for
// a forward difference, the distributed evaluator and any decorator —
// gets the second-order central-difference stencil of step h
// (hessianFromStencil).
func HessianAtMode(e Evaluator, theta []float64, h float64) (*dense.Matrix, error) {
	if be, ok := e.(*BTAEvaluator); ok && be.Model.Lik == model.LikGaussian && be.Model.ST != model.STDiffusion {
		hess, ws, err := be.hessianFromGradients(theta, be.grads.Swap(nil))
		if ws != nil {
			be.grads.Store(ws)
		}
		return hess, err
	}
	return hessianFromStencil(e, theta, h)
}

// hessianFromStencil estimates ∇²F(θ) by second-order central differences
// of step h. The 2d² + 1 evaluations form one parallel batch, which no
// evaluator reads as a gradient request (hessianStencil). It is the
// Hessian of every evaluator but a Gaussian BTAEvaluator's with a
// separable prior, and the oracle of that one's.
func hessianFromStencil(e Evaluator, theta []float64, h float64) (*dense.Matrix, error) {
	d := len(theta)
	pts, offIdx := hessianStencil(theta, h)
	vals := e.EvalBatch(pts)
	for _, v := range vals {
		if math.IsInf(v, 1) {
			return nil, fmt.Errorf("inla: Hessian stencil hit an infeasible point")
		}
	}
	hm := dense.New(d, d)
	f0 := vals[0]
	for i := 0; i < d; i++ {
		hm.Set(i, i, (vals[2+2*i]-2*f0+vals[1+2*i])/(h*h))
	}
	base := 1 + 2*d
	for k, ij := range offIdx {
		v := (vals[base+4*k] - vals[base+4*k+1] - vals[base+4*k+2] + vals[base+4*k+3]) / (4 * h * h)
		hm.Set(ij[0], ij[1], v)
		hm.Set(ij[1], ij[0], v)
	}
	return hm, nil
}
