package model

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// LikelihoodKind selects the observation model. The paper's evaluation uses
// the Gaussian case (where the Laplace approximation is exact, §II-A3); the
// INLA methodology itself covers general likelihoods through the
// second-order Taylor expansion D of Eq. 4 — implemented here for Poisson
// counts with the canonical log link, the workhorse of epidemiological and
// point-process applications of R-INLA.
type LikelihoodKind int

const (
	// LikGaussian observes y = η + ε with per-response noise precision τ_y.
	LikGaussian LikelihoodKind = iota
	// LikPoisson observes y ~ Poisson(exp(η)).
	LikPoisson
)

// String names the likelihood.
func (k LikelihoodKind) String() string {
	switch k {
	case LikGaussian:
		return "gaussian"
	case LikPoisson:
		return "poisson"
	default:
		return fmt.Sprintf("likelihood(%d)", int(k))
	}
}

// ErrInnerLoopDiverged reports a failed Newton search for the conditional
// mode of a non-Gaussian model (usually an infeasible θ).
var ErrInnerLoopDiverged = errors.New("model: inner Newton loop for the conditional mode diverged")

// linPredInto computes the linear predictors η_k = Σ_j Λ[k,j]·A·x_j of
// every response from a process-major latent state: u (nv·M) receives the
// projections A·x_j, eta (nv·M) the predictors, response k at [k·M, (k+1)·M).
func (m *Model) linPredInto(t *Theta, xPM, u, eta []float64) {
	nv, n, mObs := m.Dims.Nv, m.Dims.PerProcess(), m.Obs.M()
	lc := t.Lambda.CoregView()
	for j := 0; j < nv; j++ {
		m.aDesign.MulVec(xPM[j*n:(j+1)*n], u[j*mObs:(j+1)*mObs])
	}
	for k := 0; k < nv; k++ {
		ek := eta[k*mObs : (k+1)*mObs]
		clear(ek)
		for j := 0; j <= k; j++ {
			if f := lc.At(k, j); f != 0 {
				dense.Axpy(f, u[j*mObs:(j+1)*mObs], ek)
			}
		}
	}
}

// poissonLogLik evaluates Σ [y·η − exp(η)] over the stacked linear
// predictors: the Poisson log-likelihood up to the constant Σ log y!, as
// the inner loop's penalized objective needs it (LogLik includes it).
func (m *Model) poissonLogLik(eta []float64) float64 {
	mObs := m.Obs.M()
	var ll float64
	for k, y := range m.Obs.Y {
		for i, e := range eta[k*mObs : (k+1)*mObs] {
			ll += y[i]*e - math.Exp(e)
		}
	}
	return ll
}

func lgammaPlus1(y float64) float64 {
	v, _ := math.Lgamma(y + 1)
	return v
}

// weightedGram computes Aᵀ·diag(w)·A with the same structural pattern as
// the cached Gram kernel (w > 0 elementwise) — the general-sparse data term
// of ConditionalModePoisson.
func (m *Model) weightedGram(w []float64) *sparse.CSR {
	scaled := m.aDesign.Clone()
	for i := 0; i < scaled.RowsN; i++ {
		f := w[i]
		for p := scaled.RowPtr[i]; p < scaled.RowPtr[i+1]; p++ {
			scaled.Val[p] *= f
		}
	}
	return sparse.MatMul(m.aDesign.Transpose(), scaled)
}

// dataTermPoisson expands the second-order data term AᵀD(x)A for the
// Poisson model as a CSR: block (i,j) = Aᵀ·diag(Σ_k Λ[k,i]Λ[k,j]·exp(η_k))·A.
func (m *Model) dataTermPoisson(t *Theta, eta []float64) *sparse.CSR {
	nv := m.Dims.Nv
	n := m.Dims.PerProcess()
	mObs := m.Obs.M()
	lc := t.Lambda.CoregView()
	mu := make([]float64, len(eta))
	for i, e := range eta {
		mu[i] = math.Exp(e)
	}
	coo := sparse.NewCOO(nv*n, nv*n)
	w := make([]float64, mObs)
	for i := 0; i < nv; i++ {
		for j := 0; j < nv; j++ {
			clear(w)
			for k := 0; k < nv; k++ {
				f := lc.At(k, i) * lc.At(k, j)
				if f == 0 {
					continue
				}
				dense.Axpy(f, mu[k*mObs:(k+1)*mObs], w)
			}
			g := m.weightedGram(w)
			for r := 0; r < n; r++ {
				for p := g.RowPtr[r]; p < g.RowPtr[r+1]; p++ {
					coo.Add(i*n+r, j*n+g.ColIdx[p], g.Val[p])
				}
			}
		}
	}
	return coo.ToCSR()
}

// countTables hold the θ-invariant part of the count model's data term:
// for every AᵀA entry g = (r,c), the observations o with A_or·A_oc ≠ 0 and
// that product, so Aᵀ·diag(w)·A on the Gram pattern is
// Σ_o w[o]·A_or·A_oc. Built on first use.
type countTables struct {
	once  sync.Once
	start []int32 // entry g's terms are terms[start[g]:start[g+1]]
	terms []gramTerm
}

type gramTerm struct {
	o int32   // observation
	v float64 // A_or·A_oc
}

func (m *Model) countGram() *countTables {
	ct := &m.count
	ct.once.Do(func() {
		a, g := m.aDesign, m.gram
		pos := func(r, c int) int {
			lo, hi := g.RowPtr[r], g.RowPtr[r+1]
			return lo + sort.SearchInts(g.ColIdx[lo:hi], c)
		}
		ct.start = make([]int32, g.NNZ()+1)
		for o := 0; o < a.RowsN; o++ {
			lo, hi := a.RowPtr[o], a.RowPtr[o+1]
			for p := lo; p < hi; p++ {
				for q := lo; q < hi; q++ {
					ct.start[pos(a.ColIdx[p], a.ColIdx[q])+1]++
				}
			}
		}
		for i := 1; i < len(ct.start); i++ {
			ct.start[i] += ct.start[i-1]
		}
		ct.terms = make([]gramTerm, ct.start[len(ct.start)-1])
		next := append([]int32(nil), ct.start...)
		for o := 0; o < a.RowsN; o++ {
			lo, hi := a.RowPtr[o], a.RowPtr[o+1]
			for p := lo; p < hi; p++ {
				for q := lo; q < hi; q++ {
					k := pos(a.ColIdx[p], a.ColIdx[q])
					ct.terms[next[k]] = gramTerm{o: int32(o), v: a.Val[p] * a.Val[q]}
					next[k]++
				}
			}
		}
	})
	return ct
}

// countData writes the count data term onto the Gram pattern: for each
// process pair i ≤ j, Aᵀ·diag(w_ij)·A with w_ij = Σ_k Λ_ki·Λ_kj·μ_k goes to
// data[symPair(i,j)·nnz(AᵀA) + g]. mu holds exp(η) (nv·M); w is M-long
// scratch.
func (m *Model) countData(t *Theta, mu, w, data []float64) {
	ct := m.countGram()
	nv, mObs := m.Dims.Nv, m.Obs.M()
	stride := len(ct.start) - 1
	lc := t.Lambda.CoregView()
	for i := 0; i < nv; i++ {
		for j := i; j < nv; j++ {
			clear(w)
			for k := j; k < nv; k++ { // Λ is lower triangular
				if f := lc.At(k, i) * lc.At(k, j); f != 0 {
					dense.Axpy(f, mu[k*mObs:(k+1)*mObs], w)
				}
			}
			base := symPair(i, j, nv) * stride
			dt := data[base : base+stride]
			for g := range dt {
				var s float64
				for _, tm := range ct.terms[ct.start[g]:ct.start[g+1]] {
					s += w[tm.o] * tm.v
				}
				dt[g] = s
			}
		}
	}
}

// scoreRHSInto builds the Newton right-hand side Aᵀ_eff·(D·η + y − exp(η))
// in process-major ordering; buf is M-long scratch.
func (m *Model) scoreRHSInto(t *Theta, eta, rhs, buf []float64) {
	nv, n, mObs := m.Dims.Nv, m.Dims.PerProcess(), m.Obs.M()
	lc := t.Lambda.CoregView()
	for i := 0; i < nv; i++ {
		clear(buf)
		for k := 0; k < nv; k++ {
			f := lc.At(k, i)
			if f == 0 {
				continue
			}
			y := m.Obs.Y[k]
			for o, e := range eta[k*mObs : (k+1)*mObs] {
				mu := math.Exp(e)
				buf[o] += f * (mu*e + y[o] - mu)
			}
		}
		m.aDesign.MulVecT(buf, rhs[i*n:(i+1)*n])
	}
}

// PoissonMode holds the converged inner-Newton state of a non-Gaussian fit:
// the conditional mode x* (both orderings) and the iteration count;
// log ℓ(y|x*) is LogLik at XPerm. QcCSR, the conditional precision at the
// mode, is set by the general-sparse route (ConditionalModePoisson) only.
// Inner counts the Newton steps that reached x* (0 for ConditionalModeAt).
type PoissonMode struct {
	XPM   []float64
	XPerm []float64
	QcCSR *sparse.CSR
	Inner int

	eta []float64 // linear predictors at x*, response k at [k·M, (k+1)·M)
}

// innerNewtonOptions bounds the conditional-mode search. The loop stops
// once a step moves x by at most innerStepTol relative to it: relative
// step 1e-4, tested as ‖Δx‖² ≤ innerStepTol²·(1 + ‖x‖²).
const (
	innerMaxIter = 30
	innerStepTol = 1e-4
	etaCap       = 30 // exp overflow guard on the linear predictor
)

// ScoreRHSForTest exposes the Newton right-hand side at a converged mode
// for fixed-point verification in tests.
func (m *Model) ScoreRHSForTest(t *Theta, mode *PoissonMode) []float64 {
	rhs := make([]float64, m.Dims.Total())
	m.scoreRHSInto(t, mode.eta, rhs, make([]float64, m.Obs.M()))
	return rhs
}

// NewtonWork is the reusable state of the count model's inner Newton loop:
// Q_p(θ), latent iterates, linear predictors, the data-term values and the
// solve buffer. One per concurrent caller; ConditionalModeInto builds the
// Q_p matrix on its first call and, once warm, allocates nothing.
type NewtonWork struct {
	qp             *bta.Matrix // Q_p(θ), assembled once per ConditionalModeInto
	x, xFull, xNew []float64   // process-major latent states
	xPerm          []float64   // x in BTA ordering
	rhs, sol       []float64   // Newton score (process-major); BTA-ordered solve buffer
	u, mu          []float64   // nv·M: A·x_j per process; exp(η)
	eta, etaNew    []float64   // nv·M linear predictors
	obs            []float64   // M: one weighting over the observations
	data           []float64   // count data term per process pair on the Gram pattern
	z              []float64   // prior quadratic-form scratch
	sys            btaNewton
	mode           PoissonMode
}

// NewNewtonWork allocates the inner Newton loop's state for this model.
func (m *Model) NewNewtonWork() *NewtonWork {
	d := m.Dims
	tot, nm := d.Total(), d.Nv*m.Obs.M()
	return &NewtonWork{
		x: make([]float64, tot), xFull: make([]float64, tot), xNew: make([]float64, tot),
		xPerm: make([]float64, tot), rhs: make([]float64, tot), sol: make([]float64, tot),
		u: make([]float64, nm), mu: make([]float64, nm),
		eta: make([]float64, nm), etaNew: make([]float64, nm),
		obs:  make([]float64, m.Obs.M()),
		data: make([]float64, d.Nv*(d.Nv+1)/2*m.gram.NNZ()),
		z:    make([]float64, d.PerProcess()),
	}
}

// Qp returns the matrix ConditionalModeInto assembles Q_p(θ) into (nil
// before its first call). Every call reassembles it before reading it, so
// between calls its storage is free: the latent posterior selects Σ into
// it.
func (w *NewtonWork) Qp() *bta.Matrix { return w.qp }

// newtonSystem is what the inner Newton loop needs of a solver: factor
// assembles the Newton matrix Q_p + AᵀD(η)A at η and factorizes it, solve
// then computes x = Q_c⁻¹·rhs (both process-major).
type newtonSystem interface {
	factor(eta []float64) error
	solve(rhs, x []float64)
}

// btaNewton is the Newton system on the assembly tables and a BTA factor:
// each factor copies Q_p(θ), assembled once into w.qp, into f's workspace,
// adds the data term at η and factorizes it there.
type btaNewton struct {
	m *Model
	t *Theta
	f *bta.Factor
	w *NewtonWork
}

func (s *btaNewton) factor(eta []float64) error {
	s.assemble(eta)
	return s.f.FactorizeWorkspace()
}

// assemble writes Q_p + AᵀD(η)A into f's workspace.
func (s *btaNewton) assemble(eta []float64) {
	m, w := s.m, s.w
	for i, e := range eta {
		w.mu[i] = math.Exp(e)
	}
	m.countData(s.t, w.mu, w.obs, w.data)
	ws := s.f.Workspace()
	ws.CopyFrom(w.qp)
	fw := m.getFill()
	defer m.fillPool.Put(fw)
	for i := range fw.w {
		fw.w[i] = 1
	}
	m.addData(fw, w.data, m.gram.NNZ(), ws)
}

func (s *btaNewton) solve(rhs, x []float64) {
	s.m.ApplyPermInto(rhs, s.w.sol)
	s.f.Solve(s.w.sol)
	for newI, oldI := range s.m.perm {
		x[oldI] = s.w.sol[newI]
	}
}

// csrNewton is the general-sparse Newton system of ConditionalModePoisson:
// Q_p + AᵀD(η)A assembled as a CSR and handed to the caller's
// factorization.
type csrNewton struct {
	m         *Model
	t         *Theta
	qp        *sparse.CSR
	factorize func(*sparse.CSR) (func([]float64) []float64, error)
	solveFn   func([]float64) []float64
}

func (s *csrNewton) factor(eta []float64) (err error) {
	s.solveFn, err = s.factorize(sparse.Add(1, s.qp, 1, s.m.dataTermPoisson(s.t, eta)))
	return err
}

func (s *csrNewton) solve(rhs, x []float64) { copy(x, s.solveFn(rhs)) }

// newtonMode runs the damped Newton iteration for the mode of p(x|θ,y)
// under the Poisson likelihood from x = 0: solve
// (Q_p + AᵀD(x)A)·x⁺ = Aᵀ(D·η + y − μ) and backtrack on the penalized
// objective g(x) = −½xᵀQ_px + log ℓ(y|η(x)) (counts with large means make
// the full step overshoot through the exp link). On success w.x and w.eta
// hold the mode; it returns the number of steps.
func (m *Model) newtonMode(t *Theta, sys newtonSystem, w *NewtonWork) (int, error) {
	penalized := func(x, eta []float64) float64 {
		m.ApplyPermInto(x, w.xPerm)
		return -0.5*m.PriorQuad(t, w.xPerm, w.z) + m.poissonLogLik(eta)
	}
	clear(w.x)
	m.linPredInto(t, w.x, w.u, w.eta)
	if !etaOK(w.eta) {
		return 0, ErrInnerLoopDiverged
	}
	gCur := penalized(w.x, w.eta)
	for iter := 0; iter < innerMaxIter; iter++ {
		if err := sys.factor(w.eta); err != nil {
			return 0, fmt.Errorf("model: inner iteration %d: %w", iter, err)
		}
		m.scoreRHSInto(t, w.eta, w.rhs, w.obs)
		sys.solve(w.rhs, w.xFull)

		// Backtracking along the Newton direction.
		var gNew float64
		accepted := false
		for step := 1.0; step >= 1.0/64; step /= 2 {
			for i, xi := range w.x {
				w.xNew[i] = xi + step*(w.xFull[i]-xi)
			}
			m.linPredInto(t, w.xNew, w.u, w.etaNew)
			if !etaOK(w.etaNew) {
				continue
			}
			gNew = penalized(w.xNew, w.etaNew)
			// The slack is relative: the penalized objective's rounding
			// grows with its magnitude, and an absolute slack lets every
			// step near the mode read as a decrease.
			if gNew >= gCur-1e-12*(1+math.Abs(gCur)) {
				accepted = true
				break
			}
		}
		if !accepted {
			return 0, ErrInnerLoopDiverged
		}
		var diff, norm float64
		for i, xi := range w.xNew {
			d := xi - w.x[i]
			diff += d * d
			norm += xi * xi
		}
		w.x, w.xNew = w.xNew, w.x
		w.eta, w.etaNew = w.etaNew, w.eta
		gCur = gNew
		if diff <= innerStepTol*innerStepTol*(1+norm) {
			return iter + 1, nil
		}
	}
	return 0, ErrInnerLoopDiverged
}

func etaOK(eta []float64) bool {
	for _, e := range eta {
		if e > etaCap || math.IsNaN(e) {
			return false
		}
	}
	return true
}

// modeOf packages the converged state of w as w.mode.
func (m *Model) modeOf(w *NewtonWork, inner int) *PoissonMode {
	m.ApplyPermInto(w.x, w.xPerm)
	w.mode = PoissonMode{XPM: w.x, XPerm: w.xPerm, eta: w.eta, Inner: inner}
	return &w.mode
}

// ConditionalModeInto finds the conditional mode of a count model's latent
// field at t by damped Newton from x = 0 on the assembly tables: Q_p(θ) is
// assembled into w once, and every step computes the data term
// Σ_o w_ij[o]·A_or·A_oc on the Gram pattern, copies Q_p into f's
// workspace, adds the data term there and factorizes it in place. The mode
// is a function of t alone, bit for bit. On success f holds the
// factorization of Q_c at the mode. The returned mode aliases w (its QcCSR
// is nil) and is valid until w's next use.
func (m *Model) ConditionalModeInto(t *Theta, f *bta.Factor, w *NewtonWork) (*PoissonMode, error) {
	if err := m.newtonSetup(t, f, w); err != nil {
		return nil, err
	}
	inner, err := m.newtonMode(t, &w.sys, w)
	if err != nil {
		return nil, err
	}
	if err := w.sys.factor(w.eta); err != nil {
		return nil, fmt.Errorf("model: Q_c at the Poisson mode: %w", err)
	}
	return m.modeOf(w, inner), nil
}

// ConditionalModeAt is ConditionalModeInto's closing step at a mode found
// before: x (process-major, as PoissonMode.XPM) becomes the state, and Q_c
// is assembled at η(x) and factorized on f, with no Newton step (Inner is
// 0). For the x ConditionalModeInto returned at the same t, the mode, the
// factor and its log det are that call's bit for bit. The returned mode
// aliases w and is valid until w's next use.
func (m *Model) ConditionalModeAt(t *Theta, f *bta.Factor, w *NewtonWork, x []float64) (*PoissonMode, error) {
	if len(x) != len(w.x) {
		return nil, fmt.Errorf("model: mode of length %d, want %d", len(x), len(w.x))
	}
	if err := m.newtonSetup(t, f, w); err != nil {
		return nil, err
	}
	copy(w.x, x)
	m.linPredInto(t, w.x, w.u, w.eta)
	if !etaOK(w.eta) {
		return nil, ErrInnerLoopDiverged
	}
	if err := w.sys.factor(w.eta); err != nil {
		return nil, fmt.Errorf("model: Q_c at the Poisson mode: %w", err)
	}
	return m.modeOf(w, 0), nil
}

// newtonSetup checks f's shape, assembles Q_p(θ) into w and points w's
// Newton system at t and f.
func (m *Model) newtonSetup(t *Theta, f *bta.Factor, w *NewtonWork) error {
	if err := m.checkShape(f.Workspace()); err != nil {
		return err
	}
	if w.qp == nil {
		w.qp = bta.NewMatrix(m.Dims.BTAShape())
	}
	if err := m.QpInto(t, w.qp); err != nil {
		return err
	}
	w.sys = btaNewton{m: m, t: t, f: f, w: w}
	return nil
}

// ConditionalModePoisson is the general-sparse route to the conditional
// mode: the same Newton iteration, with every step's Q_c = Q_p + AᵀD(x)A
// assembled as a CSR (nv² weighted Gram products) and solved through the
// caller's factorize. The mode carries Q_c at x* as QcCSR.
func (m *Model) ConditionalModePoisson(t *Theta, factorize func(*sparse.CSR) (func([]float64) []float64, error)) (*PoissonMode, error) {
	sys := &csrNewton{m: m, t: t, qp: m.QpCSR(t), factorize: factorize}
	w := m.NewNewtonWork()
	inner, err := m.newtonMode(t, sys, w)
	if err != nil {
		return nil, err
	}
	mode := m.modeOf(w, inner)
	mode.QcCSR = sparse.Add(1, sys.qp, 1, m.dataTermPoisson(t, w.eta))
	return mode, nil
}
