// Package model assembles the Bayesian observation model of the paper: the
// multivariate linear model y = Λ·A·x + ε (Eq. 5) over the coregionalized
// spatio-temporal latent field, the Gaussian and Poisson likelihoods, and
// the prior and conditional precision matrices Q_p and Q_c = Q_p + AᵀDA
// (Eq. 4).
//
// Q_c is assembled numerically only (assemble.go): its pattern, its sparse
// → BTA map and the θ-invariant values of its entries are laid out once in
// New, and a hyperparameter configuration only computes a small vector of
// weights c(θ) and writes Σ_j c_j(θ)·B_j into the BTA blocks — the prior
// values once per block class (first, interior and last time step,
// coupling), copied into the class's other blocks, then the data term at
// the AᵀA entries. QcInto writes every position of its output, so callers
// assemble straight into a solver's workspace (bta.Solver.Workspace). The
// coregionalization structure is exploited the way §IV-B advocates: every
// response shares the observation operator A = [A_st | A_cov], so the data
// term factorizes as AᵀDA|_(i,j) = W[i,j]·(AᵀA) with the small dense matrix
// W = Λᵀ·diag(τ_y)·Λ, and the Gram kernel AᵀA is computed once. The
// general-sparse forms (QcCSR, QpCSR) are the assembled values read back
// over the cached pattern, for the baselines and the distributed
// reproduction.
package model

import (
	"fmt"
	"math"
	"sync"

	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/spde"
)

// FixedEffectPriorPrecision is the vague Gaussian prior precision placed on
// fixed effects (R-INLA's default is 1e-3 as well).
const FixedEffectPriorPrecision = 1e-3

// Obs holds the observations of one multivariate dataset: every response is
// observed at the same m space-time points (the CAMS-grid situation of §VI).
type Obs struct {
	// Points and TimeIdx give the spatial location and time step of each of
	// the m observation slots.
	Points  []mesh.Point
	TimeIdx []int
	// Covariates is m×nr (fixed-effect design, e.g. elevation).
	Covariates *dense.Matrix
	// Y holds the responses: Y[k] is the length-m vector for response k.
	Y [][]float64
}

// M returns the number of observation slots per response.
func (o *Obs) M() int { return len(o.Points) }

// Model is a fully specified multivariate spatio-temporal LMC model ready
// for repeated precision-matrix assembly across hyperparameter values.
type Model struct {
	Dims    coreg.Dims
	Builder *spde.Builder
	Obs     *Obs
	// Lik selects the observation model (default LikGaussian). Set through
	// SetLikelihood before encoding/decoding hyperparameters.
	Lik LikelihoodKind
	// ST selects the spatio-temporal prior family (default STSeparable).
	ST STKind

	// fixed structures computed at construction
	aDesign *sparse.CSR // m × (ns·nt + nr): [A_st | covariates]
	gram    *sparse.CSR // AᵀA (per-process data-term kernel)
	perm    []int       // process-major → time-major (BTA) permutation
	permInv []int

	// Q_c's pattern (index arrays only), its BTA map (§IV-F) and the
	// θ-invariant assembly tables (assemble.go)
	qcPattern  *sparse.CSR
	qcMap      *BTAMap
	classPrior [spde.NumBlockClasses][][]priorEntry // per pair: prior entries of each class's first block
	tipPrior   [][]priorEntry                       // per pair: the tip's fixed-effect diagonal
	dataRuns   []dataRun                            // AᵀA entries of the diagonal, arrow and tip blocks
	fillPool   sync.Pool                            // *fillWork

	count countTables // Poisson data-term tables (likelihood.go)
}

// STKind selects the spatio-temporal prior family of the latent processes.
type STKind int

const (
	// STSeparable is the AR(1) ⊗ Matérn construction (the default).
	STSeparable STKind = iota
	// STDiffusion is the non-separable diffusion-based model of the
	// paper's reference [25] (implicit-Euler heat SPDE).
	STDiffusion
)

// Option customizes model construction before the cached mappings are
// built.
type Option func(*Model)

// WithSTKind selects the spatio-temporal prior family.
func WithSTKind(k STKind) Option { return func(m *Model) { m.ST = k } }

// WithLikelihood selects the observation model at construction time.
func WithLikelihood(k LikelihoodKind) Option { return func(m *Model) { m.Lik = k } }

// New constructs a model, precomputing the design matrix, the Gram kernel
// AᵀA, the time-major permutation, Q_c's pattern with its sparse→BTA map,
// and the assembly tables.
func New(b *spde.Builder, d coreg.Dims, obs *Obs, opts ...Option) (*Model, error) {
	if d.Ns != b.Ns() || d.Nt != b.Nt {
		return nil, fmt.Errorf("model: dims (ns=%d,nt=%d) disagree with builder (ns=%d,nt=%d)",
			d.Ns, d.Nt, b.Ns(), b.Nt)
	}
	if len(obs.Y) != d.Nv {
		return nil, fmt.Errorf("model: %d response vectors for nv=%d", len(obs.Y), d.Nv)
	}
	m := obs.M()
	if len(obs.TimeIdx) != m {
		return nil, fmt.Errorf("model: %d time indices for %d points", len(obs.TimeIdx), m)
	}
	for k, y := range obs.Y {
		if len(y) != m {
			return nil, fmt.Errorf("model: response %d has %d values, want %d", k, len(y), m)
		}
	}
	if obs.Covariates != nil && (obs.Covariates.Rows != m || obs.Covariates.Cols != d.Nr) {
		return nil, fmt.Errorf("model: covariates are %d×%d, want %d×%d",
			obs.Covariates.Rows, obs.Covariates.Cols, m, d.Nr)
	}
	if obs.Covariates == nil && d.Nr != 0 {
		return nil, fmt.Errorf("model: nr=%d but no covariates given", d.Nr)
	}

	mod := &Model{Dims: d, Builder: b, Obs: obs}
	for _, o := range opts {
		o(mod)
	}
	var err error
	mod.aDesign, err = buildDesign(b.Mesh, d, obs)
	if err != nil {
		return nil, err
	}
	at := mod.aDesign.Transpose()
	mod.gram = sparse.MatMul(at, mod.aDesign)
	mod.perm = coreg.TimeMajorPermutation(d)
	mod.permInv = sparse.InvertPerm(mod.perm)
	if err := mod.buildTables(); err != nil {
		return nil, err
	}
	return mod, nil
}

// buildDesign assembles the per-process design matrix [A_st | covariates]:
// row i projects the latent field at time TimeIdx[i] onto Points[i] and
// appends the covariate values.
func buildDesign(msh *mesh.Mesh, d coreg.Dims, obs *Obs) (*sparse.CSR, error) {
	m := obs.M()
	cols := d.Ns*d.Nt + d.Nr
	coo := sparse.NewCOO(m, cols)
	for i := 0; i < m; i++ {
		t := obs.TimeIdx[i]
		if t < 0 || t >= d.Nt {
			return nil, fmt.Errorf("model: observation %d has time index %d outside [0,%d)", i, t, d.Nt)
		}
		ti, bc, err := msh.Locate(obs.Points[i])
		if err != nil {
			return nil, fmt.Errorf("model: observation %d: %w", i, err)
		}
		tri := msh.Tri[ti]
		for v := 0; v < 3; v++ {
			if bc[v] != 0 {
				coo.Add(i, t*d.Ns+tri[v], bc[v])
			}
		}
		for r := 0; r < d.Nr; r++ {
			coo.Add(i, d.Ns*d.Nt+r, obs.Covariates.At(i, r))
		}
	}
	return coo.ToCSR(), nil
}

// Theta is the decoded hyperparameter configuration.
type Theta struct {
	Process []spde.Hyper // per-process (range_s, range_t, sigma)
	Lambda  *coreg.Lambda
	TauY    []float64 // per-response Gaussian noise precision
}

// SetLikelihood switches the observation model. The θ layout depends on
// it: Gaussian models carry nv noise precisions that Poisson models do not.
func (m *Model) SetLikelihood(k LikelihoodKind) { m.Lik = k }

// NumHyper returns dim(θ): 3·nv + nv(nv−1)/2 plus, for Gaussian models, nv
// noise precisions — e.g. 15 for the trivariate coregional model and 4 for
// the univariate one (Table IV).
func (m *Model) NumHyper() int {
	nv := m.Dims.Nv
	n := 3*nv + coreg.NumLambdas(nv)
	if m.Lik == LikGaussian {
		n += nv
	}
	return n
}

// DecodeTheta maps the unconstrained optimizer vector to model quantities:
// [log ρ_s, log ρ_t, log σ]×nv, λ…, [log τ_y]×nv.
func (m *Model) DecodeTheta(theta []float64) (*Theta, error) {
	if len(theta) != m.NumHyper() {
		return nil, fmt.Errorf("model: theta length %d, want %d", len(theta), m.NumHyper())
	}
	nv := m.Dims.Nv
	out := &Theta{}
	sig := make([]float64, nv)
	for k := 0; k < nv; k++ {
		out.Process = append(out.Process, spde.Hyper{
			RangeS: math.Exp(theta[3*k]),
			RangeT: math.Exp(theta[3*k+1]),
			Sigma:  1, // LMC latent processes have unit variance (§II-B);
			// the triple's third entry is the process scale σ_k of Λ.
		})
		sig[k] = math.Exp(theta[3*k+2])
	}
	lam := make([]float64, coreg.NumLambdas(nv))
	copy(lam, theta[3*nv:3*nv+len(lam)])
	l, err := coreg.NewLambda(sig, lam)
	if err != nil {
		return nil, err
	}
	out.Lambda = l
	if m.Lik == LikGaussian {
		for k := 0; k < nv; k++ {
			out.TauY = append(out.TauY, math.Exp(theta[3*nv+len(lam)+k]))
		}
	}
	return out, nil
}

// EncodeTheta is the inverse of DecodeTheta for constructing initial points
// and ground-truth vectors in tests and experiments.
func (m *Model) EncodeTheta(t *Theta) []float64 {
	nv := m.Dims.Nv
	out := make([]float64, 0, m.NumHyper())
	for k := 0; k < nv; k++ {
		out = append(out, math.Log(t.Process[k].RangeS), math.Log(t.Process[k].RangeT), math.Log(t.Lambda.Sigmas[k]))
	}
	out = append(out, lambdaParams(t.Lambda)...)
	if m.Lik == LikGaussian {
		for k := 0; k < nv; k++ {
			out = append(out, math.Log(t.TauY[k]))
		}
	}
	return out
}

// lambdaParams recovers the λ parameter vector from Λ's P matrix (inverting
// the elementary-factor composition).
func lambdaParams(l *coreg.Lambda) []float64 {
	nv := l.Nv
	out := make([]float64, coreg.NumLambdas(nv))
	// Chain entries are read directly; longer bands subtract the chain
	// products (for nv ≤ 3 this matches the paper's (λ3+λ1λ2) convention).
	for i := 1; i < nv; i++ {
		out[i-1] = l.P.At(i, i-1)
	}
	idx := nv - 1
	for band := 2; band < nv; band++ {
		for i := band; i < nv; i++ {
			j := i - band
			v := l.P.At(i, j)
			// subtract the chain-path product contribution
			prod := 1.0
			for k := j; k < i; k++ {
				prod *= l.P.At(k+1, k)
			}
			out[idx] = v - prod
			idx++
		}
	}
	return out
}

// PriorLogDet returns log det Q_p(θ) without assembling or factorizing Q_p.
// The joint prior is (Λ_c⁻¹⊗I)ᵀ·blockdiag(Q_k)·(Λ_c⁻¹⊗I) with det Λ_c = Πσ_k
// and Q_k = blockdiag(Q_st,k, FixedEffectPriorPrecision·I_nr), so
//
//	log det Q_p = Σ_k [log det Q_st,k − 2·(ns·nt+nr)·log σ_k] + nv·nr·log(fixed-effect precision)
//
// with log det Q_st,k in closed form from package spde. Allocation-free and
// safe for concurrent use.
func (m *Model) PriorLogDet(t *Theta) (float64, error) {
	d := m.Dims
	ld := float64(d.Nv*d.Nr) * math.Log(FixedEffectPriorPrecision)
	for k, h := range t.Process {
		ldk, err := m.stLogDet(h)
		if err != nil {
			return 0, fmt.Errorf("model: prior of process %d: %w", k, err)
		}
		ld += ldk - 2*float64(d.PerProcess())*math.Log(t.Lambda.Sigmas[k])
	}
	return ld, nil
}

// stLogDet is log det of one process's spatio-temporal prior precision
// under the model's prior family.
func (m *Model) stLogDet(h spde.Hyper) (float64, error) {
	if m.ST == STDiffusion {
		return m.Builder.DiffusionLogDet(h)
	}
	return m.Builder.LogDet(h)
}

// PriorQuad returns xᵀ·Q_p(θ)·x for a latent state in the permuted (BTA)
// ordering: Σ_k z_kᵀQ_k z_k with z = (Λ_c⁻¹⊗I)·x taken one process at a
// time into scratch (length ≥ Dims.PerProcess()). Allocation-free and safe
// for concurrent use with distinct scratch.
func (m *Model) PriorQuad(t *Theta, xPermuted, scratch []float64) float64 {
	d := m.Dims
	n, nst := d.PerProcess(), d.Ns*d.Nt
	mi := t.Lambda.MInvView()
	z := scratch[:n]
	var q float64
	for k, h := range t.Process {
		for i := range z {
			z[i] = 0
		}
		for j := 0; j <= k; j++ { // M is lower triangular
			c := mi.At(k, j)
			for i, bi := range m.permInv[j*n : (j+1)*n] {
				z[i] += c * xPermuted[bi]
			}
		}
		if m.ST == STDiffusion {
			q += m.Builder.DiffusionQuad(h, z[:nst])
		} else {
			q += m.Builder.Quad(h, z[:nst])
		}
		for _, v := range z[nst:] {
			q += FixedEffectPriorPrecision * v * v
		}
	}
	return q
}

// CondRHS returns Aᵀ_eff·D·y in the permuted (BTA) ordering: the right-hand
// side of the conditional-mean solve Q_c·μ = rhs.
func (m *Model) CondRHS(t *Theta) []float64 {
	dst := make([]float64, m.Dims.Total())
	m.CondRHSInto(t, dst, make([]float64, m.Dims.Total()), make([]float64, m.Obs.M()))
	return dst
}

// CondRHSInto computes the conditional right-hand side into dst without
// allocating. pmScratch (length Total) holds the process-major intermediate
// before permutation; obsScratch (length Obs.M) holds the weighted response
// combination. dst must not alias pmScratch.
func (m *Model) CondRHSInto(t *Theta, dst, pmScratch, obsScratch []float64) {
	nv := m.Dims.Nv
	n := m.Dims.PerProcess()
	mObs := m.Obs.M()
	lc := t.Lambda.CoregView()
	for i := range pmScratch {
		pmScratch[i] = 0
	}
	for i := 0; i < nv; i++ {
		// weighted response combination Σ_k Λ[k,i]·τ_k·y_k
		for o := 0; o < mObs; o++ {
			obsScratch[o] = 0
		}
		for k := 0; k < nv; k++ {
			f := lc.At(k, i) * t.TauY[k]
			if f == 0 {
				continue
			}
			dense.Axpy(f, m.Obs.Y[k], obsScratch[:mObs])
		}
		m.aDesign.MulVecT(obsScratch[:mObs], pmScratch[i*n:(i+1)*n])
	}
	m.ApplyPermInto(pmScratch, dst)
}

// ApplyPerm maps a process-major vector to the BTA (time-major) ordering.
func (m *Model) ApplyPerm(x []float64) []float64 {
	out := make([]float64, len(x))
	m.ApplyPermInto(x, out)
	return out
}

// ApplyPermInto maps a process-major vector to the BTA ordering into an
// existing buffer (dst must not alias x).
func (m *Model) ApplyPermInto(x, dst []float64) {
	for newI, oldI := range m.perm {
		dst[newI] = x[oldI]
	}
}

// BTAIndex maps a process-major latent index to its position in the BTA
// (time-major) ordering — the coordinate-level counterpart of ApplyPerm,
// used by the prediction layer to scatter sparse projection rows directly
// into solver-ordered right-hand sides without building a full vector.
func (m *Model) BTAIndex(processMajor int) int { return m.permInv[processMajor] }

// UnPerm maps a BTA-ordered vector back to process-major ordering.
func (m *Model) UnPerm(x []float64) []float64 {
	out := make([]float64, len(x))
	for newI, oldI := range m.perm {
		out[oldI] = x[newI]
	}
	return out
}

// LogLik evaluates log ℓ(y|θ,x) under the model's likelihood at a latent
// state given in the permuted (BTA) ordering.
func (m *Model) LogLik(t *Theta, xPermuted []float64) float64 {
	return m.LogLikInto(t, xPermuted, make([]float64, m.Dims.Total()), make([]float64, (m.Dims.Nv+1)*m.Obs.M()))
}

// LogLikInto is LogLik on caller scratch: xScratch (length ≥ Dims.Total)
// receives the process-major state, obsScratch (length ≥ (nv+1)·Obs.M) the
// projections A·x_j and one response's residual or linear predictor.
// Allocation-free.
func (m *Model) LogLikInto(t *Theta, xPermuted, xScratch, obsScratch []float64) float64 {
	nv, n, mObs := m.Dims.Nv, m.Dims.PerProcess(), m.Obs.M()
	x := xScratch[:m.Dims.Total()]
	for newI, oldI := range m.perm {
		x[oldI] = xPermuted[newI]
	}
	u := obsScratch[:nv*mObs]
	for j := 0; j < nv; j++ {
		m.aDesign.MulVec(x[j*n:(j+1)*n], u[j*mObs:(j+1)*mObs])
	}
	lc := t.Lambda.CoregView()
	r := obsScratch[nv*mObs : (nv+1)*mObs]
	var ll float64
	for k, y := range m.Obs.Y {
		if m.Lik == LikPoisson { // r = η_k
			clear(r)
			for j := 0; j <= k; j++ {
				if f := lc.At(k, j); f != 0 {
					dense.Axpy(f, u[j*mObs:(j+1)*mObs], r)
				}
			}
			for i, e := range r {
				ll += y[i]*e - math.Exp(e) - lgammaPlus1(y[i])
			}
			continue
		}
		gaussResidualInto(lc, k, y, u, r)
		var ss float64
		for _, v := range r {
			ss += v * v
		}
		ll += 0.5*float64(mObs)*(math.Log(t.TauY[k])-math.Log(2*math.Pi)) - 0.5*t.TauY[k]*ss
	}
	return ll
}

// gaussResidualInto writes r = y − η_k, response k's residual, from u, the
// nv projections A·x_j of the latent processes (length M each) that
// LogLikInto leaves at the head of its observation scratch.
func gaussResidualInto(lc *dense.Matrix, k int, y, u, r []float64) {
	mObs := len(r)
	copy(r, y)
	for j := 0; j <= k; j++ {
		if f := lc.At(k, j); f != 0 {
			dense.Axpy(-f, u[j*mObs:(j+1)*mObs], r)
		}
	}
}

// PredictMean evaluates the fitted response means at new space-time points
// for every response, given the latent state in permuted ordering. This is
// the downscaling operation of §VI.
func (m *Model) PredictMean(t *Theta, xPermuted []float64, pts []mesh.Point, timeIdx []int, cov *dense.Matrix) ([][]float64, error) {
	if len(pts) != len(timeIdx) {
		return nil, fmt.Errorf("model: %d points vs %d time indices", len(pts), len(timeIdx))
	}
	d := m.Dims
	tmpObs := &Obs{Points: pts, TimeIdx: timeIdx, Covariates: cov}
	aNew, err := buildDesign(m.Builder.Mesh, d, tmpObs)
	if err != nil {
		return nil, err
	}
	x := m.UnPerm(xPermuted)
	n := d.PerProcess()
	u := make([][]float64, d.Nv)
	for j := 0; j < d.Nv; j++ {
		u[j] = make([]float64, len(pts))
		aNew.MulVec(x[j*n:(j+1)*n], u[j])
	}
	lc := t.Lambda.CoregView()
	out := make([][]float64, d.Nv)
	for k := 0; k < d.Nv; k++ {
		out[k] = make([]float64, len(pts))
		for j := 0; j <= k; j++ {
			if f := lc.At(k, j); f != 0 {
				dense.Axpy(f, u[j], out[k])
			}
		}
	}
	return out, nil
}
