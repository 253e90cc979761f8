// Package spde builds the sparse GMRF precision matrices of the latent
// Gaussian processes via the SPDE approach (§II-A1): a Matérn (α = 2)
// spatial field discretized on a finite-element mesh, extended in time by a
// first-order autoregressive coupling. Ordering the variables time-major
// yields the block-tridiagonal precision structure (Fig. 2a) the structured
// solvers exploit; each diagonal block couples one time step's spatial
// field, off-diagonal blocks couple consecutive steps.
//
// Hyperparameters follow the interpretable (range, standard deviation)
// parametrization: θ = (log ρ_s, log ρ_t, log σ). The spatial range maps to
// the SPDE κ via ρ_s = √8/κ (ν = 1 in 2D); the temporal range to the AR
// coefficient via a = 0.1^(1/ρ_t) (correlation 0.1 at lag ρ_t); σ fixes the
// marginal variance through the stationary AR(1)–Matérn composition.
package spde

import (
	"fmt"
	"math"
	"sync"

	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// Hyper holds the interpretable hyperparameters of one univariate
// spatio-temporal process (all on log scale in optimizer space).
type Hyper struct {
	RangeS float64 // spatial correlation range ρ_s
	RangeT float64 // temporal correlation range ρ_t (in time steps)
	Sigma  float64 // marginal standard deviation σ
}

// KappaFromRange converts a spatial range to the SPDE κ (α=2, d=2 ⇒ ν=1).
func KappaFromRange(rangeS float64) float64 { return math.Sqrt(8) / rangeS }

// TauFromKappaSigma returns the SPDE τ giving marginal variance σ² for a
// Matérn field with ν=1 in 2D: σ² = 1/(4π κ² τ²).
func TauFromKappaSigma(kappa, sigma float64) float64 {
	return 1 / (math.Sqrt(4*math.Pi) * kappa * sigma)
}

// ARCoeff converts a temporal range (in steps) to the AR(1) coefficient:
// correlation 0.1 at lag ρ_t.
func ARCoeff(rangeT float64) float64 {
	if rangeT <= 0 {
		panic(fmt.Sprintf("spde: temporal range %v must be positive", rangeT))
	}
	a := math.Pow(0.1, 1/rangeT)
	if a >= 1 {
		a = 1 - 1e-12
	}
	return a
}

// Builder assembles precision matrices for a fixed mesh and time horizon.
// The FEM matrices are computed once; per-hyperparameter assembly is a
// scaled sparse sum with a fixed pattern (the INLA hot loop requirement).
type Builder struct {
	Mesh *mesh.Mesh
	Nt   int

	c     *sparse.CSR // lumped mass (diagonal)
	g     *sparse.CSR // stiffness
	gcg   *sparse.CSR // G·C̃⁻¹·G
	cD    []float64   // diag C̃
	cInvD []float64

	// closed-form prior operations (prior.go)
	logDetC      float64
	kChol        *sparse.CholFactor // symbolic analysis of G + s·C̃
	gPerm, cPerm *sparse.CSR        // G and C̃ on kChol's permuted pattern
	work         sync.Pool          // *priorWork
}

// NewBuilder precomputes the FEM matrices for the given mesh and number of
// time steps.
func NewBuilder(m *mesh.Mesh, nt int) *Builder {
	if nt < 1 {
		panic(fmt.Sprintf("spde: nt=%d must be ≥ 1", nt))
	}
	b := &Builder{Mesh: m, Nt: nt}
	b.c = m.MassMatrix()
	b.g = m.StiffnessMatrix()
	n := m.NumNodes()
	b.cD = make([]float64, n)
	b.cInvD = make([]float64, n)
	for i := 0; i < n; i++ {
		b.cD[i] = b.c.At(i, i)
		b.cInvD[i] = 1 / b.cD[i]
	}
	cg := sparse.MatMul(sparse.Diag(b.cInvD), b.g)
	b.gcg = sparse.MatMul(b.g, cg)
	b.initPrior()
	return b
}

// Ns returns the spatial mesh size.
func (b *Builder) Ns() int { return b.Mesh.NumNodes() }

// SpatialPrecision returns the Matérn (α=2) precision
// Q_s = τ²(κ⁴·C̃ + 2κ²·G + G·C̃⁻¹·G).
func (b *Builder) SpatialPrecision(kappa, tau float64) *sparse.CSR {
	t2 := tau * tau
	q := sparse.Add(t2*kappa*kappa*kappa*kappa, b.c, 2*t2*kappa*kappa, b.g)
	return sparse.Add(1, q, t2, b.gcg)
}

// TemporalPrecision returns the nt×nt stationary AR(1) precision with unit
// innovation: tridiagonal with diagonal [1, 1+a², …, 1+a², 1] and
// off-diagonal −a.
func TemporalPrecision(nt int, a float64) *sparse.CSR {
	coo := sparse.NewCOO(nt, nt)
	for t := 0; t < nt; t++ {
		coo.Add(t, t, temporalDiag(nt, t, a))
		if t < nt-1 {
			coo.Add(t, t+1, -a)
			coo.Add(t+1, t, -a)
		}
	}
	return coo.ToCSR()
}

// temporalDiag returns entry (t,t) of TemporalPrecision(nt, a).
func temporalDiag(nt, t int, a float64) float64 {
	switch {
	case nt == 1:
		return 1 - a*a // marginal precision of the stationary state
	case t > 0 && t < nt-1:
		return 1 + a*a
	}
	return 1
}

// separableParams maps h to the (κ, a, τ) of the separable model. The
// innovation variance is scaled so the stationary marginal standard
// deviation of the composed process is h.Sigma: σ_w² = σ²·(1−a²).
func separableParams(h Hyper) (kappa, a, tau float64) {
	kappa = KappaFromRange(h.RangeS)
	a = ARCoeff(h.RangeT)
	return kappa, a, TauFromKappaSigma(kappa, h.Sigma*math.Sqrt(1-a*a))
}

// Block classes of a block-tridiagonal process precision. Both prior
// families write every spatial block (t, t′), |t − t′| ≤ 1, as
//
//	c_C̃·C̃ + c_G·G + c_GCG·G·C̃⁻¹·G
//
// with weights that depend on the block only through its class, so an
// assembler can keep the three FEM matrices fixed and recompute only the
// weights when θ changes.
const (
	BlockFirst      = iota // (0, 0); the only block when nt = 1
	BlockInterior          // (t, t) with 0 < t < nt − 1
	BlockLast              // (nt − 1, nt − 1) when nt > 1
	BlockOff               // (t, t ± 1)
	NumBlockClasses        // number of classes
)

// BlockClass returns the class of spatial block (t, tp) for nt time steps
// (|t − tp| ≤ 1).
func BlockClass(t, tp, nt int) int {
	switch {
	case t != tp:
		return BlockOff
	case t == 0:
		return BlockFirst
	case t == nt-1:
		return BlockLast
	}
	return BlockInterior
}

// BlockCoeffs holds the (C̃, G, G·C̃⁻¹·G) weights of each block class.
type BlockCoeffs [NumBlockClasses][3]float64

// FEM returns the lumped mass C̃, the stiffness G and G·C̃⁻¹·G. They are
// shared with the Builder and must be treated as read-only.
func (b *Builder) FEM() (c, g, gcg *sparse.CSR) { return b.c, b.g, b.gcg }

// SeparableCoeffs returns the block weights of Precision(h):
// T_tt′(a)·τ²·(κ⁴, 2κ², 1).
func (b *Builder) SeparableCoeffs(h Hyper) BlockCoeffs {
	kappa, a, tau := separableParams(h)
	t2, k2 := tau*tau, kappa*kappa
	s := [3]float64{t2 * k2 * k2, 2 * t2 * k2, t2}
	tt := [NumBlockClasses]float64{
		BlockFirst:    temporalDiag(b.Nt, 0, a),
		BlockInterior: 1 + a*a,
		BlockLast:     1,
		BlockOff:      -a,
	}
	var out BlockCoeffs
	for c, f := range tt {
		out[c] = [3]float64{f * s[0], f * s[1], f * s[2]}
	}
	return out
}

// DiffusionCoeffs returns the block weights of DiffusionPrecision(h). With
// A = αC̃ + βG (α = 1 + γΔt·κ², β = γΔt) and C̃ diagonal,
// AᵀC̃⁻¹A = α²C̃ + 2αβG + β²G·C̃⁻¹·G, so the recursion's blocks stay on the
// same three matrices: f·(AᵀC̃⁻¹A + C̃) inside, f·AᵀC̃⁻¹A last, −f·A off the
// diagonal, and the Matérn Q_0 (plus f·C̃ when nt > 1) first.
func (b *Builder) DiffusionCoeffs(h Hyper) BlockCoeffs {
	kappa, gdt, f, tau0 := diffusionParams(h)
	k2, t2 := kappa*kappa, tau0*tau0
	al, be := 1+gdt*k2, gdt
	var out BlockCoeffs
	out[BlockFirst] = [3]float64{t2 * k2 * k2, 2 * t2 * k2, t2}
	if b.Nt > 1 {
		out[BlockFirst][0] += f
	}
	out[BlockInterior] = [3]float64{f * (al*al + 1), f * 2 * al * be, f * be * be}
	out[BlockLast] = [3]float64{f * al * al, f * 2 * al * be, f * be * be}
	out[BlockOff] = [3]float64{-f * al, -f * be, 0}
	return out
}

// SeparableCoeffsDeriv returns the derivatives of SeparableCoeffs(h) with
// respect to log RangeS and log RangeT, in closed form. With κ² ∝ ρ_s⁻²
// and τ² = 1/(4πκ²σ²(1−a²)), the weights τ²κ⁴, 2τ²κ² and τ² scale as
// ρ_s⁻², ρ_s⁰ and ρ_s²; a = 0.1^(1/ρ_t) enters through 1/(1−a²) and the
// temporal factors.
func (b *Builder) SeparableCoeffsDeriv(h Hyper) (dS, dT BlockCoeffs) {
	kappa, a, tau := separableParams(h)
	t2, k2 := tau*tau, kappa*kappa
	s := [3]float64{t2 * k2 * k2, 2 * t2 * k2, t2}
	sS := [3]float64{-2 * s[0], 0, 2 * s[2]}
	// da/dlog ρ_t = −a·ln(0.1)/ρ_t; clipped at 1 − 1e-12, a is flat.
	var av float64
	if a < 1-1e-12 {
		av = -a * math.Log(0.1) / h.RangeT
	}
	g := 2 * a * av / (1 - a*a) // dlog(1/(1−a²))/dlog ρ_t
	tt := [NumBlockClasses]float64{
		BlockFirst:    temporalDiag(b.Nt, 0, a),
		BlockInterior: 1 + a*a,
		BlockLast:     1,
		BlockOff:      -a,
	}
	dtt := [NumBlockClasses]float64{BlockInterior: 2 * a * av, BlockOff: -av}
	if b.Nt == 1 {
		dtt[BlockFirst] = -2 * a * av
	}
	for c, f := range tt {
		for x := range s {
			dS[c][x] = f * sS[x]
			dT[c][x] = dtt[c]*s[x] + f*g*s[x]
		}
	}
	return dS, dT
}

// DiffusionCoeffsDeriv returns the derivatives of DiffusionCoeffs(h) with
// respect to log RangeS and log RangeT, in closed form: κ² ∝ ρ_s⁻²,
// γΔt ∝ ρ_s²/ρ_t, τ_0² ∝ ρ_s², f ∝ ρ_s⁴/ρ_t and α = 1 + 1/ρ_t.
func (b *Builder) DiffusionCoeffsDeriv(h Hyper) (dS, dT BlockCoeffs) {
	kappa, gdt, f, tau0 := diffusionParams(h)
	k2, t2 := kappa*kappa, tau0*tau0
	al, be := 1+gdt*k2, gdt
	alT := -gdt * k2 // dα/dlog ρ_t
	dS[BlockFirst] = [3]float64{-2 * t2 * k2 * k2, 0, 2 * t2}
	if b.Nt > 1 {
		dS[BlockFirst][0] += 4 * f
		dT[BlockFirst][0] = -f
	}
	dS[BlockInterior] = [3]float64{4 * f * (al*al + 1), 12 * f * al * be, 8 * f * be * be}
	dT[BlockInterior] = [3]float64{-f*(al*al+1) + 2*f*al*alT, 2 * f * be * (alT - 2*al), -3 * f * be * be}
	dS[BlockLast] = [3]float64{4 * f * al * al, 12 * f * al * be, 8 * f * be * be}
	dT[BlockLast] = [3]float64{-f*al*al + 2*f*al*alT, 2 * f * be * (alT - 2*al), -3 * f * be * be}
	dS[BlockOff] = [3]float64{-4 * f * al, -6 * f * be, 0}
	dT[BlockOff] = [3]float64{f*al - f*alT, 2 * f * be, 0}
	return dS, dT
}

// Precision assembles the spatio-temporal prior precision
// Q_st = T(a) ⊗ Q_s(κ, τ_w) in time-major ordering (variable (t,s) at index
// t·ns + s), which is block-tridiagonal with nt blocks of size ns.
func (b *Builder) Precision(h Hyper) *sparse.CSR {
	kappa, a, tau := separableParams(h)
	return b.PrecisionST(kappa, a, tau)
}

// PrecisionST is a convenience returning the same matrix for explicit
// (kappa, a, tau) values; used by tests exploring the raw SPDE scale.
func (b *Builder) PrecisionST(kappa, a, tau float64) *sparse.CSR {
	qs := b.SpatialPrecision(kappa, tau)
	return sparse.Kron(TemporalPrecision(b.Nt, a), qs)
}

// Dim returns nt·ns, the latent dimension of one process (without fixed
// effects).
func (b *Builder) Dim() int { return b.Nt * b.Ns() }
