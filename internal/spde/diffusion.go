package spde

import (
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// DiffusionPrecision assembles the *non-separable* diffusion-based
// spatio-temporal precision — the model family of the paper's reference
// [25] (Lindgren et al. 2024) that the separable AR(1)⊗Matérn construction
// approximates. The stochastic heat equation
//
//	∂_t x + γ(κ² − Δ)x = dW/dt
//
// is discretized with implicit Euler in time on the FEM basis:
//
//	A·x_{t+1} − C̃·x_t = ε_t,   A = C̃ + γ·Δt·(κ²C̃ + G),
//	ε_t ~ N(0, τ⁻¹·Δt·C̃),
//
// whose joint density gives the block-tridiagonal precision
//
//	Q_tt  = (τ/Δt)·(AᵀC̃⁻¹A + C̃)   (interior; boundary blocks drop a term)
//	Q_t,t+1 = −(τ/Δt)·AᵀC̃⁻¹C̃ = −(τ/Δt)·Aᵀ
//
// plus a stationary Matérn prior on the initial state. Everything stays
// sparse because the lumped mass C̃ is diagonal; the diagonal blocks carry
// the two-hop (G·C̃⁻¹·G) pattern, which the block-dense BTA solvers of
// DALIA absorb without cost — the reason the paper's approach suits this
// model class.
//
// Unlike the separable model, covariance here transports through space and
// time jointly (a disturbance diffuses outward as time advances).
func (b *Builder) DiffusionPrecision(h Hyper) *sparse.CSR {
	kappa, gdt, f, tau0 := diffusionParams(h)

	ns := b.Ns()
	nt := b.Nt
	// K = κ²C̃ + G;  A = C̃ + γΔt·K.
	k := sparse.Add(kappa*kappa, b.c, 1, b.g)
	a := sparse.Add(1, b.c, gdt, k)
	// AᵀC̃⁻¹A (sparse; C̃ diagonal).
	cInv := sparse.Diag(b.cInvD)
	ata := sparse.MatMul(a.Transpose(), sparse.MatMul(cInv, a))

	// A is symmetric (C̃ diagonal, G symmetric), so the coupling block and
	// its transpose coincide.
	coupling := a.Clone().Scale(-f)

	// Initial-state prior: the stationary Matérn field with sd σ.
	q0 := b.SpatialPrecision(kappa, tau0)

	coo := sparse.NewCOO(nt*ns, nt*ns)
	addBlock := func(bi, bj int, m *sparse.CSR) {
		for r := 0; r < ns; r++ {
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				coo.Add(bi*ns+r, bj*ns+m.ColIdx[p], m.Val[p])
			}
		}
	}
	for t := 0; t < nt; t++ {
		if t < nt-1 {
			// Equation ε_t contributes AᵀC̃⁻¹A at (t+1,t+1), C̃ at (t,t),
			// −Aᵀ couplings; the initial state carries the Matérn prior.
			addBlock(t, t, sparse.Add(f, b.c, boolF(t == 0), q0))
			addBlock(t+1, t+1, ata.Clone().Scale(f))
			addBlock(t+1, t, coupling)
			addBlock(t, t+1, coupling)
		} else if nt == 1 {
			addBlock(0, 0, q0)
		}
	}
	return coo.ToCSR()
}

// diffusionParams maps h to the diffusion model's (κ, γΔt, f, τ_0): the
// implicit-Euler weight of K in A, the innovation precision scale f = τ/Δt,
// and the τ of the stationary Matérn prior on the initial state.
func diffusionParams(h Hyper) (kappa, gdt, f, tau0 float64) {
	const dt = 1.0 // one time index per step
	kappa = KappaFromRange(h.RangeS)
	// Diffusion speed from the temporal range: the spatial mode at wave
	// number κ relaxes with e-folding time 1/(γκ²); place it at ρ_t.
	gamma := 1 / (h.RangeT * kappa * kappa)
	// Noise precision calibrated like the separable innovation: a Matérn
	// slice with sd ≈ σ (approximate — non-separable marginals have no
	// closed form; tests verify the order of magnitude numerically).
	tau0 = TauFromKappaSigma(kappa, h.Sigma)
	return kappa, gamma * dt, tau0 * tau0 * 2 * gamma / dt, tau0
}

// boolF returns 1 when the condition holds, else 0 (block scaling helper).
func boolF(c bool) float64 {
	if c {
		return 1
	}
	return 0
}
