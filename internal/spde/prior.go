package spde

import (
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/sparse"
)

// The prior density of one process needs two scalars per hyperparameter
// configuration — log det Q_st and zᵀQ_st·z — and both follow from the
// structure the assembly routines document, without assembling or
// factorizing the nt·ns matrix. With K(s) = G + s·C̃ (so κ²C̃ + G = K(κ²))
// the Matérn block is Q_s = τ²·K·C̃⁻¹·K and
//
//	separable  Q_st = T(a) ⊗ Q_s:
//	  log det  = ns·log(1−a²) + nt·(2ns·log τ + 2·log det K − log det C̃)
//	  zᵀQ_st z = τ²·Σ_tt' T_tt'·w_tᵀC̃⁻¹w_t',   w_t = K·z_t
//	diffusion  Q_st = Bᵀ·blockdiag(Q_0, f·C̃⁻¹, …)·B,  B the implicit-Euler
//	           recursion A·x_t+1 − C̃·x_t with A = C̃ + γΔt·K = γΔt·K(κ² + 1/γΔt):
//	  log det  = log det Q_0 + (nt−1)·(ns·log f − log det C̃ + 2·log det A)
//	  zᵀQ_st z = z_0ᵀQ_0 z_0 + f·Σ_t ‖C̃^(−½)(A·z_t+1 − C̃·z_t)‖²
//
// (det T(a) = 1−a² for every nt; C̃ is diagonal). The one numerical
// primitive is log det K(s): a sparse Cholesky of an ns×ns matrix on the
// fixed FEM pattern, whose symbolic analysis NewBuilder does once.

// priorWork is the per-caller state of the prior operations: the values of
// P·K(s)·Pᵀ on the Builder's permuted pattern, a fork of the symbolic
// Cholesky analysis, and two ns-vectors for the quadratic forms. Pooled on
// the Builder so concurrent evaluations neither share nor allocate it.
type priorWork struct {
	k      *sparse.CSR
	chol   *sparse.CholFactor
	v0, v1 []float64
}

// initPrior runs the set-up half of the prior operations: log det C̃, the
// fill-reducing ordering and symbolic factorization of the K(s) pattern, and
// G and C̃ laid out on that permuted pattern so K(s) is one axpy over its
// values.
func (b *Builder) initPrior() {
	for _, c := range b.cD {
		b.logDetC += math.Log(c)
	}
	chol, err := sparse.CholFactorize(sparse.Add(1, b.c, 1, b.g), nil)
	if err != nil {
		// C̃ + G is SPD on any mesh whose triangles have positive area.
		panic(fmt.Sprintf("spde: C̃ + G on this mesh: %v", err))
	}
	b.kChol = chol
	// Add keeps the union pattern even under a zero coefficient.
	b.gPerm = sparse.Add(0, b.c, 1, b.g).PermuteSym(chol.Perm)
	b.cPerm = sparse.Add(1, b.c, 0, b.g).PermuteSym(chol.Perm)
}

func (b *Builder) getWork() *priorWork {
	if w, ok := b.work.Get().(*priorWork); ok {
		return w
	}
	n := b.Ns()
	g := b.gPerm // pattern arrays are read-only: shared
	return &priorWork{
		k:    sparse.NewCSR(n, n, g.RowPtr, g.ColIdx, make([]float64, g.NNZ())),
		chol: b.kChol.Fork(),
		v0:   make([]float64, n), v1: make([]float64, n),
	}
}

// logDetK returns log det(G + s·C̃).
func (b *Builder) logDetK(w *priorWork, s float64) (float64, error) {
	for p, g := range b.gPerm.Val {
		w.k.Val[p] = g + s*b.cPerm.Val[p]
	}
	if err := w.chol.RefactorizePermuted(w.k); err != nil {
		return 0, fmt.Errorf("spde: G + %g·C̃: %w", s, err)
	}
	return w.chol.LogDet(), nil
}

// logDetMatern returns log det of τ²·K(κ²)·C̃⁻¹·K(κ²).
func (b *Builder) logDetMatern(w *priorWork, kappa, tau float64) (float64, error) {
	ldK, err := b.logDetK(w, kappa*kappa)
	if err != nil {
		return 0, err
	}
	return 2*float64(b.Ns())*math.Log(tau) + 2*ldK - b.logDetC, nil
}

// mulK computes y = (G + s·C̃)·x.
func (b *Builder) mulK(s float64, x, y []float64) {
	b.g.MulVec(x, y)
	for i, c := range b.cD {
		y[i] += s * c * x[i]
	}
}

// LogDet returns log det of Precision(h) without assembling it. It does not
// allocate once the Builder's workspace pool is warm and is safe for
// concurrent use.
func (b *Builder) LogDet(h Hyper) (float64, error) {
	kappa, a, tau := separableParams(h)
	w := b.getWork()
	defer b.work.Put(w)
	ldQs, err := b.logDetMatern(w, kappa, tau)
	if err != nil {
		return 0, err
	}
	return float64(b.Ns())*math.Log1p(-a*a) + float64(b.Nt)*ldQs, nil
}

// Quad returns zᵀ·Precision(h)·z for z in time-major ordering (length
// nt·ns): one stiffness mat-vec per time step, no assembly. Allocation and
// concurrency as LogDet.
func (b *Builder) Quad(h Hyper, z []float64) float64 {
	kappa, a, tau := separableParams(h)
	ns, nt := b.Ns(), b.Nt
	w := b.getWork()
	defer b.work.Put(w)
	prev, cur := w.v0, w.v1
	var s float64
	for t := 0; t < nt; t++ {
		b.mulK(kappa*kappa, z[t*ns:(t+1)*ns], cur)
		var dd, cc float64 // w_tᵀC̃⁻¹w_t and w_tᵀC̃⁻¹w_t−1
		for i, ci := range b.cInvD {
			wi := ci * cur[i]
			dd += wi * cur[i]
			if t > 0 {
				cc += wi * prev[i]
			}
		}
		s += temporalDiag(nt, t, a)*dd - 2*a*cc
		prev, cur = cur, prev
	}
	return tau * tau * s
}

// DiffusionLogDet is LogDet for DiffusionPrecision(h).
func (b *Builder) DiffusionLogDet(h Hyper) (float64, error) {
	kappa, gdt, f, tau0 := diffusionParams(h)
	ns := float64(b.Ns())
	w := b.getWork()
	defer b.work.Put(w)
	ld, err := b.logDetMatern(w, kappa, tau0) // Q_0
	if err != nil || b.Nt == 1 {
		return ld, err
	}
	ldA, err := b.logDetK(w, kappa*kappa+1/gdt)
	if err != nil {
		return 0, err
	}
	ldA += ns * math.Log(gdt)
	return ld + float64(b.Nt-1)*(ns*math.Log(f)-b.logDetC+2*ldA), nil
}

// DiffusionQuad is Quad for DiffusionPrecision(h).
func (b *Builder) DiffusionQuad(h Hyper, z []float64) float64 {
	kappa, gdt, f, tau0 := diffusionParams(h)
	ns := b.Ns()
	w := b.getWork()
	defer b.work.Put(w)
	kz := w.v0
	var s float64
	for t := 0; t < b.Nt; t++ {
		zt := z[t*ns : (t+1)*ns]
		b.mulK(kappa*kappa, zt, kz)
		var ss float64
		if t == 0 {
			for i, ci := range b.cInvD {
				ss += ci * kz[i] * kz[i]
			}
			s += tau0 * tau0 * ss
			continue
		}
		zp := z[(t-1)*ns : t*ns]
		for i, ci := range b.cInvD {
			r := b.cD[i]*(zt[i]-zp[i]) + gdt*kz[i] // (A·z_t − C̃·z_t−1)_i
			ss += ci * r * r
		}
		s += f * ss
	}
	return s
}
