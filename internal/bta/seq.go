package bta

import (
	"fmt"
	"math"
	"sync"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// Factor holds the Cholesky factorization of a BTA matrix produced by
// Factorize (the POBTAF routine). The factor reuses the BTA block layout:
// Diag[i] holds L_ii (lower triangular), Lower[i] holds L_{i+1,i}, Arrow[i]
// holds L_{a,i} and Tip holds L_aa.
type Factor struct {
	N, B, A int
	Diag    []*dense.Matrix
	Lower   []*dense.Matrix
	Arrow   []*dense.Matrix
	Tip     *dense.Matrix

	// selinvMu guards the lazily allocated selected-inversion scratch:
	// SelectedInversion used to build all temporaries fresh and was safe to
	// call concurrently on a shared factor (the mode-factor usage pattern);
	// the scratch reuse keeps that contract by serializing the sweep.
	selinvMu sync.Mutex
	selinv   *selinvScratch
}

// selinvScratch is the reusable workspace of the alloc-free selected
// inversion: the scaled couplings G = L_{i+1,i}·L_ii⁻¹ and H = L_{a,i}·L_ii⁻¹
// of the current block, plus the triangular-inverse temporaries.
type selinvScratch struct {
	g    *dense.Matrix // b×b
	h    *dense.Matrix // a×b (nil when A == 0)
	tmpB *dense.Matrix // b×b L_ii⁻¹ of the current block
	tmpA *dense.Matrix // a×a Trtri workspace (nil when A == 0)
}

func newSelinvScratch(b, a int) *selinvScratch {
	s := &selinvScratch{g: dense.New(b, b), tmpB: dense.New(b, b)}
	if a > 0 {
		s.h = dense.New(a, b)
		s.tmpA = dense.New(a, a)
	}
	return s
}

// Factorize computes the block Cholesky factorization A = L·Lᵀ of a BTA
// matrix (POBTAF). The input is not modified. The cost is
// O(n·(b³ + b²a) + a³), sequential over the n diagonal blocks.
//
// Factorize allocates fresh factor storage on every call; the INLA loop,
// which factorizes the same shape hundreds of times, should allocate a
// Factor once with NewFactor and call Refactorize per θ instead.
func Factorize(m *Matrix) (*Factor, error) {
	f := NewFactor(m.N, m.B, m.A)
	if err := f.Refactorize(m); err != nil {
		return nil, err
	}
	return f, nil
}

// NewFactor allocates zeroed factor storage for a BTA shape. The factor is
// not usable until a successful Refactorize.
func NewFactor(n, b, a int) *Factor {
	w := NewMatrix(n, b, a)
	return &Factor{N: n, B: b, A: a, Diag: w.Diag, Lower: w.Lower, Arrow: w.Arrow, Tip: w.Tip}
}

// FactorizeInto factorizes m into the caller-owned factor storage f,
// performing no heap allocation. Equivalent to f.Refactorize(m).
func FactorizeInto(f *Factor, m *Matrix) error { return f.Refactorize(m) }

// Refactorize recomputes the factorization of m in place of f's existing
// block storage — the zero-allocation hot path of repeated INLA
// θ-evaluations. m is not modified. On error (non-SPD input) the factor
// contents are undefined and must not be used until the next successful
// Refactorize; callers in the INLA loop treat this as an infeasible point
// and back off.
func (f *Factor) Refactorize(m *Matrix) error {
	if f.N != m.N || f.B != m.B || f.A != m.A {
		return fmt.Errorf("bta: refactorize shape mismatch: factor (n=%d,b=%d,a=%d), matrix (n=%d,b=%d,a=%d)",
			f.N, f.B, f.A, m.N, m.B, m.A)
	}
	w := Matrix{N: f.N, B: f.B, A: f.A, Diag: f.Diag, Lower: f.Lower, Arrow: f.Arrow, Tip: f.Tip}
	w.CopyFrom(m)
	return factorizeInPlace(&w)
}

// factorizeInPlace overwrites the blocks of w with the factor blocks.
func factorizeInPlace(w *Matrix) error {
	for i := 0; i < w.N; i++ {
		if err := factorStep(w, i); err != nil {
			return err
		}
	}
	return factorFinishTip(w)
}

// factorStep eliminates diagonal block i of w in place: Cholesky of the
// block, scaling of its couplings, and the Schur updates onto block i+1 and
// the arrow tip. Blocks 0..i−1 must already be eliminated; blocks > i+1 are
// untouched.
func factorStep(w *Matrix, i int) error {
	n := w.N
	hasArrow := w.A > 0
	if err := dense.Potrf(w.Diag[i]); err != nil {
		return fmt.Errorf("bta: diagonal block %d: %w", i, err)
	}
	w.Diag[i].ZeroUpper()
	li := w.Diag[i]
	if i < n-1 {
		dense.Trsm(dense.Right, dense.Trans, li, w.Lower[i]) // L_{i+1,i} = A_{i+1,i}·L_ii⁻ᵀ
	}
	if hasArrow {
		dense.Trsm(dense.Right, dense.Trans, li, w.Arrow[i]) // L_{a,i} = A_{a,i}·L_ii⁻ᵀ
	}
	if i < n-1 {
		dense.Syrk(dense.NoTrans, -1, w.Lower[i], 1, w.Diag[i+1])
		w.Diag[i+1].MirrorLowerToUpper()
		if hasArrow {
			dense.Gemm(dense.NoTrans, dense.Trans, -1, w.Arrow[i], w.Lower[i], 1, w.Arrow[i+1])
		}
	}
	if hasArrow {
		dense.Syrk(dense.NoTrans, -1, w.Arrow[i], 1, w.Tip)
	}
	return nil
}

// factorFinishTip factorizes the fully-updated arrow tip, completing an
// in-place factorization whose diagonal steps all ran through factorStep.
func factorFinishTip(w *Matrix) error {
	if w.A > 0 {
		if err := dense.Potrf(w.Tip); err != nil {
			return fmt.Errorf("bta: arrow tip: %w", err)
		}
		w.Tip.ZeroUpper()
	}
	return nil
}

// LogDet returns log|A| = 2·Σ log L_kk over all factor diagonals.
func (f *Factor) LogDet() float64 {
	var s float64
	for i := 0; i < f.N; i++ {
		d := f.Diag[i]
		for k := 0; k < f.B; k++ {
			s += math.Log(d.At(k, k))
		}
	}
	if f.A > 0 {
		for k := 0; k < f.A; k++ {
			s += math.Log(f.Tip.At(k, k))
		}
	}
	return 2 * s
}

// Dim returns the full system dimension.
func (f *Factor) Dim() int { return f.N*f.B + f.A }

// Solve solves A·x = rhs in place of rhs (the POBTAS routine: block forward
// substitution, then block backward substitution).
func (f *Factor) Solve(rhs []float64) {
	if len(rhs) < f.Dim() {
		panic(fmt.Sprintf("bta: solve rhs length %d < %d", len(rhs), f.Dim()))
	}
	f.forward(rhs)
	f.backward(rhs)
}

// forward computes y = L⁻¹·rhs in place.
func (f *Factor) forward(rhs []float64) {
	n, b := f.N, f.B
	for i := 0; i < n; i++ {
		yi := rhs[i*b : (i+1)*b]
		solveLowerVec(f.Diag[i], yi)
		if i < n-1 {
			dense.Gemv(dense.NoTrans, -1, f.Lower[i], yi, 1, rhs[(i+1)*b:(i+2)*b])
		}
		if f.A > 0 {
			dense.Gemv(dense.NoTrans, -1, f.Arrow[i], yi, 1, rhs[n*b:n*b+f.A])
		}
	}
	if f.A > 0 {
		solveLowerVec(f.Tip, rhs[n*b:n*b+f.A])
	}
}

// backward computes x = L⁻ᵀ·y in place.
func (f *Factor) backward(rhs []float64) {
	n, b := f.N, f.B
	var xa []float64
	if f.A > 0 {
		xa = rhs[n*b : n*b+f.A]
		solveLowerTransVec(f.Tip, xa)
	}
	for i := n - 1; i >= 0; i-- {
		xi := rhs[i*b : (i+1)*b]
		if i < n-1 {
			dense.Gemv(dense.Trans, -1, f.Lower[i], rhs[(i+1)*b:(i+2)*b], 1, xi)
		}
		if f.A > 0 {
			dense.Gemv(dense.Trans, -1, f.Arrow[i], xa, 1, xi)
		}
		solveLowerTransVec(f.Diag[i], xi)
	}
}

// SolveLT solves Lᵀ·x = x in place. Drawing z ~ N(0, I) and solving
// Lᵀ·x = z yields a sample x ~ N(0, A⁻¹) — the GMRF sampling primitive the
// synthetic-data generators use.
func (f *Factor) SolveLT(x []float64) {
	if len(x) < f.Dim() {
		panic(fmt.Sprintf("bta: SolveLT length %d < %d", len(x), f.Dim()))
	}
	f.backward(x)
}

// SolveMulti solves A·X = B for a block of right-hand sides stored as the
// columns of b (in place).
func (f *Factor) SolveMulti(b *dense.Matrix) {
	if b.Rows != f.Dim() {
		panic(fmt.Sprintf("bta: SolveMulti rhs rows %d != %d", b.Rows, f.Dim()))
	}
	n, bb := f.N, f.B
	// forward
	for i := 0; i < n; i++ {
		yi := b.View(i*bb, 0, bb, b.Cols)
		dense.Trsm(dense.Left, dense.NoTrans, f.Diag[i], yi)
		if i < n-1 {
			dense.Gemm(dense.NoTrans, dense.NoTrans, -1, f.Lower[i], yi, 1, b.View((i+1)*bb, 0, bb, b.Cols))
		}
		if f.A > 0 {
			dense.Gemm(dense.NoTrans, dense.NoTrans, -1, f.Arrow[i], yi, 1, b.View(n*bb, 0, f.A, b.Cols))
		}
	}
	if f.A > 0 {
		dense.Trsm(dense.Left, dense.NoTrans, f.Tip, b.View(n*bb, 0, f.A, b.Cols))
	}
	// backward
	if f.A > 0 {
		dense.Trsm(dense.Left, dense.Trans, f.Tip, b.View(n*bb, 0, f.A, b.Cols))
	}
	for i := n - 1; i >= 0; i-- {
		xi := b.View(i*bb, 0, bb, b.Cols)
		if i < n-1 {
			dense.Gemm(dense.Trans, dense.NoTrans, -1, f.Lower[i], b.View((i+1)*bb, 0, bb, b.Cols), 1, xi)
		}
		if f.A > 0 {
			dense.Gemm(dense.Trans, dense.NoTrans, -1, f.Arrow[i], b.View(n*bb, 0, f.A, b.Cols), 1, xi)
		}
		dense.Trsm(dense.Left, dense.Trans, f.Diag[i], xi)
	}
}

// solveLowerVec solves L·x = x in place for lower-triangular L.
func solveLowerVec(l *dense.Matrix, x []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		row := l.Row(i)
		s := x[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
}

// solveLowerTransVec solves Lᵀ·x = x in place for lower-triangular L.
func solveLowerTransVec(l *dense.Matrix, x []float64) {
	n := l.Rows
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l.Data[k*l.Stride+i] * x[k]
		}
		x[i] = s / l.Data[i*l.Stride+i]
	}
}

// SelectedInversion computes the blocks of Σ = A⁻¹ that lie on the BTA
// pattern (the POBTASI routine): Σ_ii, Σ_{i+1,i}, Σ_{a,i} and Σ_aa. These
// are exactly the entries INLA needs for latent marginal variances (the
// diagonal) and local posterior covariances.
//
// Backward block recursion derived from Σ·L = L⁻ᵀ:
//
//	G = L_{i+1,i}·L_ii⁻¹,  H = L_{a,i}·L_ii⁻¹
//	Σ_{i+1,i} = −Σ_{i+1,i+1}·G − Σ_{a,i+1}ᵀ·H
//	Σ_{a,i}   = −Σ_{a,i+1}·G − Σ_aa·H
//	Σ_ii      = (L_ii·L_iiᵀ)⁻¹ − Σ_{i+1,i}ᵀ·G − Σ_{a,i}ᵀ·H
func (f *Factor) SelectedInversion() (*Matrix, error) {
	sig := NewMatrix(f.N, f.B, f.A)
	if err := f.SelectedInversionInto(sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// SelectedInversionInto computes the selected inverse into caller-owned
// storage, drawing all temporaries from a scratch arena allocated on first
// use — the alloc-free counterpart of SelectedInversion for the per-θ
// posterior extraction loop. Concurrent calls on the same factor serialize
// on the shared scratch (each still needs its own sig).
func (f *Factor) SelectedInversionInto(sig *Matrix) error {
	n, b, a := f.N, f.B, f.A
	if sig.N != n || sig.B != b || sig.A != a {
		return fmt.Errorf("bta: selinv output BTA(n=%d,b=%d,a=%d), factor (n=%d,b=%d,a=%d)",
			sig.N, sig.B, sig.A, n, b, a)
	}
	f.selinvMu.Lock()
	defer f.selinvMu.Unlock()
	if f.selinv == nil {
		f.selinv = newSelinvScratch(b, a)
	}
	ws := f.selinv
	if a > 0 {
		if err := dense.PotriInto(sig.Tip, ws.tmpA, f.Tip); err != nil {
			return fmt.Errorf("bta: selinv tip: %w", err)
		}
	}
	for i := n - 1; i >= 0; i-- {
		// (L_ii·L_iiᵀ)⁻¹ first: it leaves L_ii⁻¹ in tmpB, which turns the
		// two coupling scalings into GEMMs.
		if err := dense.PotriInto(sig.Diag[i], ws.tmpB, f.Diag[i]); err != nil {
			return fmt.Errorf("bta: selinv block %d: %w", i, err)
		}
		var g, h *dense.Matrix
		if i < n-1 {
			g = ws.g
			dense.Gemm(dense.NoTrans, dense.NoTrans, 1, f.Lower[i], ws.tmpB, 0, g) // G = L_{i+1,i}·L_ii⁻¹
		}
		if a > 0 {
			h = ws.h
			dense.Gemm(dense.NoTrans, dense.NoTrans, 1, f.Arrow[i], ws.tmpB, 0, h) // H = L_{a,i}·L_ii⁻¹
		}
		if i < n-1 {
			// Σ_{i+1,i}
			dense.Gemm(dense.NoTrans, dense.NoTrans, -1, sig.Diag[i+1], g, 0, sig.Lower[i])
			if a > 0 {
				dense.Gemm(dense.Trans, dense.NoTrans, -1, sig.Arrow[i+1], h, 1, sig.Lower[i])
			}
		}
		if a > 0 {
			// Σ_{a,i}
			if i < n-1 {
				dense.Gemm(dense.NoTrans, dense.NoTrans, -1, sig.Arrow[i+1], g, 0, sig.Arrow[i])
				dense.Gemm(dense.NoTrans, dense.NoTrans, -1, sig.Tip, h, 1, sig.Arrow[i])
			} else {
				dense.Gemm(dense.NoTrans, dense.NoTrans, -1, sig.Tip, h, 0, sig.Arrow[i])
			}
		}
		// Σ_ii = (L_ii·L_iiᵀ)⁻¹ − Σ_{i+1,i}ᵀ·G − Σ_{a,i}ᵀ·H
		if i < n-1 {
			dense.Gemm(dense.Trans, dense.NoTrans, -1, sig.Lower[i], g, 1, sig.Diag[i])
		}
		if a > 0 {
			dense.Gemm(dense.Trans, dense.NoTrans, -1, sig.Arrow[i], h, 1, sig.Diag[i])
		}
		sig.Diag[i].Symmetrize()
	}
	return nil
}

// DiagVec extracts the full main diagonal of the BTA matrix as a vector of
// length n·b + a (used to read marginal variances out of Σ).
func (m *Matrix) DiagVec() []float64 {
	out := make([]float64, m.Dim())
	for i := 0; i < m.N; i++ {
		for k := 0; k < m.B; k++ {
			out[i*m.B+k] = m.Diag[i].At(k, k)
		}
	}
	if m.A > 0 {
		for k := 0; k < m.A; k++ {
			out[m.N*m.B+k] = m.Tip.At(k, k)
		}
	}
	return out
}
