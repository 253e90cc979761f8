package bta

import (
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// Factor holds the Cholesky factorization of a BTA matrix produced by
// Factorize (the POBTAF routine). The factor reuses the BTA block layout:
// Diag[i] holds L_ii (lower triangular), Lower[i] holds L_{i+1,i}, Arrow[i]
// holds L_{a,i} and Tip holds L_aa.
//
// The sequential chain is the one-partition run of the partitioned cores:
// blocks 0…n−1 are the interiors of a single one-sided partition, which
// partitionElim eliminates and partitionSolve / partitionSweep sweep, and
// the arrow tip is its only boundary — factorized, solved and inverted here.
type Factor struct {
	N, B, A int
	Diag    []*dense.Matrix
	Lower   []*dense.Matrix
	Arrow   []*dense.Matrix
	Tip     *dense.Matrix

	// core views the blocks as the partition's elimination outputs: L =
	// Diag, GNext = Lower with a nil last entry, GTop all nil, GArr = Arrow
	// (all nil without an arrowhead).
	core partitionSolve

	// ws views the blocks as a matrix: the Workspace the next
	// factorization runs over in place.
	ws *Matrix
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
func NewFactor(n, b, a int) *Factor { return newFactor(NewMatrix(n, b, a)) }

// newFactor views w's blocks as the storage of a factor, which factorize
// overwrites in place.
func newFactor(w *Matrix) *Factor {
	n := w.N
	f := &Factor{N: n, B: w.B, A: w.A, Diag: w.Diag, Lower: w.Lower, Arrow: w.Arrow, Tip: w.Tip, ws: w}
	f.core = partitionSolve{
		L:     make([]*dense.Matrix, n),
		GNext: make([]*dense.Matrix, n),
		GTop:  make([]*dense.Matrix, n),
		GArr:  make([]*dense.Matrix, n),
		// One partition over every block: all of them are interiors.
		Interiors: interiors(Partition{Lo: 0, Hi: n - 1}, 0, 1),
		B:         w.B,
	}
	copy(f.core.L, w.Diag)
	copy(f.core.GNext, w.Lower)
	copy(f.core.GArr, w.Arrow)
	return f
}

// Refactorize recomputes the factorization of m in place of f's existing
// block storage: m is copied into the Workspace, which FactorizeWorkspace
// then factorizes. m is not modified. On error (non-SPD input) the factor
// contents are undefined and must not be used until the next successful
// factorization; callers in the INLA loop treat this as an infeasible
// point and back off.
func (f *Factor) Refactorize(m *Matrix) error {
	if f.N != m.N || f.B != m.B || f.A != m.A {
		return fmt.Errorf("bta: refactorize shape mismatch: factor (n=%d,b=%d,a=%d), matrix (n=%d,b=%d,a=%d)",
			f.N, f.B, f.A, m.N, m.B, m.A)
	}
	f.ws.CopyFrom(m)
	return f.FactorizeWorkspace()
}

// Workspace returns the factor's block storage viewed as a BTA matrix. A
// caller that writes the matrix to factorize straight into it and calls
// FactorizeWorkspace skips Refactorize's copy — the zero-allocation hot
// path of repeated INLA θ-evaluations. After a factorization it holds the
// factor, so every position must be rewritten before the next one.
func (f *Factor) Workspace() *Matrix { return f.ws }

// FactorizeWorkspace factorizes the matrix held in the Workspace in place
// (POBTAF).
func (f *Factor) FactorizeWorkspace() error { return f.factorize() }

// factorize overwrites the blocks, holding the matrix, with the factor: the
// interior elimination accumulates the arrow Schur updates straight into the
// tip, whose Cholesky completes the factor.
func (f *Factor) factorize() error {
	c := &f.core
	pe := partitionElim{
		Diag: f.Diag, Lower: f.Lower, Arrow: f.Arrow,
		Interiors: c.Interiors,
		L:         c.L[:0], GNext: c.GNext[:0], GTop: c.GTop[:0], GArr: c.GArr[:0],
	}
	if f.A > 0 {
		pe.TipDelta = f.Tip
	}
	if err := pe.run(); err != nil {
		return err
	}
	if f.A > 0 {
		if err := dense.Potrf(f.Tip); err != nil {
			return fmt.Errorf("bta: arrow tip: %w", err)
		}
		f.Tip.ZeroUpper()
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
	for k := 0; k < f.A; k++ {
		s += math.Log(f.Tip.At(k, k))
	}
	return 2 * s
}

// Dim returns the full system dimension.
func (f *Factor) Dim() int { return f.N*f.B + f.A }

// Solve solves A·x = rhs in place of rhs (the POBTAS routine: block forward
// substitution, then block backward substitution). The tip slot of rhs is
// the forward sweep's arrow accumulator.
func (f *Factor) Solve(rhs []float64) {
	if len(rhs) < f.Dim() {
		panic(fmt.Sprintf("bta: solve rhs length %d < %d", len(rhs), f.Dim()))
	}
	tip := rhs[f.N*f.B : f.Dim()]
	f.core.forward(rhs, tip)
	if f.A > 0 {
		solveLowerVec(f.Tip, tip)
	}
	f.SolveLT(rhs)
}

// SolveLT solves Lᵀ·x = x in place. Drawing z ~ N(0, I) and solving
// Lᵀ·x = z yields a sample x ~ N(0, A⁻¹) — the GMRF sampling primitive the
// synthetic-data generators use.
func (f *Factor) SolveLT(x []float64) {
	if len(x) < f.Dim() {
		panic(fmt.Sprintf("bta: SolveLT length %d < %d", len(x), f.Dim()))
	}
	tip := x[f.N*f.B : f.Dim()]
	if f.A > 0 {
		solveLowerTransVec(f.Tip, tip)
	}
	f.core.backward(x, tip)
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
// Backward block recursion derived from Σ·L = L⁻ᵀ, one dense.Invert step
// per block:
//
//	G = L_{i+1,i}·L_ii⁻¹,  H = L_{a,i}·L_ii⁻¹   (packed solves against L_ii)
//	Σ_{i+1,i} = −Σ_{i+1,i+1}·G − Σ_{a,i+1}ᵀ·H
//	Σ_{a,i}   = −Σ_{a,i+1}·G − Σ_aa·H
//	Σ_ii      = (L_ii·L_iiᵀ)⁻¹ − Σ_{i+1,i}ᵀ·G − Σ_{a,i}ᵀ·H  (lower triangle, mirrored)
//
// with (L_ii·L_iiᵀ)⁻¹ = L_ii⁻ᵀ·L_ii⁻¹ from the packed solve of L_ii⁻¹ over
// its lower triangle only.
func (f *Factor) SelectedInversion() (*Matrix, error) {
	sig := NewMatrix(f.N, f.B, f.A)
	if err := f.SelectedInversionInto(sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// SelectedInversionInto computes the selected inverse into caller-owned
// storage: Σ_aa from the tip (a dense.Invert step without couplings), then
// the interior sweep, every temporary drawn from the dense pools — the
// alloc-free counterpart of SelectedInversion for the per-θ posterior
// extraction loop. The factor is only read, so concurrent calls on it run
// side by side, each into its own sig.
func (f *Factor) SelectedInversionInto(sig *Matrix) error {
	n, b, a := f.N, f.B, f.A
	if sig.N != n || sig.B != b || sig.A != a {
		return fmt.Errorf("bta: selinv output BTA(n=%d,b=%d,a=%d), factor (n=%d,b=%d,a=%d)",
			sig.N, sig.B, sig.A, n, b, a)
	}
	c := &f.core
	pw := partitionSweep{L: c.L, GNext: c.GNext, GTop: c.GTop, GArr: c.GArr,
		Interiors: c.Interiors, Diag: sig.Diag, Lower: sig.Lower}
	if a > 0 {
		if err := dense.Invert(f.Tip, [3]*dense.Matrix{}, [3][3]*dense.Matrix{}, [3]*dense.Matrix{}, sig.Tip); err != nil {
			return fmt.Errorf("bta: selinv tip: %w", err)
		}
		pw.Arrow, pw.SigTip = sig.Arrow, sig.Tip
	}
	return pw.run()
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
	for k := 0; k < m.A; k++ {
		out[m.N*m.B+k] = m.Tip.At(k, k)
	}
	return out
}
