package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNotPositiveDefinite mirrors dense.ErrNotPositiveDefinite for the sparse
// factorization path.
var ErrNotPositiveDefinite = errors.New("sparse: matrix is not positive definite")

// CholFactor holds a sparse Cholesky factorization P·A·Pᵀ = L·Lᵀ in
// compressed-sparse-column form. The diagonal entry is stored first in each
// column, followed by sub-diagonal rows in increasing order. The symbolic
// structure (elimination tree, column pointers, row pattern) is computed
// once and reused across refactorizations with new numerical values — the
// INLA loop refactorizes the same pattern at every hyperparameter
// configuration, exactly as R-INLA reuses PARDISO's symbolic analysis.
type CholFactor struct {
	N      int
	Perm   []int // row i of PAPᵀ is row Perm[i] of A
	inv    []int
	parent []int

	ColPtr []int
	RowIdx []int
	Val    []float64

	// scratch reused across refactorizations
	x    []float64
	w    []int
	s    []int
	path []int
	next []int
}

// NNZL returns the number of stored entries of L (including diagonals).
func (f *CholFactor) NNZL() int { return len(f.Val) }

// CholFactorize computes a sparse Cholesky factorization of the SPD matrix
// a. If perm is nil a reverse Cuthill–McKee fill-reducing ordering is used;
// pass IdentityPerm(n) to factorize in natural order.
func CholFactorize(a *CSR, perm []int) (*CholFactor, error) {
	if a.RowsN != a.ColsN {
		return nil, fmt.Errorf("sparse: cholesky of non-square %d×%d matrix", a.RowsN, a.ColsN)
	}
	n := a.RowsN
	if perm == nil {
		perm = RCM(a)
	}
	if len(perm) != n {
		return nil, fmt.Errorf("sparse: permutation length %d != %d", len(perm), n)
	}
	f := &CholFactor{N: n, Perm: perm, inv: InvertPerm(perm)}
	ap := a.PermuteSym(perm)
	f.symbolic(ap)
	if err := f.numeric(ap); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactorize recomputes the numerical factorization for a matrix with the
// same sparsity pattern as the one used at construction.
func (f *CholFactor) Refactorize(a *CSR) error {
	return f.numeric(a.PermuteSym(f.Perm))
}

// RefactorizePermuted is Refactorize for a matrix already in the factor's
// ordering (P·A·Pᵀ, same pattern as at construction). It builds nothing: a
// caller that keeps the permuted pattern and rewrites only its values
// refactorizes without allocating.
func (f *CholFactor) RefactorizePermuted(ap *CSR) error {
	return f.numeric(ap)
}

// Fork returns a factor that shares f's symbolic analysis (ordering,
// elimination tree, column pointers — all read-only after construction) and
// owns its numeric storage and scratch, so goroutines that refactorize one
// pattern concurrently each take a fork instead of repeating the analysis.
func (f *CholFactor) Fork() *CholFactor {
	n := f.N
	return &CholFactor{N: n, Perm: f.Perm, inv: f.inv, parent: f.parent, ColPtr: f.ColPtr,
		RowIdx: make([]int, len(f.RowIdx)), Val: make([]float64, len(f.Val)),
		x: make([]float64, n), w: make([]int, n), s: make([]int, n),
		path: make([]int, n), next: make([]int, n)}
}

// symbolic computes the elimination tree and column pointers of L for the
// (already permuted) matrix ap.
func (f *CholFactor) symbolic(ap *CSR) {
	n := f.N
	f.parent = make([]int, n)
	ancestor := make([]int, n)
	for i := range f.parent {
		f.parent[i] = -1
		ancestor[i] = -1
	}
	for k := 0; k < n; k++ {
		for p := ap.RowPtr[k]; p < ap.RowPtr[k+1]; p++ {
			i := ap.ColIdx[p]
			for i != -1 && i < k {
				nxt := ancestor[i]
				ancestor[i] = k
				if nxt == -1 {
					f.parent[i] = k
				}
				i = nxt
			}
		}
	}
	// Column counts via a full symbolic ereach sweep: count, for every row k,
	// each column i on row k's elimination reach.
	cnt := make([]int, n)
	for i := range cnt {
		cnt[i] = 1 // diagonal
	}
	f.w = make([]int, n)
	for i := range f.w {
		f.w[i] = -1
	}
	f.s = make([]int, n)
	f.path = make([]int, n)
	for k := 0; k < n; k++ {
		top := f.ereach(ap, k)
		for t := top; t < n; t++ {
			cnt[f.s[t]]++
		}
	}
	f.ColPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		f.ColPtr[i+1] = f.ColPtr[i] + cnt[i]
	}
	nnz := f.ColPtr[n]
	f.RowIdx = make([]int, nnz)
	f.Val = make([]float64, nnz)
	f.x = make([]float64, n)
	f.next = make([]int, n)
}

// ereach computes the nonzero pattern of row k of L (excluding the
// diagonal) as s[top..n-1] in topological order, using the elimination
// tree. Marks in f.w use the value k so no per-call reset is needed.
func (f *CholFactor) ereach(ap *CSR, k int) int {
	top := f.N
	f.w[k] = k
	for p := ap.RowPtr[k]; p < ap.RowPtr[k+1]; p++ {
		i := ap.ColIdx[p]
		if i >= k {
			continue
		}
		ln := 0
		for f.w[i] != k {
			f.path[ln] = i
			ln++
			f.w[i] = k
			i = f.parent[i]
		}
		for ln > 0 {
			ln--
			top--
			f.s[top] = f.path[ln]
		}
	}
	return top
}

// numeric performs the up-looking numerical factorization of the (already
// permuted) matrix ap into the preallocated symbolic structure.
func (f *CholFactor) numeric(ap *CSR) error {
	n := f.N
	for i := range f.w {
		f.w[i] = -1
	}
	for i := range f.x {
		f.x[i] = 0
	}
	for j := 0; j < n; j++ {
		f.next[j] = f.ColPtr[j]
	}
	for k := 0; k < n; k++ {
		top := f.ereach(ap, k)
		// Scatter row k of the lower triangle of A (= column k of the upper).
		d := 0.0
		for p := ap.RowPtr[k]; p < ap.RowPtr[k+1]; p++ {
			j := ap.ColIdx[p]
			if j < k {
				f.x[j] = ap.Val[p]
			} else if j == k {
				d = ap.Val[p]
			}
		}
		for t := top; t < n; t++ {
			i := f.s[t]
			lki := f.x[i] / f.Val[f.ColPtr[i]]
			f.x[i] = 0
			for p := f.ColPtr[i] + 1; p < f.next[i]; p++ {
				f.x[f.RowIdx[p]] -= f.Val[p] * lki
			}
			d -= lki * lki
			q := f.next[i]
			f.RowIdx[q] = k
			f.Val[q] = lki
			f.next[i]++
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		f.RowIdx[f.ColPtr[k]] = k
		f.Val[f.ColPtr[k]] = math.Sqrt(d)
		f.next[k] = f.ColPtr[k] + 1
	}
	return nil
}

// LogDet returns log|A| = 2·Σ log L_jj.
func (f *CholFactor) LogDet() float64 {
	var s float64
	for j := 0; j < f.N; j++ {
		s += math.Log(f.Val[f.ColPtr[j]])
	}
	return 2 * s
}

// Solve returns x with A·x = b (applies the internal permutation on entry
// and exit). b is not modified.
func (f *CholFactor) Solve(b []float64) []float64 {
	n := f.N
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[f.Perm[i]]
	}
	f.LSolve(y)
	f.LTSolve(y)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[f.Perm[i]] = y[i]
	}
	return x
}

// LSolve solves L·y = y in place (permuted coordinates).
func (f *CholFactor) LSolve(y []float64) {
	for j := 0; j < f.N; j++ {
		p := f.ColPtr[j]
		y[j] /= f.Val[p]
		yj := y[j]
		for p++; p < f.ColPtr[j+1]; p++ {
			y[f.RowIdx[p]] -= f.Val[p] * yj
		}
	}
}

// LTSolve solves Lᵀ·y = y in place (permuted coordinates).
func (f *CholFactor) LTSolve(y []float64) {
	for j := f.N - 1; j >= 0; j-- {
		p := f.ColPtr[j]
		s := y[j]
		for q := p + 1; q < f.ColPtr[j+1]; q++ {
			s -= f.Val[q] * y[f.RowIdx[q]]
		}
		y[j] = s / f.Val[p]
	}
}

// sigmaAt looks up Σ entry (r,c) on the factor pattern in permuted
// coordinates, exploiting symmetry. sig is laid out parallel to (ColPtr,
// RowIdx); sigDiag holds diagonal entries.
func (f *CholFactor) sigmaAt(sig, sigDiag []float64, r, c int) float64 {
	if r == c {
		return sigDiag[r]
	}
	if r < c {
		r, c = c, r
	}
	lo, hi := f.ColPtr[c]+1, f.ColPtr[c+1]
	idx := sort.SearchInts(f.RowIdx[lo:hi], r)
	if lo+idx < hi && f.RowIdx[lo+idx] == r {
		return sig[lo+idx]
	}
	// Outside the fill pattern: treat as zero. For exact Takahashi this
	// cannot happen thanks to the fill-path property; returning 0 keeps the
	// routine total.
	return 0
}

// SelectedInverseDiag computes diag(A⁻¹) via the Takahashi recurrences on
// the Cholesky pattern, returning values in the original (unpermuted)
// ordering. This is the operation INLA needs for latent marginal variances
// and the one PARDISO exposes for R-INLA.
func (f *CholFactor) SelectedInverseDiag() []float64 {
	sig, sigDiag := f.selectedInverse()
	_ = sig
	out := make([]float64, f.N)
	for i := 0; i < f.N; i++ {
		out[f.Perm[i]] = sigDiag[i]
	}
	return out
}

// SelectedInverse computes all entries of A⁻¹ on the pattern of L,
// returning (offdiag values parallel to the factor layout, diagonal). The
// coordinates are permuted; use SelectedInverseDiag or SigmaAtOrig for
// user-facing access.
func (f *CholFactor) selectedInverse() (sig, sigDiag []float64) {
	n := f.N
	sig = make([]float64, len(f.Val))
	sigDiag = make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		dj := f.Val[f.ColPtr[j]]
		invDj := 1 / dj
		lo, hi := f.ColPtr[j]+1, f.ColPtr[j+1]
		// Off-diagonal entries Σ_ij for i in pattern of column j.
		for p := lo; p < hi; p++ {
			i := f.RowIdx[p]
			var s float64
			for q := lo; q < hi; q++ {
				k := f.RowIdx[q]
				s += f.sigmaAt(sig, sigDiag, i, k) * f.Val[q]
			}
			sig[p] = -invDj * s
		}
		// Diagonal Σ_jj.
		var s float64
		for q := lo; q < hi; q++ {
			s += sig[q] * f.Val[q]
		}
		sigDiag[j] = invDj * (invDj - s)
	}
	return sig, sigDiag
}

// SigmaAtOrig returns Σ entry (i,j) in original coordinates when it lies on
// the factor pattern, else 0. Intended for covariances between specific
// latent parameters (e.g. the fixed-effect block in the arrow tip).
func (f *CholFactor) SigmaAtOrig(i, j int) float64 {
	sig, sigDiag := f.selectedInverse()
	return f.sigmaAt(sig, sigDiag, f.inv[i], f.inv[j])
}
