package bta

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// MultiSolve is the caller-owned workspace of a zero-allocation multi-RHS
// triangular solve: a dim×k right-hand-side matrix plus the per-block row
// views the factor sweeps over, built once. A prediction service solving the
// same shape thousands of times per second keeps one MultiSolve per worker
// and stays allocation-free after warmup.
type MultiSolve struct {
	N, B, A, K int
	// RHS is the dim×k right-hand-side/solution storage. Callers fill its
	// columns before a solve and read the solutions (or half-solutions)
	// back out of the same storage.
	RHS *dense.Matrix

	blocks []*dense.Matrix // n row-block views, b×k each
	arrow  *dense.Matrix   // a×k view (nil when A == 0)

	narrow []*MultiSolve // memoized sub-width workspaces sharing RHS storage
}

// NewMultiSolve allocates a workspace for k simultaneous right-hand sides of
// the BTA shape (n, b, a). All block views into the RHS storage are created
// here, once.
func NewMultiSolve(n, b, a, k int) *MultiSolve {
	if n < 1 || b < 1 || a < 0 || k < 1 {
		panic(fmt.Sprintf("bta: invalid multi-solve shape n=%d b=%d a=%d k=%d", n, b, a, k))
	}
	w := &MultiSolve{N: n, B: b, A: a, K: k}
	w.RHS = dense.New(n*b+a, k)
	w.blocks = make([]*dense.Matrix, n)
	for i := 0; i < n; i++ {
		w.blocks[i] = w.RHS.View(i*b, 0, b, k)
	}
	if a > 0 {
		w.arrow = w.RHS.View(n*b, 0, a, k)
	}
	return w
}

// Dim returns the per-column system dimension n·b + a.
func (w *MultiSolve) Dim() int { return w.N*w.B + w.A }

// Narrow returns a workspace over the first k columns of w's storage, so a
// partially filled batch only sweeps (and zeroes, and reads back) the
// columns it actually uses instead of the full capacity. Sub-width
// workspaces are memoized per width: after one warm pass per observed
// width, Narrow allocates nothing.
func (w *MultiSolve) Narrow(k int) *MultiSolve {
	if k < 1 || k > w.K {
		panic(fmt.Sprintf("bta: narrow to %d columns of a %d-column workspace", k, w.K))
	}
	if k == w.K {
		return w
	}
	if w.narrow == nil {
		w.narrow = make([]*MultiSolve, w.K)
	}
	if nw := w.narrow[k-1]; nw != nil {
		return nw
	}
	nw := &MultiSolve{N: w.N, B: w.B, A: w.A, K: k}
	nw.RHS = w.RHS.View(0, 0, w.Dim(), k)
	nw.blocks = make([]*dense.Matrix, w.N)
	for i := 0; i < w.N; i++ {
		nw.blocks[i] = w.RHS.View(i*w.B, 0, w.B, k)
	}
	if w.A > 0 {
		nw.arrow = w.RHS.View(w.N*w.B, 0, w.A, k)
	}
	w.narrow[k-1] = nw
	return nw
}

// checkShape verifies the workspace matches the factor.
func (w *MultiSolve) checkShape(f *Factor) {
	if w.N != f.N || w.B != f.B || w.A != f.A {
		panic(fmt.Sprintf("bta: multi-solve workspace (n=%d,b=%d,a=%d) does not match factor (n=%d,b=%d,a=%d)",
			w.N, w.B, w.A, f.N, f.B, f.A))
	}
}

// ForwardSolveMultiInto computes Y = L⁻¹·B in place of the workspace RHS,
// for all k columns at once (blocked forward substitution, BLAS-3
// throughout). This is the half solve behind batched predictive variances:
// for a column φ, ‖L⁻¹φ‖² = φᵀA⁻¹φ, and the sum of squares of a
// half-solved column is nonnegative by construction. Performs no heap
// allocation.
func (f *Factor) ForwardSolveMultiInto(w *MultiSolve) {
	w.checkShape(f)
	n := f.N
	for i := 0; i < n; i++ {
		yi := w.blocks[i]
		dense.Trsm(dense.Left, dense.NoTrans, f.Diag[i], yi)
		if i < n-1 {
			dense.Gemm(dense.NoTrans, dense.NoTrans, -1, f.Lower[i], yi, 1, w.blocks[i+1])
		}
		if f.A > 0 {
			dense.Gemm(dense.NoTrans, dense.NoTrans, -1, f.Arrow[i], yi, 1, w.arrow)
		}
	}
	if f.A > 0 {
		dense.Trsm(dense.Left, dense.NoTrans, f.Tip, w.arrow)
	}
}

// BackwardSolveMultiInto computes X = L⁻ᵀ·Y in place of the workspace RHS
// for all k columns. Performs no heap allocation.
func (f *Factor) BackwardSolveMultiInto(w *MultiSolve) {
	w.checkShape(f)
	n := f.N
	if f.A > 0 {
		dense.Trsm(dense.Left, dense.Trans, f.Tip, w.arrow)
	}
	for i := n - 1; i >= 0; i-- {
		xi := w.blocks[i]
		if i < n-1 {
			dense.Gemm(dense.Trans, dense.NoTrans, -1, f.Lower[i], w.blocks[i+1], 1, xi)
		}
		if f.A > 0 {
			dense.Gemm(dense.Trans, dense.NoTrans, -1, f.Arrow[i], w.arrow, 1, xi)
		}
		dense.Trsm(dense.Left, dense.Trans, f.Diag[i], xi)
	}
}

// SolveMultiInto solves A·X = B in place of the workspace RHS for all k
// columns. Performs no heap allocation.
func (f *Factor) SolveMultiInto(w *MultiSolve) {
	f.ForwardSolveMultiInto(w)
	f.BackwardSolveMultiInto(w)
}
