package bta

import "github.com/dalia-hpc/dalia/internal/dense"

// partitionSolve is the single shared implementation of one partition's
// interior triangular-solve sweeps of PPOBTAS (§IV-E): the forward
// elimination over the partition's interior blocks and the matching backward
// substitution against already-final boundary and tip solutions. Like
// partitionElim it is partition-relative: the partitioned driver runs it on
// each owned partition's sub-slice of the right-hand side.
//
// The factor inputs are the partitionElim outputs in elimination order:
// L[idx] is the Cholesky of interior block Interiors[idx], GNext/GTop/GArr
// the scaled couplings to the next block, the partition's top boundary, and
// the arrowhead (nil where the coupling does not exist). rhs slices are
// partition-relative: index 0 is the partition's first (Lo) block, so the
// top-boundary slot of two-sided partitions is rhs[0:b].
//
// None of the methods allocate; virtual-time charging (the comm simulator's
// Compute hook) wraps the calls from the outside.
type partitionSolve struct {
	L, GNext, GTop, GArr []*dense.Matrix

	Interiors []int // global block indices, elimination order
	Base      int   // global index of the partition's first block
	B         int   // block size
}

// forward runs the interior forward elimination y_k = L_kk⁻¹·(…), pushing
// updates to the next block, the partition's top boundary, and the
// partition's private arrow-tip accumulator tip (len a; may be nil when the
// matrix has no arrowhead).
func (pv *partitionSolve) forward(rhs, tip []float64) {
	b := pv.B
	for idx, k := range pv.Interiors {
		rel := k - pv.Base
		yk := rhs[rel*b : (rel+1)*b]
		solveLowerVec(pv.L[idx], yk)
		if g := pv.GNext[idx]; g != nil {
			dense.Gemv(dense.NoTrans, -1, g, yk, 1, rhs[(rel+1)*b:(rel+2)*b])
		}
		if g := pv.GTop[idx]; g != nil {
			dense.Gemv(dense.NoTrans, -1, g, yk, 1, rhs[0:b])
		}
		if g := pv.GArr[idx]; g != nil {
			dense.Gemv(dense.NoTrans, -1, g, yk, 1, tip)
		}
	}
}

// backward runs the interior backward substitution in reverse elimination
// order against the already-final boundary solutions in rhs and the solved
// tip xTip (nil when the matrix has no arrowhead).
func (pv *partitionSolve) backward(rhs, xTip []float64) {
	b := pv.B
	for idx := len(pv.Interiors) - 1; idx >= 0; idx-- {
		rel := pv.Interiors[idx] - pv.Base
		xk := rhs[rel*b : (rel+1)*b]
		if g := pv.GNext[idx]; g != nil {
			dense.Gemv(dense.Trans, -1, g, rhs[(rel+1)*b:(rel+2)*b], 1, xk)
		}
		if g := pv.GTop[idx]; g != nil {
			dense.Gemv(dense.Trans, -1, g, rhs[0:b], 1, xk)
		}
		if g := pv.GArr[idx]; g != nil {
			dense.Gemv(dense.Trans, -1, g, xTip, 1, xk)
		}
		solveLowerTransVec(pv.L[idx], xk)
	}
}
