package dense

import "math"

// Naive reference kernels, retained for two purposes: correctness
// cross-checks of the packed engine (every fast path is tested against
// these), and as the measured baseline in the GEMM microbenchmarks so the
// speedup of the tiled engine is a reported number rather than an
// assertion. GemmNaive is the seed implementation's i-k-j loop; it is also
// the small-size path of Gemm, where packing overhead would dominate. The
// unblocked syrkRef, trsmUnb and trtriUnb are likewise the leaves below the
// packed engine's switch-over sizes; potf2 is only the reference of the
// packed Potrf.

// GemmNaive computes C = alpha*op(A)*op(B) + beta*C with plain triple
// loops (no packing, no register tiling, no parallelism). Shapes must
// conform as for Gemm.
func GemmNaive(transA, transB Transpose, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	checkGemmShapes(transA, transB, a, b, c)
	applyBeta(beta, c)
	am, ak := opShape(transA, a)
	_, bn := opShape(transB, b)
	if alpha == 0 || am == 0 || bn == 0 || ak == 0 {
		return
	}
	switch {
	case transA == NoTrans && transB == NoTrans:
		gemmSmallNN(alpha, a, b, c)
	case transA == NoTrans && transB == Trans:
		gemmSmallNT(alpha, a, b, c)
	case transA == Trans && transB == NoTrans:
		gemmSmallTN(alpha, a, b, c)
	default:
		gemmSmallTT(alpha, a, b, c)
	}
}

// gemmSmallNN: C += alpha·A·B, i-k-j loop order (cache-friendly row-major).
func gemmSmallNN(alpha float64, a, b, c *Matrix) {
	for i := 0; i < c.Rows; i++ {
		arow, crow := a.Row(i), c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			s := alpha * av
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += s * bv
			}
		}
	}
}

// gemmSmallNT: C += alpha·A·Bᵀ; C[i,j] = dot(A row i, B row j).
func gemmSmallNT(alpha float64, a, b, c *Matrix) {
	for i := 0; i < c.Rows; i++ {
		arow, crow := a.Row(i), c.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			crow[j] += alpha * s
		}
	}
}

// gemmSmallTN: C += alpha·Aᵀ·B in k-outer saxpy form: every read of A and B
// is a contiguous row sweep (the strided per-C-row access of the old
// implementation is gone; large shapes route through the packed kernel,
// whose packing step performs the transpose).
func gemmSmallTN(alpha float64, a, b, c *Matrix) {
	for k := 0; k < a.Rows; k++ {
		arow, brow := a.Row(k), b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			s := alpha * av
			crow := c.Row(i)
			for j, bv := range brow {
				crow[j] += s * bv
			}
		}
	}
}

// gemmSmallTT: C += alpha·Aᵀ·Bᵀ via explicit strided dots (rare).
func gemmSmallTT(alpha float64, a, b, c *Matrix) {
	for i := 0; i < c.Rows; i++ {
		crow := c.Row(i)
		for j := 0; j < c.Cols; j++ {
			brow := b.Row(j)
			var s float64
			for k := 0; k < a.Rows; k++ {
				s += a.Data[k*a.Stride+i] * brow[k]
			}
			crow[j] += alpha * s
		}
	}
}

// syrkRef accumulates the lower triangle of C += alpha·op(A)·op(A)ᵀ with
// plain loops; Syrk's path for tiny products and the test reference.
func syrkRef(trans Transpose, alpha float64, a *Matrix, c *Matrix) {
	n := c.Rows
	if trans == NoTrans {
		for i := 0; i < n; i++ {
			arow, crow := a.Row(i), c.Row(i)
			for j := 0; j <= i; j++ {
				brow := a.Row(j)
				var s float64
				for k, av := range arow {
					s += av * brow[k]
				}
				crow[j] += alpha * s
			}
		}
		return
	}
	// op(A) = Aᵀ: C += alpha·Aᵀ·A, k-outer accumulation.
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		for i := 0; i < n; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			s := alpha * av
			crow := c.Row(i)
			for j := 0; j <= i; j++ {
				crow[j] += s * arow[j]
			}
		}
	}
}

// trsmUnb is the unblocked triangular solve (semantics of Trsm): Trsm's path
// for a single right-hand side and the test reference.
func trsmUnb(side Side, trans Transpose, l, b *Matrix) {
	n := l.Rows
	switch {
	case side == Left && trans == NoTrans:
		// Forward substitution over rows; columns are independent.
		for i := 0; i < n; i++ {
			li, bi := l.Row(i), b.Row(i)
			for k := 0; k < i; k++ {
				if f := li[k]; f != 0 {
					for j, v := range b.Row(k) {
						bi[j] -= f * v
					}
				}
			}
			for j := range bi {
				bi[j] /= li[i]
			}
		}
	case side == Left && trans == Trans:
		// Backward substitution with Lᵀ (upper triangular).
		for i := n - 1; i >= 0; i-- {
			bi := b.Row(i)
			for k := i + 1; k < n; k++ {
				if f := l.At(k, i); f != 0 { // Lᵀ[i,k] = L[k,i]
					for j, v := range b.Row(k) {
						bi[j] -= f * v
					}
				}
			}
			for j := range bi {
				bi[j] /= l.At(i, i)
			}
		}
	case side == Right && trans == Trans:
		// x·Lᵀ = b row-wise: x[j] = (b[j] − Σ_{k<j} x[k]·L[j,k]) / L[j,j].
		for i := 0; i < b.Rows; i++ {
			x := b.Row(i)
			for j := 0; j < n; j++ {
				lj := l.Row(j)
				s := x[j]
				for k := 0; k < j; k++ {
					s -= x[k] * lj[k]
				}
				x[j] = s / lj[j]
			}
		}
	default: // Right, NoTrans: x·L = b row-wise, backward over j.
		for i := 0; i < b.Rows; i++ {
			x := b.Row(i)
			for j := n - 1; j >= 0; j-- {
				s := x[j]
				for k := j + 1; k < n; k++ {
					s -= x[k] * l.At(k, j)
				}
				x[j] = s / l.At(j, j)
			}
		}
	}
}

// potf2 is the unblocked lower Cholesky (a pivot ≤ 0 or NaN is
// ErrNotPositiveDefinite): the test reference of the packed Potrf.
func potf2(a *Matrix) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		row := a.Row(j)
		s := row[j]
		for k := 0; k < j; k++ {
			s -= row[k] * row[k]
		}
		if s <= 0 || math.IsNaN(s) {
			return ErrNotPositiveDefinite
		}
		d := math.Sqrt(s)
		row[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			ri := a.Row(i)
			s := ri[j]
			for k := 0; k < j; k++ {
				s -= ri[k] * row[k]
			}
			ri[j] = s * inv
		}
	}
	return nil
}

// trtriUnb inverts a lower-triangular matrix with nonzero diagonal in place,
// column by column: Trtri's leaf and the test reference.
func trtriUnb(l *Matrix) {
	n := l.Rows
	for j := 0; j < n; j++ {
		l.Data[j*l.Stride+j] = 1 / l.Data[j*l.Stride+j]
		for i := j + 1; i < n; i++ {
			ri := l.Row(i)
			var s float64
			for k := j; k < i; k++ {
				s += ri[k] * l.Data[k*l.Stride+j]
			}
			ri[j] = -s / ri[i]
		}
	}
}
