package dense

import (
	"fmt"
	"math"
	"sync"
)

// Transpose flags for Gemm/Syrk.
type Transpose bool

const (
	NoTrans Transpose = false
	Trans   Transpose = true
)

// Side selects the triangular operand's side in Trsm.
type Side int

const (
	Left Side = iota
	Right
)

// packFlops is the dispatch threshold, in multiply-adds, between the naive
// small-size loops (ref.go) and the packed micro-kernel engine for Gemm and
// Syrk: below ~8³ the O(m·k + k·n) packing traffic is not amortized
// (measurements in README.md: the packed Gemm wins from n ≈ 7, at n = 16
// by 4×; the packed Syrk from n = 8).
const packFlops = 8 * 8 * 8

// opShape returns the rows/cols of op(M).
func opShape(t Transpose, m *Matrix) (int, int) {
	if t == Trans {
		return m.Cols, m.Rows
	}
	return m.Rows, m.Cols
}

// checkGemmShapes panics unless op(A)·op(B) conforms with C.
func checkGemmShapes(transA, transB Transpose, a, b, c *Matrix) {
	am, ak := opShape(transA, a)
	bk, bn := opShape(transB, b)
	if ak != bk || c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("dense: gemm shape mismatch op(A)=%d×%d op(B)=%d×%d C=%d×%d",
			am, ak, bk, bn, c.Rows, c.Cols))
	}
}

// applyBeta scales C by beta (with the beta == 0 fast path clearing C, so
// NaN/Inf garbage in uninitialized output buffers never propagates).
func applyBeta(beta float64, c *Matrix) {
	if beta == 1 {
		return
	}
	if beta == 0 {
		c.Zero()
		return
	}
	c.Scale(beta)
}

// Gemm computes C = alpha*op(A)*op(B) + beta*C, where op is identity or
// transpose per the flags. Shapes must conform; C must not alias A or B.
// Large products run on the packed register-tiled micro-kernel engine
// (kernel.go/pack.go), parallelized over macro-tiles of C; small ones use
// the retained naive loops (ref.go), whose packing overhead would dominate.
func Gemm(transA, transB Transpose, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	checkGemmShapes(transA, transB, a, b, c)
	am, ak := opShape(transA, a)
	_, bn := opShape(transB, b)
	applyBeta(beta, c)
	if alpha == 0 || am == 0 || bn == 0 || ak == 0 {
		return
	}
	if am*bn*ak >= packFlops {
		gemmPacked(transA, transB, alpha, a, b, c, false)
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

// MatMul returns op(A)*op(B) as a fresh matrix (convenience for tests and
// non-hot paths).
func MatMul(transA, transB Transpose, a, b *Matrix) *Matrix {
	am, _ := opShape(transA, a)
	_, bn := opShape(transB, b)
	c := New(am, bn)
	Gemm(transA, transB, 1, a, b, 0, c)
	return c
}

// Syrk computes the lower triangle of C = alpha*op(A)*op(A)ᵀ + beta*C.
// With trans == NoTrans, op(A) = A (C is a.Rows×a.Rows); with Trans,
// op(A) = Aᵀ (C is a.Cols×a.Cols). Only the lower triangle of C is
// referenced and written. The product is one packed micro-kernel sweep
// over the register tiles on and below the diagonal of C (tiles the
// diagonal crosses accumulate only their lower entries; tiles above it are
// never run), parallel over macro-tiles of rows like Gemm.
func Syrk(trans Transpose, alpha float64, a *Matrix, beta float64, c *Matrix) {
	n, k := opShape(trans, a)
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("dense: syrk shape mismatch C=%d×%d want %d×%d", c.Rows, c.Cols, n, n))
	}
	if beta != 1 {
		for i := 0; i < n; i++ {
			row := c.Row(i)
			for j := 0; j <= i; j++ {
				if beta == 0 {
					row[j] = 0
				} else {
					row[j] *= beta
				}
			}
		}
	}
	if alpha == 0 || n == 0 || k == 0 {
		return
	}
	if n*n*k < packFlops {
		syrkRef(trans, alpha, a, c)
		return
	}
	if trans == NoTrans {
		gemmPacked(NoTrans, Trans, alpha, a, a, c, true)
	} else {
		gemmPacked(Trans, NoTrans, alpha, a, a, c, true)
	}
}

// Gemv computes y = alpha*op(A)*x + beta*y.
func Gemv(trans Transpose, alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	m, n := a.Rows, a.Cols
	if trans == Trans {
		m, n = n, m
	}
	if len(x) < n || len(y) < m {
		panic(fmt.Sprintf("dense: gemv shape mismatch A=%d×%d len(x)=%d len(y)=%d trans=%v",
			a.Rows, a.Cols, len(x), len(y), trans))
	}
	if beta != 1 {
		for i := 0; i < m; i++ {
			y[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	if trans == NoTrans {
		j := gemvJob{alpha, a.Data, a.Stride, a.Cols, x, y}
		if MaxWorkers() <= 1 || m < parallelRows {
			j.run(0, m)
			return
		}
		fanOut(&gemvJobs, m, parallelRows, j)
		return
	}
	for k := 0; k < a.Rows; k++ {
		f := alpha * x[k]
		if f == 0 {
			continue
		}
		row := a.Row(k)
		for j, v := range row {
			y[j] += f * v
		}
	}
}

// gemvJob accumulates y[i] += alpha·(A row i · x) over a range of rows.
type gemvJob struct {
	alpha          float64
	aData          []float64
	aStride, aCols int
	x, y           []float64
}

var gemvJobs = sync.Pool{New: func() any { return new(gemvJob) }}

func (j *gemvJob) run(lo, hi int) {
	aData, aStride, aCols, x, y := j.aData, j.aStride, j.aCols, j.x, j.y
	for i := lo; i < hi; i++ {
		row := aData[i*aStride : i*aStride+aCols]
		var s float64
		for k, v := range row {
			s += v * x[k]
		}
		y[i] += j.alpha * s
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("dense: dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("dense: axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
