package dense

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization meets a
// non-positive pivot. In the INLA loop this signals an infeasible
// hyperparameter configuration; callers back off rather than abort.
var ErrNotPositiveDefinite = errors.New("dense: matrix is not positive definite")

// potrfBlock is the panel width of the blocked Cholesky. 64 balances
// level-3 content against cache residency for float64 on commodity CPUs.
const potrfBlock = 64

// Potrf overwrites the lower triangle of a with its Cholesky factor L such
// that A = L·Lᵀ. The strict upper triangle is left untouched (callers that
// need a clean factor use ZeroUpper). Returns ErrNotPositiveDefinite when a
// pivot is ≤ 0 or NaN.
func Potrf(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("dense: potrf of non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	for j := 0; j < n; j += potrfBlock {
		bw := potrfBlock
		if j+bw > n {
			bw = n - j
		}
		d := a.View(j, j, bw, bw)
		if j > 0 {
			// Trailing update of the panel from already-factored columns:
			// D ← D − P·Pᵀ, R ← R − Q·Pᵀ.
			p := a.View(j, 0, bw, j)
			Syrk(NoTrans, -1, p, 1, d)
			if rem := n - j - bw; rem > 0 {
				q := a.View(j+bw, 0, rem, j)
				r := a.View(j+bw, j, rem, bw)
				Gemm(NoTrans, Trans, -1, q, p, 1, r)
			}
		}
		if err := potf2(d); err != nil {
			return err
		}
		if rem := n - j - bw; rem > 0 {
			r := a.View(j+bw, j, rem, bw)
			Trsm(Right, Trans, d, r)
		}
	}
	return nil
}

// potf2 is the unblocked lower Cholesky used on diagonal panels.
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

// Chol computes and returns the Cholesky factor of a as a fresh matrix with
// a zeroed upper triangle, leaving a untouched.
func Chol(a *Matrix) (*Matrix, error) {
	l := a.Clone()
	if err := Potrf(l); err != nil {
		return nil, err
	}
	l.ZeroUpper()
	return l, nil
}

// Potrs solves A·X = B in place of B given the Cholesky factor L of A
// (forward then backward substitution).
func Potrs(l, b *Matrix) {
	Trsm(Left, NoTrans, l, b)
	Trsm(Left, Trans, l, b)
}

// PotrsVec solves A·x = b in place of b given the Cholesky factor L of A.
func PotrsVec(l *Matrix, b []float64) {
	bm := &Matrix{Rows: len(b), Cols: 1, Stride: 1, Data: b}
	Potrs(l, bm)
}

// LogDetFromChol returns log|A| = 2·Σ log L_ii given the Cholesky factor L.
func LogDetFromChol(l *Matrix) float64 {
	var s float64
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.Data[i*l.Stride+i])
	}
	return 2 * s
}

// Trtri inverts a lower-triangular matrix in place (unblocked; used on the
// small reduced systems and arrow tips only).
func Trtri(l *Matrix) error {
	n := l.Rows
	if n != l.Cols {
		return fmt.Errorf("dense: trtri of non-square %d×%d matrix", n, l.Cols)
	}
	for j := 0; j < n; j++ {
		d := l.Data[j*l.Stride+j]
		if d == 0 {
			return errors.New("dense: trtri singular diagonal")
		}
		l.Data[j*l.Stride+j] = 1 / d
		for i := j + 1; i < n; i++ {
			ri := l.Row(i)
			var s float64
			for k := j; k < i; k++ {
				s += ri[k] * l.Data[k*l.Stride+j]
			}
			ri[j] = -s / ri[i]
		}
	}
	return nil
}

// Potri computes the full inverse A⁻¹ (symmetric, both triangles filled)
// from the Cholesky factor L: A⁻¹ = L⁻ᵀ·L⁻¹.
func Potri(l *Matrix) (*Matrix, error) {
	li := l.Clone()
	li.ZeroUpper()
	if err := Trtri(li); err != nil {
		return nil, err
	}
	n := l.Rows
	inv := New(n, n)
	Gemm(Trans, NoTrans, 1, li, li, 0, inv)
	inv.Symmetrize()
	return inv, nil
}

// PotriInto computes A⁻¹ = L⁻ᵀ·L⁻¹ into dst without allocating, using tmp
// as triangular-inverse workspace: on return tmp holds L⁻¹ (lower
// triangular, zero upper), which the selected-inversion sweeps reuse to
// scale their coupling blocks. dst and tmp must both be n×n and distinct
// from each other and from l. This is the hot-path twin of Potri for the
// selected-inversion sweeps that run once per INLA θ-evaluation.
func PotriInto(dst, tmp, l *Matrix) error {
	tmp.CopyFrom(l)
	tmp.ZeroUpper()
	if err := Trtri(tmp); err != nil {
		return err
	}
	Gemm(Trans, NoTrans, 1, tmp, tmp, 0, dst)
	dst.Symmetrize()
	return nil
}

// Inverse returns A⁻¹ of a symmetric positive definite matrix.
func Inverse(a *Matrix) (*Matrix, error) {
	l, err := Chol(a)
	if err != nil {
		return nil, err
	}
	return Potri(l)
}

// Solve solves A·x = b for SPD A, returning a fresh solution vector.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	l, err := Chol(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	copy(x, b)
	PotrsVec(l, x)
	return x, nil
}
