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

// potrfLeaf and trtriLeaf are the orders at and below which the recursive
// Potrf and Trtri run their unblocked leaves (potf2, trtriUnb); above them
// every flop is a Trsm or Syrk through the packed micro-kernel
// (BenchmarkBlock, README.md).
const (
	potrfLeaf = 16
	trtriLeaf = 16
)

// Potrf overwrites the lower triangle of a with its Cholesky factor L such
// that A = L·Lᵀ. The strict upper triangle is left untouched (callers that
// need a clean factor use ZeroUpper). Returns ErrNotPositiveDefinite when a
// pivot is ≤ 0 or NaN. The factorization is recursive: L11 of the leading
// half, L21 = A21·L11⁻ᵀ (Trsm), A22 − L21·L21ᵀ (Syrk), L22 of the trailing
// half; potf2 factors the leaves and is where pivots are checked.
func Potrf(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("dense: potrf of non-square %d×%d matrix", a.Rows, a.Cols)
	}
	return potrfRec(a)
}

func potrfRec(a *Matrix) error {
	n := a.Rows
	if n <= potrfLeaf {
		return potf2(a)
	}
	n1 := recSplit(n)
	a11 := a.View(0, 0, n1, n1)
	if err := potrfRec(a11); err != nil {
		return err
	}
	a21 := a.View(n1, 0, n-n1, n1)
	Trsm(Right, Trans, a11, a21)
	a22 := a.View(n1, n1, n-n1, n-n1)
	Syrk(NoTrans, -1, a21, 1, a22)
	return potrfRec(a22)
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

// Trtri inverts a lower-triangular matrix in place; the strict upper
// triangle is not referenced. It runs on every diagonal block of every
// selected inversion (through PotriInto), so it is recursive like Potrf:
// L21 ← −L22⁻¹·L21·L11⁻¹ by two Trsm calls, then the two diagonal halves;
// trtriUnb inverts the leaves.
func Trtri(l *Matrix) error {
	n := l.Rows
	if n != l.Cols {
		return fmt.Errorf("dense: trtri of non-square %d×%d matrix", n, l.Cols)
	}
	for j := 0; j < n; j++ {
		if l.Data[j*l.Stride+j] == 0 {
			return errors.New("dense: trtri singular diagonal")
		}
	}
	trtriRec(l)
	return nil
}

func trtriRec(l *Matrix) {
	n := l.Rows
	if n <= trtriLeaf {
		trtriUnb(l)
		return
	}
	n1 := recSplit(n)
	l11, l21, l22 := l.View(0, 0, n1, n1), l.View(n1, 0, n-n1, n1), l.View(n1, n1, n-n1, n-n1)
	Trsm(Right, NoTrans, l11, l21)
	Trsm(Left, NoTrans, l22, l21)
	l21.Scale(-1)
	trtriRec(l11)
	trtriRec(l22)
}

// Potri computes the full inverse A⁻¹ (symmetric, both triangles filled)
// from the Cholesky factor L: A⁻¹ = L⁻ᵀ·L⁻¹.
func Potri(l *Matrix) (*Matrix, error) {
	n := l.Rows
	inv := New(n, n)
	if err := PotriInto(inv, New(n, n), l); err != nil {
		return nil, err
	}
	return inv, nil
}

// PotriInto computes A⁻¹ = L⁻ᵀ·L⁻¹ into dst without allocating, using tmp
// as triangular-inverse workspace: on return tmp holds L⁻¹ (lower
// triangular, zero upper), which the selected-inversion sweeps reuse to
// scale their coupling blocks. dst and tmp must both be n×n and distinct
// from each other and from l. This is the hot-path twin of Potri for the
// selected-inversion sweeps that run once per INLA θ-evaluation. The
// product is a Syrk (lower triangle) mirrored to the upper one, so dst is
// exactly symmetric.
func PotriInto(dst, tmp, l *Matrix) error {
	tmp.CopyFrom(l)
	tmp.ZeroUpper()
	if err := Trtri(tmp); err != nil {
		return err
	}
	Syrk(Trans, 1, tmp, 0, dst)
	dst.MirrorLowerToUpper()
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
