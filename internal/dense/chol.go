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

// trtriLeaf is the order at and below which the recursive Trtri runs its
// unblocked leaf (trtriUnb); above it every flop is a Trsm through the
// packed micro-kernel (BenchmarkBlock, README.md).
const trtriLeaf = 16

// Potrf overwrites the lower triangle of a with its Cholesky factor L such
// that A = L·Lᵀ. The strict upper triangle is never written, and what it
// holds never reaches the factor (callers that need a clean factor use
// ZeroUpper). Returns
// ErrNotPositiveDefinite when a pivot is ≤ 0 or NaN. Up to order
// trsmPackMax it is one packed left-looking sweep (potrfPacked); above it
// splits like Trsm: L11 of the leading half, L21 = A21·L11⁻ᵀ (Trsm),
// A22 − L21·L21ᵀ (Syrk), L22 of the trailing half.
func Potrf(a *Matrix) error {
	n := a.Rows
	if n != a.Cols {
		return fmt.Errorf("dense: potrf of non-square %d×%d matrix", n, a.Cols)
	}
	if n > trsmPackMax {
		n1 := recSplit(n)
		a11 := a.View(0, 0, n1, n1)
		if err := Potrf(a11); err != nil {
			return err
		}
		a21 := a.View(n1, 0, n-n1, n1)
		Trsm(Right, Trans, a11, a21)
		a22 := a.View(n1, n1, n-n1, n-n1)
		Syrk(NoTrans, -1, a21, 1, a22)
		return Potrf(a22)
	}
	lpP := packBPool.Get().(*[]float64)
	err := potrfPacked(*lpP, a.Data, a.Stride, n)
	packBPool.Put(lpP)
	return err
}

// potrfPacked factors the lower triangle of the n×n (n ≤ trsmPackMax)
// matrix A in place and leaves L in lp in the forward slot layout that
// packTrsmL builds from it, bit for bit, so the solves against L that
// follow need not pack it again (Eliminate).
//
// It is the packed Right/Trans Trsm of trsmJob with a factor that grows as
// it goes. NR rows of A's lower triangle at a time are packed k-major, and
// their MR-wide column tiles are updated from left to right by the
// micro-kernel against the slots already packed. A tile left of the rows'
// diagonal is a plain solve tile. A tile on it first packs its slot's
// coupling from its own rows, already solved; the micro-kernel update then
// leaves the Schur complement of its MR×MR diagonal block, which cholTile
// factors (checking every pivot) and whose inverse completes the slot and
// solves the rows below the block.
func potrfPacked(lp, aData []float64, aStride, n int) error {
	ypP := packAPool.Get().(*[]float64)
	defer packAPool.Put(ypP)
	nt := (n + MR - 1) / MR
	pl := nt * MR * NR
	yp := (*ypP)[:pl]
	tile := (*ypP)[pl : pl+MR*NR]
	var ltt [MR * MR]float64
	for i0 := 0; i0 < n; i0 += NR {
		h := min(NR, n-i0)
		te := (i0 + h + MR - 1) / MR // column tiles that reach these rows
		// Pack yp[p·NR + r] = A[i0+r, p] for p < i0 + NR, zero past row
		// n. Entries above the diagonal only meet the columns of the
		// second diagonal tile's rows above it, which are discarded.
		if h == NR {
			transposeRows8(yp, aData[i0*aStride:], aStride, i0+NR, false)
		} else {
			clear(yp[:te*MR*NR])
			for r := 0; r < h; r++ {
				for p, v := range aData[(i0+r)*aStride : (i0+r)*aStride+i0+r+1] {
					yp[p*NR+r] = v
				}
			}
		}
		for s := 0; s < te; s++ {
			c0 := s * MR
			slot := lp[trsmSlot(s):]
			yt := yp[s*MR*NR : (s+1)*MR*NR]
			if c0 < i0 {
				solveTile(c0, slot, s, yp, yt, tile)
				continue
			}
			off, w := c0-i0, min(MR, n-c0)
			packCoupling(slot[:c0*MR], yp[off:], w)
			ukernel(c0, slot, yp, yt, NR)
			if err := cholTile(&ltt, yt, off, w); err != nil {
				return err
			}
			d := slot[s*MR*MR : (s+1)*MR*MR]
			packInverse(d, true, ltt[:], MR, 0, w)
			*(*[MR * NR]float64)(tile) = *(*[MR * NR]float64)(yt)
			*(*[MR * NR]float64)(yt) = [MR * NR]float64{}
			ukernel(MR, d, tile, yt, NR)
			// The block's own rows take the factor as cholTile computed
			// it. What the tile holds above the diagonal is never
			// unpacked and only meets discarded columns.
			for j := 0; j < MR; j++ {
				for r := j; r < MR; r++ {
					yt[j*NR+off+r] = ltt[r*MR+j]
				}
			}
		}
		// Unpack the rows' lower triangle.
		lo := 0
		if h == NR {
			transposeRows8(yp, aData[i0*aStride:], aStride, i0, true)
			lo = i0
		}
		for r := 0; r < h; r++ {
			row := aData[(i0+r)*aStride+lo : (i0+r)*aStride+i0+r+1]
			for q := range row {
				row[q] = yp[(lo+q)*NR+r]
			}
		}
	}
	return nil
}

// packCoupling writes the k-major coupling of a potrfPacked diagonal tile,
// d[p·MR + j] = −y[p·NR + j] for the tile's w rows (zero for j ≥ w), where
// y starts at the tile's first row in the packed rows.
func packCoupling(d, y []float64, w int) {
	if w < MR {
		for p := range len(d) / MR {
			dp := (*[MR]float64)(d[p*MR:])
			*dp = [MR]float64{}
			for j, v := range y[p*NR : p*NR+w] {
				dp[j] = -v
			}
		}
		return
	}
	// Four k steps per iteration (len(d) is a multiple of MR·MR, and y
	// runs at least an MR×NR tile past the coupling).
	for ; len(d) >= MR*MR; d, y = d[MR*MR:], y[MR*NR:] {
		dp, yr := (*[MR * MR]float64)(d), (*[3*NR + MR]float64)(y)
		dp[0], dp[1], dp[2], dp[3] = -yr[0], -yr[1], -yr[2], -yr[3]
		dp[4], dp[5], dp[6], dp[7] = -yr[8], -yr[9], -yr[10], -yr[11]
		dp[8], dp[9], dp[10], dp[11] = -yr[16], -yr[17], -yr[18], -yr[19]
		dp[12], dp[13], dp[14], dp[15] = -yr[24], -yr[25], -yr[26], -yr[27]
	}
}

// cholTile factors the w×w diagonal block S of a potrfPacked tile into ltt
// (row-major MR×MR, zero outside its lower triangle). The tile holds S
// transposed from column off on, t[j·NR + off + i] = S[i, j], and only its
// lower triangle i ≥ j is read. A pivot ≤ 0 or NaN is
// ErrNotPositiveDefinite.
func cholTile(ltt *[MR * MR]float64, t []float64, off, w int) error {
	*ltt = [MR * MR]float64{}
	for j := 0; j < w; j++ {
		s := t[j*NR+off+j]
		for k := 0; k < j; k++ {
			s -= ltt[j*MR+k] * ltt[j*MR+k]
		}
		if !(s > 0) {
			return ErrNotPositiveDefinite
		}
		d := math.Sqrt(s)
		ltt[j*MR+j] = d
		inv := 1 / d
		for i := j + 1; i < w; i++ {
			s := t[j*NR+off+i]
			for k := 0; k < j; k++ {
				s -= ltt[i*MR+k] * ltt[j*MR+k]
			}
			ltt[i*MR+j] = s * inv
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

// Trtri inverts a lower-triangular matrix in place; the strict upper
// triangle is not referenced. It is recursive like Potrf: L21 ←
// −L22⁻¹·L21·L11⁻¹ by two Trsm calls, then the two diagonal halves;
// trtriUnb inverts the leaves. The selected inversion does not use it:
// Invert solves for L⁻¹ against its packed factor.
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
// triangular, zero upper). dst and tmp must both be n×n and distinct from
// each other and from l. It is Potri's route (Trtri, then a full Syrk over
// the triangular L⁻¹, mirrored, so dst is exactly symmetric). The selected
// inversion forms the same inverse inside Invert instead, from a packed
// solve of L⁻¹ and a product over its lower triangle only, without tmp.
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
