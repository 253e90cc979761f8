// Package bta implements structured solvers for symmetric positive definite
// block-tridiagonal (BT) and block-tridiagonal-with-arrowhead (BTA)
// matrices — the Go counterpart of the Serinv library the DALIA paper builds
// on, plus the distributed triangular solve (PPOBTAS) the paper contributes.
//
// A BTA matrix has n diagonal blocks of size b (one per time step of the
// spatio-temporal model, b = n_v·n_s), sub-diagonal coupling blocks between
// consecutive time steps, and an arrowhead row/tip of size a (the fixed
// effects). The three core operations of the INLA methodology — Cholesky
// factorization, triangular solve, selected inversion — are written once,
// as three partition-relative cores (partitionElim, partitionSolve,
// partitionSweep), and run by two solvers:
//
//   - Factor, the sequential chain (POBTAF, POBTAS, POBTASI): the
//     one-partition run of the cores, every block an interior of one
//     one-sided partition and the arrow tip its only boundary;
//   - DistFactor, the one partitioned driver over a time-domain
//     partitioning (PPOBTAF, PPOBTAS, PPOBTASI, the nested-dissection
//     Schur-complement scheme of §IV-C–E): one partition per rank of a comm
//     communicator, exchanging boundary blocks with its peers.
package bta

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// Matrix is a symmetric BTA matrix stored as dense blocks. Only the lower
// triangle is stored: Diag[i] is block (i,i) (full symmetric content),
// Lower[i] is block (i+1,i), Arrow[i] is block (a,i), and Tip is the (a,a)
// corner. A is 0 for plain block-tridiagonal matrices (no arrowhead).
type Matrix struct {
	N int // number of diagonal blocks
	B int // block size
	A int // arrow tip size (0 = BT matrix)

	Diag  []*dense.Matrix // n blocks, b×b
	Lower []*dense.Matrix // n−1 blocks, b×b
	Arrow []*dense.Matrix // n blocks, a×b (empty when A == 0)
	Tip   *dense.Matrix   // a×a (nil when A == 0)
}

// NewMatrix allocates a zeroed BTA matrix with n diagonal blocks of size b
// and arrow size a (a may be 0).
func NewMatrix(n, b, a int) *Matrix {
	if n < 1 || b < 1 || a < 0 {
		panic(fmt.Sprintf("bta: invalid shape n=%d b=%d a=%d", n, b, a))
	}
	m := &Matrix{N: n, B: b, A: a}
	m.Diag = make([]*dense.Matrix, n)
	m.Lower = make([]*dense.Matrix, n-1)
	for i := 0; i < n; i++ {
		m.Diag[i] = dense.New(b, b)
		if i < n-1 {
			m.Lower[i] = dense.New(b, b)
		}
	}
	if a > 0 {
		m.Arrow = make([]*dense.Matrix, n)
		for i := 0; i < n; i++ {
			m.Arrow[i] = dense.New(a, b)
		}
		m.Tip = dense.New(a, a)
	}
	return m
}

// Dim returns the total matrix dimension N = n·b + a.
func (m *Matrix) Dim() int { return m.N*m.B + m.A }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.N, m.B, m.A)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src's blocks into m. Shapes must match. This is the
// workspace-reuse primitive of the allocation-free INLA hot path: the same
// BTA storage is refilled on every θ-evaluation instead of re-allocated.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.N != src.N || m.B != src.B || m.A != src.A {
		panic(fmt.Sprintf("bta: copy BTA(n=%d,b=%d,a=%d) into BTA(n=%d,b=%d,a=%d)",
			src.N, src.B, src.A, m.N, m.B, m.A))
	}
	for i := 0; i < m.N; i++ {
		m.Diag[i].CopyFrom(src.Diag[i])
		if i < m.N-1 {
			m.Lower[i].CopyFrom(src.Lower[i])
		}
		if m.A > 0 {
			m.Arrow[i].CopyFrom(src.Arrow[i])
		}
	}
	if m.A > 0 {
		m.Tip.CopyFrom(src.Tip)
	}
}

// ToDense materializes the full symmetric matrix (tests and small sizes).
func (m *Matrix) ToDense() *dense.Matrix {
	nTot := m.Dim()
	out := dense.New(nTot, nTot)
	for i := 0; i < m.N; i++ {
		setBlock(out, i*m.B, i*m.B, m.Diag[i])
		if i < m.N-1 {
			setBlock(out, (i+1)*m.B, i*m.B, m.Lower[i])
			setBlock(out, i*m.B, (i+1)*m.B, m.Lower[i].T())
		}
		if m.A > 0 {
			setBlock(out, m.N*m.B, i*m.B, m.Arrow[i])
			setBlock(out, i*m.B, m.N*m.B, m.Arrow[i].T())
		}
	}
	if m.A > 0 {
		setBlock(out, m.N*m.B, m.N*m.B, m.Tip)
	}
	// Diagonal blocks may carry asymmetry from assembly roundoff; mirror the
	// lower content like the factorizations do.
	return out
}

func setBlock(dst *dense.Matrix, r, c int, blk *dense.Matrix) {
	dst.View(r, c, blk.Rows, blk.Cols).CopyFrom(blk)
}

// FromDense extracts the BTA blocks of a dense symmetric matrix. Entries
// outside the BTA pattern are ignored (tests only).
func FromDense(d *dense.Matrix, n, b, a int) *Matrix {
	m := NewMatrix(n, b, a)
	for i := 0; i < n; i++ {
		m.Diag[i].CopyFrom(d.View(i*b, i*b, b, b))
		if i < n-1 {
			m.Lower[i].CopyFrom(d.View((i+1)*b, i*b, b, b))
		}
		if a > 0 {
			m.Arrow[i].CopyFrom(d.View(n*b, i*b, a, b))
		}
	}
	if a > 0 {
		m.Tip.CopyFrom(d.View(n*b, n*b, a, a))
	}
	return m
}

// FromCSR extracts the BTA blocks from a sparse matrix whose pattern lies
// within the given BTA structure. Entries outside the pattern cause an
// error — this is the validation path; the hot mapping with cached indices
// lives in the model package.
func FromCSR(s *sparse.CSR, n, b, a int) (*Matrix, error) {
	if s.Rows() != n*b+a || s.Cols() != n*b+a {
		return nil, fmt.Errorf("bta: sparse matrix is %d×%d, BTA(n=%d,b=%d,a=%d) needs %d",
			s.Rows(), s.Cols(), n, b, a, n*b+a)
	}
	m := NewMatrix(n, b, a)
	nb := n * b
	for i := 0; i < s.Rows(); i++ {
		bi := i / b // block row (n for arrow rows)
		if i >= nb {
			bi = n
		}
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			j := s.ColIdx[p]
			v := s.Val[p]
			bj := j / b
			if j >= nb {
				bj = n
			}
			switch {
			case bi == bj && bi < n:
				m.Diag[bi].Set(i-bi*b, j-bj*b, v)
			case bi == bj+1 && bi < n:
				m.Lower[bj].Set(i-bi*b, j-bj*b, v)
			case bj == bi+1 && bj < n:
				// upper triangle: symmetric counterpart of Lower[bi]
				m.Lower[bi].Set(j-bj*b, i-bi*b, v)
			case bi == n && bj < n:
				if a == 0 {
					return nil, fmt.Errorf("bta: arrow entry (%d,%d) with a=0", i, j)
				}
				m.Arrow[bj].Set(i-nb, j-bj*b, v)
			case bj == n && bi < n:
				if a == 0 {
					return nil, fmt.Errorf("bta: arrow entry (%d,%d) with a=0", i, j)
				}
				m.Arrow[bi].Set(j-nb, i-bi*b, v)
			case bi == n && bj == n:
				m.Tip.Set(i-nb, j-nb, v)
			default:
				return nil, fmt.Errorf("bta: entry (%d,%d) outside BTA(n=%d,b=%d,a=%d) pattern", i, j, n, b, a)
			}
		}
	}
	return m, nil
}

// MulVec computes y = M·x using the symmetric block structure.
func (m *Matrix) MulVec(x, y []float64) {
	nTot := m.Dim()
	if len(x) < nTot || len(y) < nTot {
		panic(fmt.Sprintf("bta: mulvec length %d/%d < %d", len(x), len(y), nTot))
	}
	for i := range y[:nTot] {
		y[i] = 0
	}
	b := m.B
	for i := 0; i < m.N; i++ {
		xi := x[i*b : (i+1)*b]
		yi := y[i*b : (i+1)*b]
		dense.Gemv(dense.NoTrans, 1, m.Diag[i], xi, 1, yi)
		if i < m.N-1 {
			// block (i+1,i) and its transpose
			dense.Gemv(dense.NoTrans, 1, m.Lower[i], xi, 1, y[(i+1)*b:(i+2)*b])
			dense.Gemv(dense.Trans, 1, m.Lower[i], x[(i+1)*b:(i+2)*b], 1, yi)
		}
		if m.A > 0 {
			xa := x[m.N*b : m.N*b+m.A]
			ya := y[m.N*b : m.N*b+m.A]
			dense.Gemv(dense.NoTrans, 1, m.Arrow[i], xi, 1, ya)
			dense.Gemv(dense.Trans, 1, m.Arrow[i], xa, 1, yi)
		}
	}
	if m.A > 0 {
		xa := x[m.N*b : m.N*b+m.A]
		ya := y[m.N*b : m.N*b+m.A]
		dense.Gemv(dense.NoTrans, 1, m.Tip, xa, 1, ya)
	}
}

// BytesDense reports the densified block storage footprint in bytes —
// the O(n·b²) memory cost of §IV-C that triggers the S3 memory-cap policy.
func (m *Matrix) BytesDense() int64 { return BytesDense(m.N, m.B, m.A) }

// BytesDense reports the block storage footprint in bytes of an (n, b, a)
// BTA matrix, from its shape alone.
func BytesDense(n, b, a int) int64 {
	per := int64(b) * int64(b) * 8
	total := int64(n)*per + int64(n-1)*per
	if a > 0 {
		total += int64(n)*int64(a)*int64(b)*8 + int64(a)*int64(a)*8
	}
	return total
}
