// Package dense provides the dense linear-algebra kernels that back the
// block-structured solvers in this repository. It plays the role that
// cuBLAS/cuSOLVER play in the DALIA paper: all block operations of the
// BTA (block-tridiagonal-with-arrowhead) factorization, triangular solve
// and selected inversion reduce to the Level-3 kernels implemented here
// (GEMM, SYRK, TRSM) plus a packed Cholesky (POTRF) and a recursive
// triangular inverse (TRTRI), all running on one packed register-tile
// micro-kernel. Eliminate fuses one block elimination step of the BTA
// factorization so that each of its operands is packed once.
//
// Matrices are stored row-major with an explicit stride, so cheap
// rectangular views into larger buffers are possible without copying.
// Kernels are cache-blocked and, above a size threshold, split across
// goroutines (see parallel.go).
package dense

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix view. Element (i,j) lives at
// Data[i*Stride+j]. A Matrix may be a view into a larger buffer; Copy and
// Clone produce compact (Stride==Cols) matrices.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// New returns a zeroed r×c matrix with compact storage.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// NewFromData wraps an existing slice as an r×c matrix without copying.
// len(data) must be at least r*c.
func NewFromData(r, c int, data []float64) *Matrix {
	if len(data) < r*c {
		panic(fmt.Sprintf("dense: data length %d < %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] = 1
	}
	return m
}

// At returns element (i,j). Bounds are checked by the underlying slice
// access only in debug builds of the caller; indices are trusted here for
// speed on hot paths — use AtChecked in user-facing code.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set stores v at (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// AtChecked returns element (i,j) with explicit bounds validation.
func (m *Matrix) AtChecked(i, j int) (float64, error) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		return 0, fmt.Errorf("dense: index (%d,%d) out of range %d×%d", i, j, m.Rows, m.Cols)
	}
	return m.At(i, j), nil
}

// View returns an r×c view starting at (i,j) sharing storage with m.
// View is kept small enough to inline so that short-lived views inside the
// recursive kernels (the Potrf, Trtri and Trsm halves) stay on the caller's
// stack.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		// Constant-string panic keeps View within the inlining budget
		// (fmt.Sprintf here would push it over and force every view of the
		// recursive kernels onto the heap).
		panic("dense: view out of range")
	}
	return &Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i*m.Stride+j:]}
}

// Row returns row i as a slice view of length Cols.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// Clone returns a compact deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into m. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: copy %d×%d into %d×%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Scale multiplies every element by alpha.
func (m *Matrix) Scale(alpha float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= alpha
		}
	}
}

// Add accumulates alpha*src into m (m += alpha*src).
func (m *Matrix) Add(alpha float64, src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: add %d×%d to %d×%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		dst, s := m.Row(i), src.Row(i)
		for j, v := range s {
			dst[j] += alpha * v
		}
	}
}

// T returns a compact transposed copy of m.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	m.TransposeInto(out)
	return out
}

// TransposeInto writes mᵀ into dst (allocation-free transpose for reused
// workspaces). dst must be Cols×Rows and must not alias m.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("dense: transpose %d×%d into %d×%d", m.Rows, m.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Stride+i] = v
		}
	}
}

// Symmetrize overwrites m with (m+mᵀ)/2. m must be square.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("dense: symmetrize of non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// MirrorLowerToUpper copies the strict lower triangle onto the upper one,
// producing a full symmetric matrix from factor-style lower storage. The
// 4×4 tiles wholly below the diagonal move as tiles, four consecutive
// entries of an upper row per write; the diagonal tiles and a ragged last
// row band move entry by entry.
func (m *Matrix) MirrorLowerToUpper() {
	n, s, d := m.Rows, m.Stride, m.Data
	if n != m.Cols {
		panic("dense: mirror of non-square matrix")
	}
	for i0 := 0; i0 < n; i0 += 4 {
		from := 0 // the first column of rows i0… that moves entry by entry
		for ; i0+4 <= n && from < i0; from += 4 {
			r0, r1 := (*[4]float64)(d[i0*s+from:]), (*[4]float64)(d[(i0+1)*s+from:])
			r2, r3 := (*[4]float64)(d[(i0+2)*s+from:]), (*[4]float64)(d[(i0+3)*s+from:])
			*(*[4]float64)(d[from*s+i0:]) = [4]float64{r0[0], r1[0], r2[0], r3[0]}
			*(*[4]float64)(d[(from+1)*s+i0:]) = [4]float64{r0[1], r1[1], r2[1], r3[1]}
			*(*[4]float64)(d[(from+2)*s+i0:]) = [4]float64{r0[2], r1[2], r2[2], r3[2]}
			*(*[4]float64)(d[(from+3)*s+i0:]) = [4]float64{r0[3], r1[3], r2[3], r3[3]}
		}
		for i := i0; i < min(i0+4, n); i++ {
			for j := from; j < i; j++ {
				d[j*s+i] = d[i*s+j]
			}
		}
	}
}

// ZeroUpper clears the strict upper triangle (canonicalizing a lower factor).
func (m *Matrix) ZeroUpper() {
	for i := 0; i < m.Rows; i++ {
		if row := m.Row(i); i+1 < len(row) {
			clear(row[i+1:])
		}
	}
}

// MaxAbs returns max|m_ij|.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
	}
	return mx
}

// FrobNorm returns the Frobenius norm of m.
func (m *Matrix) FrobNorm() float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Equal reports whether m and b agree element-wise within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		ra, rb := m.Row(i), b.Row(i)
		for j := range ra {
			if math.Abs(ra[j]-rb[j]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large ones are abbreviated.
func (m *Matrix) String() string {
	if m.Rows > 12 || m.Cols > 12 {
		return fmt.Sprintf("dense.Matrix{%d×%d}", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% 10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// Diag returns a copy of the main diagonal.
func (m *Matrix) Diag() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = m.At(i, i)
	}
	return d
}

// AddDiag adds v to every element of the main diagonal.
func (m *Matrix) AddDiag(v float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] += v
	}
}

// Trace returns the sum of the diagonal. m must be square.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("dense: trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}
