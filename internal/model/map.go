package model

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// BTAMap is the cached sparse→block-dense mapping of §IV-F: for every
// stored entry of Q_c's process-major CSR pattern, the destination (block,
// offset) in the permuted BTA layout, laid out by New in the same pass as
// the assembly tables. Applying the map is O(nnz) — the paper's
// replacement for the O(n·b²) naive densification. The assembly does not
// write through it (assemble.go fills whole blocks); QcFromCSR scatters a
// CSR's values through it, and QcCSR / QpCSR read an assembled matrix back
// through it.
type BTAMap struct {
	N, B, A  int
	nnz      int
	blockIdx []int32 // unified block index: [0,n) Diag, [n,2n−1) Lower, [2n−1,3n−1) Arrow, 3n−1 Tip
	off      []int32
}

// btaDest computes the unified block index and intra-block offset of the
// permuted coordinate (r,c).
func btaDest(r, c, n, b, a int) (int, int, error) {
	nb := n * b
	switch {
	case r < nb && c < nb:
		bi, bj := r/b, c/b
		ri, cj := r%b, c%b
		switch {
		case bi == bj:
			return bi, ri*b + cj, nil
		case bi == bj+1:
			return n + bj, ri*b + cj, nil
		case bj == bi+1:
			return n + bi, cj*b + ri, nil // symmetric entry stored transposed
		default:
			return 0, 0, fmt.Errorf("model: entry (%d,%d) outside BTA pattern", r, c)
		}
	case r >= nb && c < nb:
		if a == 0 {
			return 0, 0, fmt.Errorf("model: arrow entry (%d,%d) with a=0", r, c)
		}
		return 2*n - 1 + c/b, (r-nb)*b + c%b, nil
	case c >= nb && r < nb:
		if a == 0 {
			return 0, 0, fmt.Errorf("model: arrow entry (%d,%d) with a=0", r, c)
		}
		return 2*n - 1 + r/b, (c-nb)*b + r%b, nil
	default:
		return 3*n - 1, (r-nb)*a + (c - nb), nil
	}
}

// Apply scatters the CSR value array (in the pattern's canonical order)
// into a fresh BTA matrix.
func (m *BTAMap) Apply(vals []float64) (*bta.Matrix, error) {
	out := bta.NewMatrix(m.N, m.B, m.A)
	if err := m.ApplyInto(vals, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyInto scatters the CSR value array into an existing BTA workspace of
// the mapping's shape without allocating. Positions outside the pattern
// keep whatever values out held.
func (m *BTAMap) ApplyInto(vals []float64, out *bta.Matrix) error {
	if len(vals) != m.nnz {
		return fmt.Errorf("model: value array length %d, mapping built for %d", len(vals), m.nnz)
	}
	if out.N != m.N || out.B != m.B || out.A != m.A {
		return fmt.Errorf("model: workspace BTA(n=%d,b=%d,a=%d), mapping built for (n=%d,b=%d,a=%d)",
			out.N, out.B, out.A, m.N, m.B, m.A)
	}
	for p, v := range vals {
		m.block(out, p).Data[m.off[p]] = v
	}
	return nil
}

// values reads every stored entry of the pattern out of a BTA matrix of the
// mapping's shape, in CSR order: an entry stored transposed reads its
// mirror.
func (m *BTAMap) values(in *bta.Matrix) []float64 {
	vals := make([]float64, m.nnz)
	for p := range vals {
		vals[p] = m.block(in, p).Data[m.off[p]]
	}
	return vals
}

// block resolves entry p's unified block index in q.
func (m *BTAMap) block(q *bta.Matrix, p int) *dense.Matrix {
	n, idx := int32(m.N), m.blockIdx[p]
	switch {
	case idx < n:
		return q.Diag[idx]
	case idx < 2*n-1:
		return q.Lower[idx-n]
	case idx < 3*n-1:
		return q.Arrow[idx-(2*n-1)]
	}
	return q.Tip
}

// QcFromCSR maps any process-major CSR with the model's Q_c pattern (QcCSR,
// PoissonMode.QcCSR) into BTA form through the cached mapping.
func (m *Model) QcFromCSR(csr *sparse.CSR) (*bta.Matrix, error) {
	out := bta.NewMatrix(m.qcMap.N, m.qcMap.B, m.qcMap.A)
	if err := m.QcFromCSRInto(csr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// QcFromCSRInto is QcFromCSR into an existing workspace.
func (m *Model) QcFromCSRInto(csr *sparse.CSR, out *bta.Matrix) error {
	if csr.NNZ() != m.qcMap.nnz {
		return fmt.Errorf("model: Q_c pattern drifted (%d vs %d nonzeros)", csr.NNZ(), m.qcMap.nnz)
	}
	return m.qcMap.ApplyInto(csr.Val, out)
}
