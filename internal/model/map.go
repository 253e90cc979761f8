package model

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// BTAMap is the cached sparse→block-dense mapping of §IV-F: for every
// stored entry of a process-major CSR matrix with a θ-invariant pattern, it
// precomputes the destination (block, offset) in the permuted BTA layout.
// Applying the map is O(nnz) — the paper's replacement for the O(n·b²)
// naive densification. The numeric-only assembly (assemble.go) writes
// through the same destinations; ApplyInto itself serves callers that hold
// Q_c's values as a CSR (QcFromCSR).
type BTAMap struct {
	N, B, A  int
	nnz      int
	blockIdx []int32
	off      []int32
}

// newBTAMap builds the mapping for a process-major pattern under the given
// permutation (perm[new] = old).
func newBTAMap(pattern *sparse.CSR, permInv []int, n, b, a int) (*BTAMap, error) {
	nb := n * b
	dim := nb + a
	if pattern.Rows() != dim || pattern.Cols() != dim {
		return nil, fmt.Errorf("model: pattern is %d×%d, BTA(n=%d,b=%d,a=%d) needs %d",
			pattern.Rows(), pattern.Cols(), n, b, a, dim)
	}
	m := &BTAMap{N: n, B: b, A: a, nnz: len(pattern.ColIdx)}
	m.blockIdx = make([]int32, m.nnz)
	m.off = make([]int32, m.nnz)
	// Unified block index space: [0,n) Diag, [n,2n−1) Lower, [2n−1,3n−1)
	// Arrow, 3n−1 Tip.
	p := 0
	for r := 0; r < pattern.Rows(); r++ {
		rp := permInv[r]
		for q := pattern.RowPtr[r]; q < pattern.RowPtr[r+1]; q++ {
			cp := permInv[pattern.ColIdx[q]]
			blk, off, err := btaDest(rp, cp, n, b, a)
			if err != nil {
				return nil, err
			}
			m.blockIdx[p] = int32(blk)
			m.off[p] = int32(off)
			p++
		}
	}
	return m, nil
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
// the mapping's shape without allocating — the hot-path variant used by the
// INLA scratch arena. Entries outside the pattern keep whatever values the
// previous scatter left, which is correct because the pattern is
// θ-invariant: every stored position is rewritten on every call.
func (m *BTAMap) ApplyInto(vals []float64, out *bta.Matrix) error {
	if len(vals) != m.nnz {
		return fmt.Errorf("model: value array length %d, mapping built for %d", len(vals), m.nnz)
	}
	if out.N != m.N || out.B != m.B || out.A != m.A {
		return fmt.Errorf("model: workspace BTA(n=%d,b=%d,a=%d), mapping built for (n=%d,b=%d,a=%d)",
			out.N, out.B, out.A, m.N, m.B, m.A)
	}
	// Resolve the unified block index space without materializing a block
	// slice per call: [0,n) Diag, [n,2n−1) Lower, [2n−1,3n−1) Arrow, 3n−1 Tip.
	n := int32(m.N)
	for p, v := range vals {
		idx := m.blockIdx[p]
		var blk *dense.Matrix
		switch {
		case idx < n:
			blk = out.Diag[idx]
		case idx < 2*n-1:
			blk = out.Lower[idx-n]
		case idx < 3*n-1:
			blk = out.Arrow[idx-(2*n-1)]
		default:
			blk = out.Tip
		}
		blk.Data[m.off[p]] = v
	}
	return nil
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
