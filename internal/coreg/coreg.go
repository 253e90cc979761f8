// Package coreg implements the linear model of coregionalization (LMC) that
// couples the n_v univariate spatio-temporal processes into one multivariate
// Gaussian process (§II-B, §IV-B of the paper).
//
// The coregionalization matrix Λ = P·diag(σ) (P unit lower triangular,
// built from the coupling parameters λ) relates observations to the
// independent unit-variance latent processes: y = Λ·A·x + ε. The joint
// precision of the multivariate latent field is
//
//	Q_nv = (Λ⁻¹)ᵀ · blockdiag(Q₁ … Q_nv) · Λ⁻¹,
//
// whose block (i,j) is Σ_k M[k,i]·M[k,j]·Q_k with M = Λ_c⁻¹ — exactly
// Eq. 11 for n_v = 3. Construction order is process-major; the cached
// time-major permutation (§IV-B1) restores the BT/BTA sparsity pattern with
// enlarged diagonal blocks b = n_v·n_s and all fixed effects in the arrow
// tip (Fig. 2c).
package coreg

import (
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// Lambda is the coregionalization matrix Λ in factored form.
type Lambda struct {
	Nv     int
	Sigmas []float64 // per-process scales σ_i > 0
	// P is the unit lower triangular coupling matrix; P = Π of elementary
	// couplings as in the paper's trivariate convention.
	P *dense.Matrix

	// cached at construction
	coreg *dense.Matrix // Λ_c = P·diag(σ)
	minv  *dense.Matrix // M = Λ_c⁻¹
}

// NumLambdas returns the number of coupling parameters for nv processes.
func NumLambdas(nv int) int { return nv * (nv - 1) / 2 }

// NewLambda builds Λ from scales and coupling parameters. lambdas are
// ordered chain-first: (2,1), (3,2), …, (nv,nv−1), then the longer-range
// couplings (3,1), (4,2), …, band by band. For nv = 3 this reproduces the
// paper's Eq. 5:
//
//	Λ = [[σ₁, 0, 0], [λ₁σ₁, σ₂, 0], [(λ₃+λ₁λ₂)σ₁, λ₂σ₂, σ₃]].
func NewLambda(sigmas, lambdas []float64) (*Lambda, error) {
	nv := len(sigmas)
	if nv < 1 {
		return nil, fmt.Errorf("coreg: need at least one process")
	}
	for i, s := range sigmas {
		if s <= 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("coreg: sigma[%d] = %v must be positive", i, s)
		}
	}
	if len(lambdas) != NumLambdas(nv) {
		return nil, fmt.Errorf("coreg: got %d lambdas, want %d for nv=%d", len(lambdas), NumLambdas(nv), nv)
	}
	p := dense.Eye(nv)
	// Apply elementary couplings right-to-left: long-range bands first,
	// then the chain in increasing row order. Left-multiplying by
	// (I + λ·E_{i,j}) adds λ·row_j to row_i.
	idx := nv - 1
	for band := 2; band < nv; band++ {
		for i := band; i < nv; i++ {
			j := i - band
			applyElementary(p, i, j, lambdas[idx])
			idx++
		}
	}
	for i := 1; i < nv; i++ {
		applyElementary(p, i, i-1, lambdas[i-1])
	}
	l := &Lambda{Nv: nv, Sigmas: append([]float64(nil), sigmas...), P: p}
	lc := p.Clone()
	for i := 0; i < nv; i++ {
		row := lc.Row(i)
		for j := range row {
			row[j] *= l.Sigmas[j]
		}
	}
	l.coreg = lc
	l.minv = lc.Clone()
	if err := dense.Trtri(l.minv); err != nil {
		return nil, fmt.Errorf("coreg: inverting Λ_c: %w", err)
	}
	return l, nil
}

// CoregDerivInto writes ∂Λ_c/∂λ_q into dst (nv×nv) at the given scales
// and coupling parameters (ordered as NewLambda's). P is a product of
// elementary factors I + λ·E_ij, each λ in exactly one of them, so ∂P/∂λ_q
// is the same product with factor q replaced by E_ij, and
// ∂Λ_c = ∂P·diag(σ). Allocation-free.
func CoregDerivInto(sigmas, lambdas []float64, q int, dst *dense.Matrix) {
	nv := len(sigmas)
	dst.Zero()
	for i := 0; i < nv; i++ {
		dst.Set(i, i, 1)
	}
	apply := func(k, i, j int) {
		if k != q {
			applyElementary(dst, i, j, lambdas[k])
			return
		}
		// E_ij·X: row i becomes row j of X, every other row zero.
		copy(dst.Row(i), dst.Row(j))
		for r := 0; r < nv; r++ {
			if r != i {
				clear(dst.Row(r))
			}
		}
	}
	idx := nv - 1
	for band := 2; band < nv; band++ {
		for i := band; i < nv; i++ {
			apply(idx, i, i-band)
			idx++
		}
	}
	for i := 1; i < nv; i++ {
		apply(i-1, i, i-1)
	}
	for i := 0; i < nv; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] *= sigmas[j]
		}
	}
}

func applyElementary(p *dense.Matrix, i, j int, lam float64) {
	ri, rj := p.Row(i), p.Row(j)
	for c := range ri {
		ri[c] += lam * rj[c]
	}
}

// Coreg returns the dense n_v×n_v coregionalization matrix Λ_c = P·diag(σ)
// as a fresh copy the caller may modify.
func (l *Lambda) Coreg() *dense.Matrix {
	return l.coreg.Clone()
}

// CoregView returns the cached Λ_c without copying — the allocation-free
// accessor for hot paths. The returned matrix is shared and must be
// treated as read-only.
func (l *Lambda) CoregView() *dense.Matrix { return l.coreg }

// MInv returns M = Λ_c⁻¹ (lower triangular) as a fresh copy the caller may
// modify.
func (l *Lambda) MInv() *dense.Matrix { return l.minv.Clone() }

// MInvView returns the cached M without copying; like CoregView it is
// shared and read-only. The prior's quadratic form reads it at every
// objective evaluation.
func (l *Lambda) MInvView() *dense.Matrix { return l.minv }

// ImpliedCovariance returns Λ_c·Λ_cᵀ — the cross-process covariance implied
// for unit-variance latent processes (used for the §VI correlation report).
func (l *Lambda) ImpliedCovariance() *dense.Matrix {
	c := l.Coreg()
	return dense.MatMul(dense.NoTrans, dense.Trans, c, c)
}

// ImpliedCorrelation converts ImpliedCovariance to correlations.
func (l *Lambda) ImpliedCorrelation() *dense.Matrix {
	cv := l.ImpliedCovariance()
	out := dense.New(l.Nv, l.Nv)
	for i := 0; i < l.Nv; i++ {
		for j := 0; j < l.Nv; j++ {
			out.Set(i, j, cv.At(i, j)/math.Sqrt(cv.At(i, i)*cv.At(j, j)))
		}
	}
	return out
}

// JointPrecision assembles Q_nv from the per-process precision matrices
// (which must share dimensions; identical sparsity patterns are exploited
// when present but not required). Ordering is process-major: process i
// occupies rows [i·n, (i+1)·n).
func (l *Lambda) JointPrecision(qs []*sparse.CSR) (*sparse.CSR, error) {
	if len(qs) != l.Nv {
		return nil, fmt.Errorf("coreg: got %d process precisions, want %d", len(qs), l.Nv)
	}
	n := qs[0].Rows()
	for i, q := range qs {
		if q.Rows() != n || q.Cols() != n {
			return nil, fmt.Errorf("coreg: process %d precision is %d×%d, want %d×%d", i, q.Rows(), q.Cols(), n, n)
		}
	}
	m := l.minv
	// Block (i,j) = Σ_k M[k,i]·M[k,j]·Q_k; M lower triangular means k ≥
	// max(i,j) contributes. Zero coefficients (e.g. λ = 0) still emit
	// structural entries: the INLA loop caches index mappings against this
	// pattern and requires it to be invariant across hyperparameter values.
	//
	// All SPDE-built process precisions share one sparsity pattern, in
	// which case the joint matrix is assembled directly in sorted CSR order
	// with no intermediate triplet sort — the §IV-B1 "store the index
	// structure once" idea applied to construction. Mixed patterns fall
	// back to triplet assembly.
	same := true
	for k := 1; k < l.Nv; k++ {
		if !sparse.SameStructure(qs[0], qs[k]) {
			same = false
			break
		}
	}
	if same {
		return l.jointSamePattern(m, qs, n), nil
	}
	coo := sparse.NewCOO(l.Nv*n, l.Nv*n)
	for i := 0; i < l.Nv; i++ {
		for j := 0; j < l.Nv; j++ {
			for k := maxInt(i, j); k < l.Nv; k++ {
				c := m.At(k, i) * m.At(k, j)
				q := qs[k]
				for r := 0; r < n; r++ {
					for p := q.RowPtr[r]; p < q.RowPtr[r+1]; p++ {
						coo.Add(i*n+r, j*n+q.ColIdx[p], c*q.Val[p])
					}
				}
			}
		}
	}
	return coo.ToCSR(), nil
}

// jointSamePattern assembles Q_nv directly in CSR order when every process
// precision shares one pattern: row (i,r) holds, for each block column j in
// ascending order, the pattern row r shifted by j·n with values
// Σ_k M[k,i]·M[k,j]·Q_k[r,p].
func (l *Lambda) jointSamePattern(m *dense.Matrix, qs []*sparse.CSR, n int) *sparse.CSR {
	nv := l.Nv
	pat := qs[0]
	rowNNZ := make([]int, n)
	for r := 0; r < n; r++ {
		rowNNZ[r] = pat.RowPtr[r+1] - pat.RowPtr[r]
	}
	// Coefficients c[i][j] for each block pair summed over k.
	coef := make([][][]float64, nv)
	for i := 0; i < nv; i++ {
		coef[i] = make([][]float64, nv)
		for j := 0; j < nv; j++ {
			cs := make([]float64, nv)
			for k := maxInt(i, j); k < nv; k++ {
				cs[k] = m.At(k, i) * m.At(k, j)
			}
			coef[i][j] = cs
		}
	}
	totalNNZ := nv * nv * pat.NNZ()
	rowPtr := make([]int, nv*n+1)
	colIdx := make([]int, totalNNZ)
	val := make([]float64, totalNNZ)
	w := 0
	for i := 0; i < nv; i++ {
		for r := 0; r < n; r++ {
			rowPtr[i*n+r] = w
			lo, hi := pat.RowPtr[r], pat.RowPtr[r+1]
			for j := 0; j < nv; j++ {
				cs := coef[i][j]
				off := j * n
				for p := lo; p < hi; p++ {
					var v float64
					for k := maxInt(i, j); k < nv; k++ {
						v += cs[k] * qs[k].Val[p]
					}
					colIdx[w] = off + pat.ColIdx[p]
					val[w] = v
					w++
				}
			}
		}
	}
	rowPtr[nv*n] = w
	return sparse.NewCSR(nv*n, nv*n, rowPtr, colIdx, val)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Dims describes the layout of a multivariate spatio-temporal latent field.
type Dims struct {
	Nv int // number of processes
	Ns int // spatial nodes per process
	Nt int // time steps
	Nr int // fixed effects per process
}

// PerProcess returns the per-process latent dimension ns·nt + nr.
func (d Dims) PerProcess() int { return d.Ns*d.Nt + d.Nr }

// Total returns the joint latent dimension N = nv·(ns·nt + nr).
func (d Dims) Total() int { return d.Nv * d.PerProcess() }

// BTAShape returns the BTA parameters after permutation: n = nt diagonal
// blocks of size b = nv·ns, arrow size a = nv·nr.
func (d Dims) BTAShape() (n, b, a int) { return d.Nt, d.Nv * d.Ns, d.Nv * d.Nr }

// TimeMajorPermutation returns perm with perm[new] = old mapping the
// process-major construction ordering (per process: time-major spatial
// field, then its fixed effects) to the BTA ordering (per time step: all
// processes' spatial fields; all fixed effects at the end) — the §IV-B1
// reordering that recovers the Fig. 2c sparsity pattern.
func TimeMajorPermutation(d Dims) []int {
	perm := make([]int, d.Total())
	stride := d.PerProcess()
	idx := 0
	for t := 0; t < d.Nt; t++ {
		for v := 0; v < d.Nv; v++ {
			for s := 0; s < d.Ns; s++ {
				perm[idx] = v*stride + t*d.Ns + s
				idx++
			}
		}
	}
	for v := 0; v < d.Nv; v++ {
		for r := 0; r < d.Nr; r++ {
			perm[idx] = v*stride + d.Nt*d.Ns + r
			idx++
		}
	}
	return perm
}
