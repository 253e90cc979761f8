package bta

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// partitionElim is the single shared implementation of one partition's
// interior elimination phase of PPOBTAF — the two-sided (or, for the first
// partition, one-sided) block Cholesky sweep of §IV-C, which the partitioned
// driver runs on each owned partition's sub-slices of the block storage. All
// indices are partition-relative.
//
// The sweep consumes Diag/Lower/Arrow as workspace: on return Diag[k] of an
// eliminated block holds L_kk, Lower[k] holds the scaled next-coupling
// L_{k+1,k}, Arrow[k] the scaled arrow coupling L_{a,k}, the partition's
// boundary Diag/Arrow blocks hold their accumulated Schur updates, and the
// fill-coupling chain M(lo,·) lives in blocks drawn from NewBB. The
// symmetric blocks Diag and TipDelta are lower-only: Syrk updates their lower
// triangle, every consumer (Potrf) reads only that, and their strict upper
// triangle is stale. The sequential Factor is the run of one one-sided
// partition over every block, with its tip as TipDelta.
//
// Each elimination step is one dense.Eliminate call, which packs every
// operand once: Potrf leaves L_kk in the packed form that all the step's
// coupling solves (next, top boundary, arrow) read, and each solve hands its
// packed rows to the Syrk and Gemm updates that take that coupling as their
// right operand. Every output is bitwise that of the unfused calls.
type partitionElim struct {
	Diag  []*dense.Matrix // the partition's diagonal blocks
	Lower []*dense.Matrix // within-partition sub-diagonal couplings (len size−1)
	Arrow []*dense.Matrix // arrow couplings (nil when no arrowhead)

	Interiors []int // global block indices, elimination order
	Base      int   // global index of the partition's first block
	TwoSided  bool  // non-first partitions also update their top boundary

	// ID is the global partition index, for error messages.
	ID int

	// NewBB supplies b×b fill-chain blocks from the partition's chain.
	NewBB func() *dense.Matrix
	// TipDelta is the zeroed a×a Schur accumulator for the arrow tip
	// (nil when no arrowhead).
	TipDelta *dense.Matrix

	// Outputs, appended in elimination order (callers pass reusable
	// backings via slice[:0] to stay allocation-free). GNext/GTop/GArr
	// entries are nil where the corresponding coupling does not exist.
	L, GNext, GTop, GArr []*dense.Matrix
	// Fill is the remaining boundary-boundary coupling M(lo, hi) of middle
	// partitions (nil otherwise).
	Fill *dense.Matrix
}

// run executes the sweep.
func (pe *partitionElim) run() error {
	hasArrow := pe.TipDelta != nil

	// Working fill coupling M(lo, k): starts as the transpose of the
	// partition's first sub-diagonal block.
	var tCur *dense.Matrix
	if pe.TwoSided && len(pe.Lower) > 0 {
		tCur = pe.NewBB()
		pe.Lower[0].TransposeInto(tCur)
	}

	for _, k := range pe.Interiors {
		rel := k - pe.Base
		lk := pe.Diag[rel]
		// The step's couplings — to the next block, the top boundary and
		// the arrowhead — and the blocks their Schur complement lands on,
		// in dense.Eliminate's index order.
		var g [3]*dense.Matrix
		var s [3][3]*dense.Matrix
		if rel < len(pe.Lower) { // a next block exists within the partition
			g[0], s[0][0] = pe.Lower[rel], pe.Diag[rel+1]
		}
		if pe.TwoSided {
			g[1], s[1][1] = tCur, pe.Diag[0]
			tCur = nil
			if g[0] != nil {
				tCur = pe.NewBB()
				tCur.Zero()
				s[1][0] = tCur
			}
		}
		if hasArrow {
			g[2], s[2][2] = pe.Arrow[rel], pe.TipDelta
			if g[0] != nil {
				s[2][0] = pe.Arrow[rel+1]
			}
			if g[1] != nil {
				s[2][1] = pe.Arrow[0]
			}
		}
		if err := dense.Eliminate(lk, g, s); err != nil {
			return fmt.Errorf("bta: partition %d interior block %d: %w", pe.ID, k, err)
		}
		lk.ZeroUpper()
		pe.L = append(pe.L, lk)
		pe.GNext = append(pe.GNext, g[0])
		pe.GTop = append(pe.GTop, g[1])
		pe.GArr = append(pe.GArr, g[2])
	}

	// The remaining coupling between the partition's two boundaries. With
	// no interiors (size-2 middle partition) tCur still holds the untouched
	// Lower[0]ᵀ prepared before the loop; with interiors it is the final,
	// unconsumed fill coupling; for first/last partitions it is nil.
	pe.Fill = tCur
	return nil
}
