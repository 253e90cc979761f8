package bta

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// partitionSweep is the single shared implementation of one partition's
// interior selected-inversion recursion of PPOBTASI (§IV-E): the backward
// sweep that rolls Σ over the elimination neighbours {k+1, lo, tip} of each
// interior block, which the partitioned driver runs on each owned
// partition's sub-slices of the Σ output.
//
// All indices are partition-relative: Diag/Lower/Arrow are the partition's
// slice of the Σ pattern (Diag[rel] = Σ(Base+rel, Base+rel), Lower[rel] =
// Σ(Base+rel+1, Base+rel)), with the boundary entries (Diag[0]/Arrow[0] of
// two-sided partitions, Diag/Arrow of the bottom boundary) installed by the
// caller from the reduced system's selected inverse before the sweep runs.
//
// Every temporary is drawn from the caller-provided scratch (GN/GT/GA/TmpB
// and the LoBuf ping-pong pair for the rolling Σ(lo,·)), so the sweep
// performs no heap allocation; virtual-time charging (the comm simulator's
// Compute hook) wraps the call from the outside. The sequential
// SelectedInversionInto is the sweep of one one-sided partition over every
// block.
type partitionSweep struct {
	// partitionElim outputs in elimination order: the interior Cholesky
	// blocks and the scaled couplings (nil where absent).
	L, GNext, GTop, GArr []*dense.Matrix

	Interiors []int // global block indices, elimination order
	Base      int   // global index of the partition's first block
	TwoSided  bool  // non-first partitions roll the Σ(lo,·) coupling

	// Partition-relative Σ storage (boundary entries pre-installed).
	Diag, Lower, Arrow []*dense.Matrix
	// SigBotTop is the reduced selected inverse's Σ(hi, lo) boundary
	// coupling — the seed of the rolling Σ(lo,·) state for two-sided
	// partitions whose deepest interior couples to the bottom boundary
	// (middle partitions); nil otherwise.
	SigBotTop *dense.Matrix
	// SigTip is the replicated Σ over the arrow tip (nil when a == 0).
	SigTip *dense.Matrix

	// Scratch: b×b GN/TmpB always, b×b GT plus the LoBuf pair for
	// two-sided partitions, a×b GA when the matrix has an arrowhead.
	GN, GT, GA, TmpB *dense.Matrix
	LoBuf            [2]*dense.Matrix

	// ID is the global partition index, for error messages.
	ID int
}

// run executes the backward recursion over the partition's interiors.
func (pw *partitionSweep) run() error {
	ints := pw.Interiors
	if len(ints) == 0 {
		return nil
	}
	hasArrow := pw.SigTip != nil
	bot := len(pw.Diag) - 1

	// Rolling state: Σ_{k+1,k+1}, Σ_{lo,k+1}, Σ_{a,k+1}.
	var sigNN, sigLoN, sigArrN *dense.Matrix
	loCur, loNext := pw.LoBuf[0], pw.LoBuf[1]
	last := len(ints) - 1
	if pw.GNext[last] != nil { // the deepest interior couples to the bottom boundary
		sigNN = pw.Diag[bot]
		if pw.TwoSided {
			// Σ(lo, hi) = Σ(hi, lo)ᵀ from the reduced selected inverse.
			pw.SigBotTop.TransposeInto(loCur)
			sigLoN = loCur
		}
		if hasArrow {
			sigArrN = pw.Arrow[bot]
		}
	}

	for idx := last; idx >= 0; idx-- {
		rel := ints[idx] - pw.Base
		// (L_kk·L_kkᵀ)⁻¹ first: it leaves L_kk⁻¹ in TmpB. The factor stores
		// L_{S,k} = A'_{S,k}·L_kk⁻ᵀ; the recursion needs G_{S,k} =
		// L_{S,k}·L_kk⁻¹, a GEMM against TmpB.
		if err := dense.PotriInto(pw.Diag[rel], pw.TmpB, pw.L[idx]); err != nil {
			return fmt.Errorf("bta: selinv partition %d block %d: %w", pw.ID, ints[idx], err)
		}
		var gN, gT, gA *dense.Matrix
		if g := pw.GNext[idx]; g != nil {
			gN = pw.GN
			dense.Gemm(dense.NoTrans, dense.NoTrans, 1, g, pw.TmpB, 0, gN)
		}
		if g := pw.GTop[idx]; g != nil {
			gT = pw.GT
			dense.Gemm(dense.NoTrans, dense.NoTrans, 1, g, pw.TmpB, 0, gT)
		}
		if g := pw.GArr[idx]; g != nil {
			gA = pw.GA
			dense.Gemm(dense.NoTrans, dense.NoTrans, 1, g, pw.TmpB, 0, gA)
		}
		// Σ_{k+1,k}
		if gN != nil {
			dense.Gemm(dense.NoTrans, dense.NoTrans, -1, sigNN, gN, 0, pw.Lower[rel])
			if gT != nil {
				dense.Gemm(dense.Trans, dense.NoTrans, -1, sigLoN, gT, 1, pw.Lower[rel])
			}
			if gA != nil {
				dense.Gemm(dense.Trans, dense.NoTrans, -1, sigArrN, gA, 1, pw.Lower[rel])
			}
		}
		// Σ_{lo,k}
		var sigLoK *dense.Matrix
		if gT != nil {
			sigLoK = loNext
			dense.Gemm(dense.NoTrans, dense.NoTrans, -1, pw.Diag[0], gT, 0, sigLoK)
			if gN != nil {
				dense.Gemm(dense.NoTrans, dense.NoTrans, -1, sigLoN, gN, 1, sigLoK)
			}
			if gA != nil {
				dense.Gemm(dense.Trans, dense.NoTrans, -1, pw.Arrow[0], gA, 1, sigLoK)
			}
		}
		// Σ_{a,k} = −Σ_{a,k+1}·G_{k+1,k} − Σ_aa·G_{a,k} − Σ_{a,lo}·G_{lo,k},
		// summed in that order
		if gA != nil {
			beta := 0.0
			if gN != nil {
				dense.Gemm(dense.NoTrans, dense.NoTrans, -1, sigArrN, gN, 0, pw.Arrow[rel])
				beta = 1
			}
			dense.Gemm(dense.NoTrans, dense.NoTrans, -1, pw.SigTip, gA, beta, pw.Arrow[rel])
			if gT != nil {
				dense.Gemm(dense.NoTrans, dense.NoTrans, -1, pw.Arrow[0], gT, 1, pw.Arrow[rel])
			}
		}
		// Σ_{k,k} = (L_kk·L_kkᵀ)⁻¹ − Σ_{S,k}ᵀ·G_{S,k} over the neighbours S
		if gN != nil {
			dense.Gemm(dense.Trans, dense.NoTrans, -1, pw.Lower[rel], gN, 1, pw.Diag[rel])
		}
		if gT != nil {
			dense.Gemm(dense.Trans, dense.NoTrans, -1, sigLoK, gT, 1, pw.Diag[rel])
		}
		if gA != nil {
			dense.Gemm(dense.Trans, dense.NoTrans, -1, pw.Arrow[rel], gA, 1, pw.Diag[rel])
		}
		pw.Diag[rel].Symmetrize()

		// Roll the state.
		sigNN = pw.Diag[rel]
		if gT != nil {
			sigLoN = sigLoK
			loCur, loNext = loNext, loCur
		}
		if hasArrow {
			sigArrN = pw.Arrow[rel]
		}
	}

	// The coupling between the first interior and the top boundary:
	// Σ(lo+1, lo) = Σ(lo, lo+1)ᵀ.
	if pw.TwoSided && sigLoN != nil {
		sigLoN.TransposeInto(pw.Lower[0])
	}
	return nil
}
