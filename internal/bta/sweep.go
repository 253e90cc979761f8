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
// Each block is one dense.Invert step, which packs L_kk once for all its
// solves and keeps the couplings G_{S,k} in pooled packed panels; the only
// other temporary is the caller-provided LoBuf ping-pong pair for the
// rolling Σ(lo,·), so the sweep performs no heap allocation. Virtual-time
// charging (the comm simulator's Compute hook) wraps the call from the
// outside. The sequential SelectedInversionInto is the sweep of one
// one-sided partition over every block.
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

	// LoBuf is the b×b pair Σ(lo,·) rolls through in two-sided
	// partitions (unused in one-sided ones).
	LoBuf [2]*dense.Matrix

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
		// One dense.Invert step over the neighbours {k+1, lo, tip}, in
		// dense.Eliminate's index order: Σ_{S,k} = −Σ_{S'} Σ_{S,S'}·G_{S',k}
		// with G_{S,k} = L_{S,k}·L_kk⁻¹, then Σ_kk = (L_kk·L_kkᵀ)⁻¹ −
		// Σ_S Σ_{S,k}ᵀ·G_{S,k}.
		g := [3]*dense.Matrix{pw.GNext[idx], pw.GTop[idx], pw.GArr[idx]}
		var s [3][3]*dense.Matrix
		var out [3]*dense.Matrix
		s[0][0], s[1][0], s[1][1] = sigNN, sigLoN, pw.Diag[0]
		if g[0] != nil {
			out[0] = pw.Lower[rel]
		}
		if g[1] != nil {
			out[1] = loNext
		}
		if hasArrow {
			s[2][0], s[2][1], s[2][2] = sigArrN, pw.Arrow[0], pw.SigTip
			out[2] = pw.Arrow[rel]
		}
		if err := dense.Invert(pw.L[idx], g, s, out, pw.Diag[rel]); err != nil {
			return fmt.Errorf("bta: selinv partition %d block %d: %w", pw.ID, ints[idx], err)
		}

		// Roll the state.
		sigNN = pw.Diag[rel]
		if g[1] != nil {
			sigLoN = loNext
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
