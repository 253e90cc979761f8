package bta

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// PPOBTAS is the distributed triangular solve contributed by the DALIA
// paper (§IV-E): it solves A·x = rhs against an existing distributed
// factorization using the same nested-dissection scheme as PPOBTAF. The
// interior forward/backward sweeps are thin wrappers over the shared
// partition-relative partitionSolve core — the same loops ParallelFactor
// runs in shared memory — executed once per owned partition (concurrently
// under the hybrid two-level topology) with comm's Compute hook charging
// the node-level wall time to the rank's virtual clock.
//
// rhsLocal holds the right-hand side for the rank's owned blocks
// (Part().Size()·b values); rhsTip holds the arrow-tip right-hand side and
// is read on rank 0 (a values; may be nil when a == 0). The call is
// collective. It returns the solution over the owned blocks and the
// (replicated) tip solution; when the factor carries recycled scratch the
// returned slices alias it and stay valid until the next PPOBTAS call.
func PPOBTAS(c *comm.Comm, f *DistFactor, rhsLocal, rhsTip []float64) (xOut, xTipOut []float64, err error) {
	// A communication fault mid-solve aborts cleanly: the sweeps run to
	// completion inside Compute before any exchange, so no gang goroutine
	// outlives the abort, and the solve scratch stays attached to the factor
	// for the retry.
	defer func() {
		if r := recover(); r != nil {
			fe := comm.FaultOf(r)
			if fe == nil {
				panic(r)
			}
			xOut, xTipOut = nil, nil
			err = fmt.Errorf("bta: distributed solve aborted: %w", fe)
		}
	}()
	b, a := f.b, f.a
	if len(rhsLocal) != f.span.Size()*b {
		return nil, nil, fmt.Errorf("bta: rank %d rhs length %d, want %d", f.rank, len(rhsLocal), f.span.Size()*b)
	}
	ss := f.solveScratch()
	if f.p == 1 {
		ss.full = growF(ss.full, f.nGlobal*b+a)
		copy(ss.full, rhsLocal)
		copy(ss.full[f.nGlobal*b:], rhsTip)
		c.Compute(func() { f.red.Solve(ss.full) })
		var xt []float64
		if a > 0 {
			ss.xTip = growF(ss.xTip, a)
			copy(ss.xTip, ss.full[f.nGlobal*b:])
			xt = ss.xTip
		}
		return ss.full[:f.nGlobal*b], xt, nil
	}

	spanLo := f.span.Lo
	ss.y = growF(ss.y, len(rhsLocal))
	y := ss.y
	copy(y, rhsLocal)
	if a > 0 {
		for len(ss.tips) < len(f.parts) {
			ss.tips = append(ss.tips, nil)
		}
		for j := range f.parts {
			ss.tips[j] = growF(ss.tips[j], a)
		}
	}

	// Forward elimination over every owned partition's interiors.
	c.Compute(func() {
		f.runOwned(func(j int) {
			dp := f.parts[j]
			var tip []float64
			if a > 0 {
				tip = ss.tips[j]
				for i := range tip {
					tip[i] = 0
				}
			}
			pv := dp.solveCore(b)
			pv.forward(y[dp.off*b:(dp.off+dp.part.Size())*b], tip)
		})
	})
	if a > 0 {
		ss.tipSum = growF(ss.tipSum, a)
		copy(ss.tipSum, ss.tips[0])
		for _, t := range ss.tips[1:len(f.parts)] {
			dense.Axpy(1, t, ss.tipSum)
		}
	}

	// Reduced right-hand side at rank 0.
	nr := reducedSize(f.p)
	var xTip []float64
	if f.rank != 0 {
		nBnd := 0
		for _, dp := range f.parts {
			nBnd += len(dp.bndDiag)
		}
		payload := growF(ss.payload, nBnd*b+a)[:0]
		for _, dp := range f.parts {
			for _, gbl := range boundaries(dp.part, dp.global, f.p) {
				rel := gbl - spanLo
				payload = append(payload, y[rel*b:(rel+1)*b]...)
			}
		}
		if a > 0 {
			payload = append(payload, ss.tipSum...)
		}
		ss.payload = payload
		c.Send(0, tagRhs, payload)
		sol := c.Recv(0, tagSol)
		off := 0
		for _, dp := range f.parts {
			for _, gbl := range boundaries(dp.part, dp.global, f.p) {
				rel := gbl - spanLo
				copy(y[rel*b:(rel+1)*b], sol[off:off+b])
				off += b
			}
		}
		if a > 0 {
			ss.xTip = growF(ss.xTip, a)
			copy(ss.xTip, sol[off:off+a])
			xTip = ss.xTip
		}
	} else {
		ss.red = growF(ss.red, nr*b+a)
		rhsRed := ss.red
		// Rank 0's own boundary values.
		copy(rhsRed[0:b], y[(f.parts[0].part.Hi-spanLo)*b:(f.parts[0].part.Hi-spanLo+1)*b])
		for _, dp := range f.parts[1:] {
			top := reducedIndexTop(dp.global)
			copy(rhsRed[top*b:(top+1)*b], y[dp.off*b:(dp.off+1)*b])
			if dp.global < f.p-1 {
				hiRel := dp.off + dp.part.Size() - 1
				copy(rhsRed[(top+1)*b:(top+2)*b], y[hiRel*b:(hiRel+1)*b])
			}
		}
		if a > 0 {
			copy(rhsRed[nr*b:], rhsTip)
			dense.Axpy(1, ss.tipSum, rhsRed[nr*b:])
		}
		for r := 1; r < f.ranks; r++ {
			pl := c.Recv(r, tagRhs)
			off := 0
			for jj := 0; jj < f.counts[r]; jj++ {
				g := f.base[r] + jj
				nb := 2
				if g == f.p-1 {
					nb = 1
				}
				top := reducedIndexTop(g)
				copy(rhsRed[top*b:(top+1)*b], pl[off:off+b])
				if nb == 2 {
					copy(rhsRed[(top+1)*b:(top+2)*b], pl[off+b:off+2*b])
				}
				off += nb * b
			}
			if a > 0 {
				dense.Axpy(1, pl[off:off+a], rhsRed[nr*b:])
			}
		}
		c.Compute(func() { f.red.Solve(rhsRed) })
		if a > 0 {
			ss.xTip = growF(ss.xTip, a)
			copy(ss.xTip, rhsRed[nr*b:])
			xTip = ss.xTip
		}
		for r := 1; r < f.ranks; r++ {
			nb := 0
			for jj := 0; jj < f.counts[r]; jj++ {
				if f.base[r]+jj == f.p-1 {
					nb++
				} else {
					nb += 2
				}
			}
			sol := growF(ss.sol, nb*b+a)[:0]
			for jj := 0; jj < f.counts[r]; jj++ {
				g := f.base[r] + jj
				top := reducedIndexTop(g)
				sol = append(sol, rhsRed[top*b:(top+1)*b]...)
				if g < f.p-1 {
					sol = append(sol, rhsRed[(top+1)*b:(top+2)*b]...)
				}
			}
			if a > 0 {
				sol = append(sol, xTip...)
			}
			ss.sol = sol
			c.Send(r, tagSol, sol)
		}
		// Install rank 0's own boundary solutions.
		copy(y[(f.parts[0].part.Hi-spanLo)*b:(f.parts[0].part.Hi-spanLo+1)*b], rhsRed[0:b])
		for _, dp := range f.parts[1:] {
			top := reducedIndexTop(dp.global)
			copy(y[dp.off*b:(dp.off+1)*b], rhsRed[top*b:(top+1)*b])
			if dp.global < f.p-1 {
				hiRel := dp.off + dp.part.Size() - 1
				copy(y[hiRel*b:(hiRel+1)*b], rhsRed[(top+1)*b:(top+2)*b])
			}
		}
	}

	// Backward substitution over every owned partition's interiors.
	c.Compute(func() {
		f.runOwned(func(j int) {
			dp := f.parts[j]
			pv := dp.solveCore(b)
			pv.backward(y[dp.off*b:(dp.off+dp.part.Size())*b], xTip)
		})
	})
	return y, xTip, nil
}

// LocalSigma is one rank's slice of the selected inverse Σ on the BTA
// pattern, mirroring the LocalBTA layout. TopCoupling holds
// Σ(Lo, Lo−1) — the coupling to the previous rank — and Tip is the
// replicated Σ over the fixed-effects corner. Under the hybrid topology the
// slice spans all of the rank's partitions, rank-internal partition borders
// included.
type LocalSigma struct {
	Part        Partition
	NGlobal     int
	B, A        int
	Diag        []*dense.Matrix
	Lower       []*dense.Matrix
	TopCoupling *dense.Matrix
	Arrow       []*dense.Matrix
	Tip         *dense.Matrix
}

// DiagVec returns the rank-local marginal variances (the diagonal of the
// owned Σ blocks), Part.Size()·b values.
func (s *LocalSigma) DiagVec() []float64 {
	out := make([]float64, len(s.Diag)*s.B)
	for i, d := range s.Diag {
		for k := 0; k < s.B; k++ {
			out[i*s.B+k] = d.At(k, k)
		}
	}
	return out
}

// sigmaStorage returns the rank-local Σ output storage, recycled from the
// scratch when attached and shape-compatible.
func (f *DistFactor) sigmaStorage() *LocalSigma {
	if f.scr != nil && f.scr.sigma != nil {
		s := f.scr.sigma
		if s.Part == f.span && s.NGlobal == f.nGlobal && s.B == f.b && s.A == f.a {
			return s
		}
	}
	size := f.span.Size()
	out := &LocalSigma{Part: f.span, NGlobal: f.nGlobal, B: f.b, A: f.a}
	out.Diag = make([]*dense.Matrix, size)
	for i := range out.Diag {
		out.Diag[i] = dense.New(f.b, f.b)
	}
	if size > 1 {
		out.Lower = make([]*dense.Matrix, size-1)
		for i := range out.Lower {
			out.Lower[i] = dense.New(f.b, f.b)
		}
	}
	if f.span.Lo > 0 {
		out.TopCoupling = dense.New(f.b, f.b)
	}
	if f.a > 0 {
		out.Arrow = make([]*dense.Matrix, size)
		for i := range out.Arrow {
			out.Arrow[i] = dense.New(f.a, f.b)
		}
		out.Tip = dense.New(f.a, f.a)
	}
	if f.scr != nil {
		f.scr.sigma = out
	}
	return out
}

// redSigStorage returns rank 0's reduced selected-inverse storage, recycled
// from the scratch when attached.
func (f *DistFactor) redSigStorage() *Matrix {
	nr := reducedSize(f.p)
	if f.scr != nil && f.scr.redSig != nil &&
		f.scr.redSig.N == nr && f.scr.redSig.B == f.b && f.scr.redSig.A == f.a {
		return f.scr.redSig
	}
	m := NewMatrix(nr, f.b, f.a)
	if f.scr != nil {
		f.scr.redSig = m
	}
	return m
}

// PPOBTASI is the distributed selected inversion: it computes every block
// of Σ = A⁻¹ on the BTA pattern, with each rank producing the blocks of its
// owned partitions. The interior backward recursions are thin wrappers over
// the shared partition-relative partitionSweep core (the same recursion
// ParallelFactor runs in shared memory), swept concurrently across the
// rank's partitions under the hybrid topology, with comm's Compute hook
// charging the node-level wall time. Collective; requires a prior PPOBTAF.
//
// When the factor carries recycled scratch the returned LocalSigma reuses
// its storage and stays valid until the next PPOBTASI call.
func PPOBTASI(c *comm.Comm, f *DistFactor) (sig *LocalSigma, err error) {
	// Same abort contract as PPOBTAF/PPOBTAS: a communication fault returns
	// a wrapped error instead of wedging the rank, with the recycled Σ
	// storage left attached to the factor for the retry.
	defer func() {
		if r := recover(); r != nil {
			fe := comm.FaultOf(r)
			if fe == nil {
				panic(r)
			}
			sig = nil
			err = fmt.Errorf("bta: distributed selected inversion aborted: %w", fe)
		}
	}()
	a := f.a
	out := f.sigmaStorage()
	if f.p == 1 {
		sig := Matrix{N: f.nGlobal, B: f.b, A: a,
			Diag: out.Diag, Lower: out.Lower, Arrow: out.Arrow, Tip: out.Tip}
		var err error
		c.Compute(func() { err = f.red.SelectedInversionInto(&sig) })
		if err != nil {
			return nil, err
		}
		return out, nil
	}

	// Phase 1: reduced-system selected inversion on rank 0, scatter of the
	// boundary Σ blocks into the rank-local storage. botTops retains each
	// owned partition's Σ(hi, lo) — the seed of its sweep's rolling Σ(lo,·).
	botTops := make([]*dense.Matrix, len(f.parts))
	var sigTip *dense.Matrix
	if f.rank == 0 {
		redSig := f.redSigStorage()
		var err error
		c.Compute(func() { err = f.red.SelectedInversionInto(redSig) })
		if err != nil {
			return nil, err
		}
		for r := 1; r < f.ranks; r++ {
			for jj := 0; jj < f.counts[r]; jj++ {
				g := f.base[r] + jj
				top := reducedIndexTop(g)
				c.SendMatrix(r, tagSig, redSig.Diag[top])
				c.SendMatrix(r, tagSig+1, redSig.Lower[top-1]) // Σ(lo_g, hi_{g−1})
				if g < f.p-1 {
					c.SendMatrix(r, tagSig+2, redSig.Diag[top+1])
					c.SendMatrix(r, tagSig+3, redSig.Lower[top]) // Σ(hi_g, lo_g)
				}
				if a > 0 {
					c.SendMatrix(r, tagSig+4, redSig.Arrow[top])
					if g < f.p-1 {
						c.SendMatrix(r, tagSig+5, redSig.Arrow[top+1])
					}
				}
			}
		}
		f.installSigmaLocal(out, redSig, botTops)
		if a > 0 {
			sigTip = redSig.Tip
		}
	} else {
		for j, dp := range f.parts {
			size := dp.part.Size()
			out.Diag[dp.off].CopyFrom(c.RecvMatrix(0, tagSig))
			cross := c.RecvMatrix(0, tagSig+1)
			if dp.off == 0 {
				out.TopCoupling.CopyFrom(cross)
			} else {
				out.Lower[dp.off-1].CopyFrom(cross) // rank-internal partition border
			}
			if dp.global < f.p-1 {
				out.Diag[dp.off+size-1].CopyFrom(c.RecvMatrix(0, tagSig+2))
				botTops[j] = c.RecvMatrix(0, tagSig+3)
				if len(dp.interior) == 0 {
					// Size-2 middle partition: its within coupling is a
					// boundary-boundary block of the reduced system.
					out.Lower[dp.off].CopyFrom(botTops[j])
				}
			}
			if a > 0 {
				out.Arrow[dp.off].CopyFrom(c.RecvMatrix(0, tagSig+4))
				if dp.global < f.p-1 {
					out.Arrow[dp.off+size-1].CopyFrom(c.RecvMatrix(0, tagSig+5))
				}
			}
		}
	}
	if a > 0 {
		out.Tip.CopyFrom(c.BcastMatrix(0, sigTip))
	}

	// Phase 2: the per-partition backward recursions over the interiors,
	// through the shared sweep core. Scratch is resolved outside the gang
	// (sweepScratchFor growth is not synchronized) and handed in.
	scratches := make([]*sweepScratch, len(f.parts))
	for j := range f.parts {
		f.parts[j].err = nil
		scratches[j] = f.sweepScratchFor(j)
	}
	c.Compute(func() {
		f.runOwned(func(j int) { f.parts[j].err = f.sweepOwned(out, botTops[j], scratches[j], j) })
	})
	for _, dp := range f.parts {
		if dp.err != nil {
			return nil, dp.err
		}
	}
	return out, nil
}

// installSigmaLocal copies rank 0's own boundary Σ blocks straight from the
// reduced selected inverse (the message-free counterpart of the scatter).
func (f *DistFactor) installSigmaLocal(out *LocalSigma, redSig *Matrix, botTops []*dense.Matrix) {
	a := f.a
	dp0 := f.parts[0]
	bot0 := dp0.off + dp0.part.Size() - 1
	out.Diag[bot0].CopyFrom(redSig.Diag[0])
	if a > 0 {
		out.Arrow[bot0].CopyFrom(redSig.Arrow[0])
	}
	for j, dp := range f.parts[1:] {
		size := dp.part.Size()
		top := reducedIndexTop(dp.global)
		out.Diag[dp.off].CopyFrom(redSig.Diag[top])
		out.Lower[dp.off-1].CopyFrom(redSig.Lower[top-1])
		if a > 0 {
			out.Arrow[dp.off].CopyFrom(redSig.Arrow[top])
		}
		if dp.global < f.p-1 {
			out.Diag[dp.off+size-1].CopyFrom(redSig.Diag[top+1])
			botTops[j+1] = redSig.Lower[top]
			if len(dp.interior) == 0 {
				out.Lower[dp.off].CopyFrom(redSig.Lower[top])
			}
			if a > 0 {
				out.Arrow[dp.off+size-1].CopyFrom(redSig.Arrow[top+1])
			}
		}
	}
}

// sweepOwned runs one owned partition's interior selected-inversion
// recursion through the shared partitionSweep core, writing into the rank's
// slice of Σ. ws must come from sweepScratchFor, resolved before the gang
// launches.
func (f *DistFactor) sweepOwned(out *LocalSigma, botTop *dense.Matrix, ws *sweepScratch, j int) error {
	dp := f.parts[j]
	if len(dp.interior) == 0 {
		return nil
	}
	off, size := dp.off, dp.part.Size()
	pw := partitionSweep{
		L: dp.l, GNext: dp.gNext, GTop: dp.gTop, GArr: dp.gArr,
		Interiors: dp.interior, Base: dp.part.Lo, TwoSided: dp.global != 0,
		Diag:      out.Diag[off : off+size],
		Lower:     out.Lower[off : off+size-1],
		SigBotTop: botTop,
		GN:        ws.gN, GT: ws.gT, GA: ws.gA, TmpB: ws.tmpB,
		LoBuf: ws.loBuf,
		Kind:  "rank", ID: f.rank,
	}
	if f.a > 0 {
		pw.Arrow = out.Arrow[off : off+size]
		pw.SigTip = out.Tip
	}
	return pw.run()
}
