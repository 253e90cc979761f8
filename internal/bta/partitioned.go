package bta

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// Precomputed pprof label contexts for the driver's phases: applying a label
// set is allocation-free, so a CPU profile of the partitioned solver (say,
// `go test ./internal/bta -run Dist -cpuprofile cpu.out`) attributes samples
// per phase without disturbing the allocation pins.
var (
	labelElim    = phaseLabel("elim")
	labelReduced = phaseLabel("reduced")
	labelSweep   = phaseLabel("sweep")
	labelSigma   = phaseLabel("sigma")
	labelNone    = context.Background()
)

func phaseLabel(name string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("phase", name))
}

// relabel swaps the calling goroutine's pprof label set (alloc-free).
func relabel(ctx context.Context) { pprof.SetGoroutineLabels(ctx) }

// MaxPartitions returns the largest partition count PartitionBlocks accepts
// for n diagonal blocks (middle partitions need two boundary blocks, so
// n ≥ 2p−2).
func MaxPartitions(n int) int {
	p := (n + 2) / 2
	if p < 1 {
		p = 1
	}
	return p
}

// boundary names the blocks one partition shares with the reduced system,
// in either direction: after elimination its boundary diagonal and arrow
// blocks, the untouched coupling to the previous partition and the remaining
// boundary-boundary fill M(lo, hi) flow into the reduced matrix; after the
// reduced selected inversion the Σ blocks at the same positions flow back
// (the fill slot then carries Σ(hi, lo)). Absent blocks are nil: the first
// partition has no top boundary, the last no bottom one, only middle
// partitions a fill.
type boundary [6]*dense.Matrix

const (
	bTop = iota
	bBot
	bCoupling
	bFill
	bArrTop
	bArrBot
)

// partFactor is the one partitioned BTA driver: PPOBTAF/PPOBTAS/PPOBTASI of
// §IV-C–E over a time-domain partitioning, one partition per rank of a
// communicator. Rank r owns partition r of the global list and keeps its
// elimination outputs, fill-chain storage, Schur/tip accumulators and
// selected-inversion sweep scratch; rank 0 also holds the 2P−2-block reduced
// boundary system, and the peers' boundary blocks arrive there as messages
// installed by the same code that installs rank 0's own. comm.Compute
// charges each local phase's wall time to the rank's virtual clock.
//
// All storage is created at construction, so every operation is
// allocation-free after warmup apart from the message layer.
type partFactor struct {
	N, B, A int // global BTA shape
	P       int // partition count = communicator size
	rank    int // communicator rank = index of the owned partition

	span      Partition // the owned partition
	interiors []int     // global block indices, elimination order

	// Boundary blocks, top first: partition-relative block offsets and the
	// matching reduced-system block indices.
	bndRel, bndRed []int

	chain     []*dense.Matrix // fill-coupling blocks M(lo,·), b×b
	chainUsed int
	newBB     func() *dense.Matrix // prebuilt pop-from-chain closure

	// partitionElim output backings.
	l, gNext, gTop, gArr []*dense.Matrix
	fill                 *dense.Matrix
	tipDelta             *dense.Matrix // a×a Schur accumulator
	tipVec               []float64     // a-vector forward-solve accumulator

	loBuf [2]*dense.Matrix // b×b ping-pong for the rolling Σ(lo,·)

	seq *Factor // P == 1: the factor, with its own storage

	// Reduced boundary system (rank 0 only), factorized, solved and
	// selected-inverted by the one-partition Factor: redF is a factor view
	// over red, so the assembled blocks are its storage.
	red    *Matrix
	redF   *Factor
	redSig *Matrix // reduced selected inverse
	redRhs []float64

	stage  []float64 // message staging for the solve's boundary exchange
	logDet float64   // log|A|, replicated on all ranks
}

// init builds the driver for rank, the owner of partition part of a
// p-partition global list.
func (f *partFactor) init(n, b, a int, part Partition, rank, p int) {
	f.N, f.B, f.A, f.P = n, b, a, p
	f.rank, f.span = rank, part
	if p == 1 {
		f.seq = NewFactor(n, b, a)
		return
	}

	if rank == 0 {
		nr := reducedSize(p)
		f.red = NewMatrix(nr, b, a)
		f.redF = newFactor(f.red)
		f.redSig = NewMatrix(nr, b, a)
		f.redRhs = make([]float64, nr*b+a)
	}

	f.interiors = interiors(part, rank, p)
	if rank > 0 {
		f.bndRel = append(f.bndRel, 0)
		f.bndRed = append(f.bndRed, reducedIndexTop(rank))
	}
	if rank < p-1 {
		f.bndRel = append(f.bndRel, part.Size()-1)
		f.bndRed = append(f.bndRed, reducedIndexBot(rank))
	}
	nInt := len(f.interiors)
	if rank > 0 {
		f.chain = make([]*dense.Matrix, nInt+1)
		for i := range f.chain {
			f.chain[i] = dense.New(b, b)
		}
		f.loBuf[0] = dense.New(b, b)
		f.loBuf[1] = dense.New(b, b)
	}
	f.newBB = func() *dense.Matrix {
		m := f.chain[f.chainUsed]
		f.chainUsed++
		return m
	}
	f.l = make([]*dense.Matrix, 0, nInt)
	f.gNext = make([]*dense.Matrix, 0, nInt)
	f.gTop = make([]*dense.Matrix, 0, nInt)
	f.gArr = make([]*dense.Matrix, 0, nInt)
	if a > 0 {
		f.tipDelta = dense.New(a, a)
		f.tipVec = make([]float64, a)
	}
}

// phase runs fn, one local phase of the driver, under the communicator's
// compute lock with the goroutine's pprof label set to lbl.
func phase(c *comm.Comm, lbl context.Context, fn func()) {
	relabel(lbl)
	c.Compute(fn)
	relabel(labelNone)
}

// anyFailed reports whether any rank observed an error (collectively, so
// no rank is left blocked in a later exchange).
func anyFailed(c *comm.Comm, err error) bool {
	flag := 0.0
	if err != nil {
		flag = 1
	}
	return c.AllReduceMax([]float64{flag})[0] > 0
}

// hasBlock reports whether partition g's boundary carries block i.
func (f *partFactor) hasBlock(g, i int) bool {
	top, bot := g > 0, g < f.P-1
	switch i {
	case bTop, bCoupling:
		return top
	case bBot:
		return bot
	case bFill:
		return top && bot
	case bArrTop:
		return top && f.A > 0
	default:
		return bot && f.A > 0
	}
}

// ownBoundary locates the owned partition's boundary blocks inside a slice
// over it — the factor storage or the Σ output. The fill slot has no home
// in the BTA pattern and stays nil.
func (f *partFactor) ownBoundary(l *LocalBTA) boundary {
	var bd boundary
	hi := f.span.Size() - 1
	if f.hasBlock(f.rank, bTop) {
		bd[bTop], bd[bCoupling] = l.Diag[0], l.TopCoupling
	}
	if f.hasBlock(f.rank, bBot) {
		bd[bBot] = l.Diag[hi]
	}
	if f.hasBlock(f.rank, bArrTop) {
		bd[bArrTop] = l.Arrow[0]
	}
	if f.hasBlock(f.rank, bArrBot) {
		bd[bArrBot] = l.Arrow[hi]
	}
	return bd
}

// reducedBoundary locates partition g's boundary blocks inside a matrix in
// the reduced ordering [hi₀, lo₁, hi₁, …, lo_{P−1}] (the reduced system or
// its selected inverse).
func (f *partFactor) reducedBoundary(m *Matrix, g int) boundary {
	var bd boundary
	top, bot := reducedIndexTop(g), reducedIndexBot(g)
	if f.hasBlock(g, bTop) {
		bd[bTop], bd[bCoupling] = m.Diag[top], m.Lower[top-1] // (lo_g, hi_{g−1})
	}
	if f.hasBlock(g, bBot) {
		bd[bBot] = m.Diag[bot]
	}
	if f.hasBlock(g, bFill) {
		bd[bFill] = m.Lower[top] // (hi_g, lo_g)
	}
	if f.hasBlock(g, bArrTop) {
		bd[bArrTop] = m.Arrow[top]
	}
	if f.hasBlock(g, bArrBot) {
		bd[bArrBot] = m.Arrow[bot]
	}
	return bd
}

// sendBoundary ships a boundary's blocks to dst, one message per block.
func sendBoundary(c *comm.Comm, dst int, tags *[6]int, bd boundary) {
	for i, m := range bd {
		if m != nil {
			c.SendMatrix(dst, tags[i], m)
		}
	}
}

// recvBoundary receives partition g's boundary blocks from src in
// sendBoundary's order.
func (f *partFactor) recvBoundary(c *comm.Comm, src int, tags *[6]int, g int) boundary {
	var bd boundary
	for i := range bd {
		if f.hasBlock(g, i) {
			bd[i] = c.RecvMatrix(src, tags[i])
		}
	}
	return bd
}

// refactorize is PPOBTAF: every rank eliminates the interiors of its
// partition concurrently — non-first partitions run the costlier two-sided
// elimination that also updates their top boundary — then rank 0 assembles
// and factorizes the reduced system over the 2P−2 boundary blocks. store,
// which the caller filled with the rank's slice, is consumed as workspace.
// On error the factor contents are undefined until the next successful
// call; all scratch is retained either way, so infeasible-θ failures in the
// INLA loop cost no allocation churn.
//
// Error handling is collective: a failed Cholesky on any rank must not
// leave peers blocked in an exchange, so ranks agree on success after each
// phase.
func (f *partFactor) refactorize(c *comm.Comm, store *LocalBTA) error {
	if f.P == 1 { // one rank: its slice is copied into seq
		w := store.whole()
		var err error
		c.Compute(func() { err = f.seq.Refactorize(&w) })
		if err == nil {
			f.logDet = f.seq.LogDet()
		}
		return err
	}
	var err error
	phase(c, labelElim, func() { err = f.elim(store) })
	if anyFailed(c, err) {
		if err != nil {
			return err
		}
		return fmt.Errorf("bta: rank %d: a peer rank failed local elimination", f.rank)
	}
	if err := f.factorReduced(c, store); anyFailed(c, err) {
		if err != nil {
			return fmt.Errorf("bta: reduced boundary system: %w", err)
		}
		return fmt.Errorf("bta: rank %d: reduced-system factorization failed", f.rank)
	}

	// log|A|: each partition contributes its interior Cholesky diagonals,
	// partition 0 also the reduced factor's log-determinant, and the
	// contributions meet in AllReduceSum's rank-order fold.
	var d float64
	for _, lk := range f.l {
		for i := 0; i < f.B; i++ {
			d += math.Log(lk.At(i, i))
		}
	}
	d *= 2
	if f.rank == 0 {
		d += f.redF.LogDet()
	}
	f.logDet = c.AllReduceSum([]float64{d})[0]
	return nil
}

// elim runs the shared interior elimination core on the owned partition's
// slice of the storage.
func (f *partFactor) elim(st *LocalBTA) error {
	f.chainUsed = 0
	pe := partitionElim{
		Diag:      st.Diag,
		Lower:     st.Lower,
		Interiors: f.interiors,
		Base:      f.span.Lo,
		TwoSided:  f.rank != 0,
		NewBB:     f.newBB,
		ID:        f.rank,
		L:         f.l[:0],
		GNext:     f.gNext[:0],
		GTop:      f.gTop[:0],
		GArr:      f.gArr[:0],
	}
	if f.A > 0 {
		pe.Arrow = st.Arrow
		f.tipDelta.Zero()
		pe.TipDelta = f.tipDelta
	}
	err := pe.run()
	f.l, f.gNext, f.gTop, f.gArr, f.fill = pe.L, pe.GNext, pe.GTop, pe.GArr, pe.Fill
	return err
}

// factorReduced gathers every partition's boundary contribution on rank 0 —
// its own straight from the storage, the peers' from their messages — and
// factorizes the assembled system sequentially in place. Tip deltas fold in
// partition order.
func (f *partFactor) factorReduced(c *comm.Comm, store *LocalBTA) error {
	relabel(labelReduced)
	defer relabel(labelNone)
	bd := f.ownBoundary(store)
	bd[bFill] = f.fill
	if f.rank != 0 {
		sendBoundary(c, 0, &elimTags, bd)
		if f.A > 0 {
			c.SendMatrix(0, tagTip, f.tipDelta)
		}
		return nil
	}
	if f.A > 0 {
		f.red.Tip.CopyFrom(store.Tip)
		f.red.Tip.Add(1, f.tipDelta)
	}
	f.installReduced(0, bd)
	for r := 1; r < f.P; r++ {
		f.installReduced(r, f.recvBoundary(c, r, &elimTags, r))
		if f.A > 0 {
			f.red.Tip.Add(1, c.RecvMatrix(r, tagTip))
		}
	}
	var err error
	c.Compute(func() { err = f.redF.factorize() })
	return err
}

// installReduced copies partition g's boundary contribution into the
// reduced system: its post-elimination boundary Diag/Arrow blocks, the
// untouched coupling to the previous partition, and the remaining
// boundary-boundary fill of middle partitions, (hi_g, lo_g) = M(lo_g, hi_g)ᵀ.
func (f *partFactor) installReduced(g int, src boundary) {
	for i, dst := range f.reducedBoundary(f.red, g) {
		switch {
		case dst == nil:
		case i == bFill:
			src[i].TransposeInto(dst)
		default:
			dst.CopyFrom(src[i])
		}
	}
}

// solveCore builds the shared partition-relative solve core over the
// elimination outputs (valid after a successful refactorize).
func (f *partFactor) solveCore() partitionSolve {
	return partitionSolve{
		L: f.l, GNext: f.gNext, GTop: f.gTop, GArr: f.gArr,
		Interiors: f.interiors, Base: f.span.Lo, B: f.B,
	}
}

// redTip returns the tip slot of the reduced right-hand side.
func (f *partFactor) redTip() []float64 { return f.redRhs[reducedSize(f.P)*f.B:] }

// peerRhs returns the slice of the reduced right-hand side that rank r's
// boundary blocks occupy: its top block, and its bottom one unless r is
// the last rank.
func (f *partFactor) peerRhs(r int) []float64 {
	lo, hi := reducedIndexTop(r), reducedIndexBot(r)
	if r == f.P-1 {
		hi = lo
	}
	return f.redRhs[lo*f.B : (hi+1)*f.B]
}

// solve is PPOBTAS, in place of x = [owned blocks; tip]: forward elimination
// over the owned interiors, the reduced solve over the boundaries on rank 0,
// backward substitution. The tip slot is read on rank 0 and holds the
// replicated tip solution everywhere on return.
func (f *partFactor) solve(c *comm.Comm, x []float64) {
	if f.P == 1 {
		c.Compute(func() { f.seq.Solve(x) })
		return
	}
	b, a := f.B, f.A
	nb := f.span.Size() * b
	phase(c, labelSweep, func() {
		clear(f.tipVec)
		pv := f.solveCore()
		pv.forward(x[:nb], f.tipVec)
	})
	if f.rank != 0 {
		// Boundary values top first, then the tip contribution; the
		// solution comes back in the same layout.
		pl := f.stage[:0]
		for _, rel := range f.bndRel {
			pl = append(pl, x[rel*b:(rel+1)*b]...)
		}
		pl = append(pl, f.tipVec...)
		f.stage = pl
		c.Send(0, tagRhs, pl)
		sol := c.Recv(0, tagSol)
		for _, rel := range f.bndRel {
			copy(x[rel*b:(rel+1)*b], sol)
			sol = sol[b:]
		}
		copy(x[nb:nb+a], sol)
	} else {
		for i, rel := range f.bndRel {
			copy(f.redRhs[f.bndRed[i]*b:(f.bndRed[i]+1)*b], x[rel*b:(rel+1)*b])
		}
		if a > 0 {
			tip := f.redTip()
			copy(tip, x[nb:])
			dense.Axpy(1, f.tipVec, tip)
		}
		for r := 1; r < f.P; r++ {
			pl := c.Recv(r, tagRhs)
			n := copy(f.peerRhs(r), pl)
			if a > 0 {
				dense.Axpy(1, pl[n:n+a], f.redTip())
			}
		}
		c.Compute(func() { f.redF.Solve(f.redRhs) })
		for r := 1; r < f.P; r++ {
			f.stage = append(append(f.stage[:0], f.peerRhs(r)...), f.redTip()...)
			c.Send(r, tagSol, f.stage)
		}
		for i, rel := range f.bndRel {
			copy(x[rel*b:(rel+1)*b], f.redRhs[f.bndRed[i]*b:(f.bndRed[i]+1)*b])
		}
		copy(x[nb:], f.redTip())
	}
	phase(c, labelSweep, func() {
		pv := f.solveCore()
		pv.backward(x[:nb], x[nb:nb+a])
	})
}

// selinv is PPOBTASI into out, the rank's slice: selected inversion of the
// reduced boundary system on rank 0, scatter of its blocks to the
// partitions' owners, then every rank installs its boundary Σ blocks and
// runs its backward recursion over the interiors. A partition's sweep reads
// only blocks written by its own install plus the replicated tip.
func (f *partFactor) selinv(c *comm.Comm, out *LocalBTA) error {
	if f.P == 1 {
		w := out.whole()
		var err error
		c.Compute(func() { err = f.seq.SelectedInversionInto(&w) })
		return err
	}
	var sig boundary
	var tip *dense.Matrix
	if f.rank == 0 {
		var err error
		phase(c, labelReduced, func() { err = f.redF.SelectedInversionInto(f.redSig) })
		if err != nil {
			return err
		}
		for r := 1; r < f.P; r++ {
			sendBoundary(c, r, &sigTags, f.reducedBoundary(f.redSig, r))
		}
		sig = f.reducedBoundary(f.redSig, 0)
		tip = f.redSig.Tip
	} else {
		sig = f.recvBoundary(c, 0, &sigTags, f.rank)
	}
	if f.A > 0 {
		out.Tip.CopyFrom(c.BcastMatrix(0, tip))
	}
	var err error
	phase(c, labelSigma, func() {
		f.installSigma(out, sig)
		err = f.sweep(out, sig[bFill])
	})
	return err
}

// installSigma copies the owned partition's boundary Σ blocks sig into the
// output.
func (f *partFactor) installSigma(out *LocalBTA, sig boundary) {
	for i, dst := range f.ownBoundary(out) {
		if dst != nil {
			dst.CopyFrom(sig[i])
		}
	}
	if sig[bFill] != nil && len(f.interiors) == 0 {
		// Size-2 middle partition: its within coupling is a
		// boundary-boundary block of the reduced system.
		out.Lower[0].CopyFrom(sig[bFill])
	}
}

// sweep runs the owned partition's backward selected-inversion recursion
// over its interiors through the shared partitionSweep core, writing
// straight into the output and drawing every temporary from the
// preallocated scratch. sigBotTop is the reduced Σ(hi, lo) of a middle
// partition (nil otherwise).
func (f *partFactor) sweep(out *LocalBTA, sigBotTop *dense.Matrix) error {
	if len(f.interiors) == 0 {
		return nil
	}
	pw := partitionSweep{
		L: f.l, GNext: f.gNext, GTop: f.gTop, GArr: f.gArr,
		Interiors: f.interiors, Base: f.span.Lo, TwoSided: f.rank != 0,
		Diag:  out.Diag,
		Lower: out.Lower,
		// Σ(hi, lo) of middle partitions seeds the rolling Σ(lo,·).
		SigBotTop: sigBotTop,
		LoBuf:     f.loBuf,
		ID:        f.rank,
	}
	if f.A > 0 {
		pw.Arrow = out.Arrow
		pw.SigTip = out.Tip
	}
	return pw.run()
}
