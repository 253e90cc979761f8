package bta

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sched"
)

// Precomputed pprof label contexts for the gang phases: applying a label set
// is allocation-free, so a CPU profile of the partitioned solvers (say,
// `go test ./internal/bta -run 'Parallel|Dist' -cpuprofile cpu.out`)
// attributes samples per phase without disturbing the AllocsPerRun pins.
var (
	labelElim    = sched.LabelCtx("phase", "elim")
	labelReduced = sched.LabelCtx("phase", "reduced")
	labelSweep   = sched.LabelCtx("phase", "sweep")
	labelSigma   = sched.LabelCtx("phase", "sigma")
	labelNone    = context.Background()
)

// phaseLabelCtx maps a gang phase to its pprof label context ("reduced" is
// applied around the boundary-system work directly).
func phaseLabelCtx(ph int) context.Context {
	switch ph {
	case phaseElim:
		return labelElim
	case phaseSigma:
		return labelSigma
	}
	return labelSweep
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

// MaxUsefulPartitions bounds the parallel-in-time width by diminishing
// returns rather than bare partitionability: beyond n/4 partitions the
// 2P−2-block sequential reduced system rivals the per-partition interior
// work and the speedup collapses (§V-B's strong-scaling knee). This is the
// clamp schedulers should use when converting a core budget to a width.
func MaxUsefulPartitions(n int) int {
	p := n / 4
	if mx := MaxPartitions(n); p > mx {
		p = mx
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Gang phases dispatched to the owned partitions. Per-call inputs travel
// through the store/x/sig fields, set before the gang launches.
const (
	phaseElim = iota
	phaseFwd
	phaseBwd
	phaseSigma
)

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

// partState is one owned partition's persistent slice of the partitioned
// factor: elimination outputs, fill-chain storage, Schur/tip accumulators
// and the selected-inversion sweep scratch. Everything is allocated once at
// construction so repeated refactorize/solve/selinv cycles stay
// allocation-free.
type partState struct {
	part      Partition
	global    int   // index in the global partition list
	off       int   // block offset of part.Lo within the owner's span
	interiors []int // global block indices, elimination order

	// Boundary blocks, top first: span-relative block offsets and the
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

	// selected-inversion sweep scratch and the Σ boundary blocks handed to
	// the phaseSigma body
	loBuf [2]*dense.Matrix // b×b ping-pong for the rolling Σ(lo,·)
	sig   boundary

	err error
}

// partFactor is the one partitioned BTA driver: PPOBTAF/PPOBTAS/PPOBTASI of
// §IV-C–E over a time-domain partitioning. An instance owns a run of
// consecutive partitions of the global list, sweeps them as one gang on one
// executor, and — when it owns partition 0 — holds the 2P−2-block reduced
// boundary system. Either one owner holds every partition — there are no
// peers, the exchange loops run zero times and the communicator may be nil:
// that is ParallelFactor — or each of P ranks of a communicator owns one,
// and the peers' boundary blocks arrive as messages installed by the same
// code that installs the owned ones: that is DistFactor, with comm.Compute
// charging the partition's wall time to the rank's virtual clock.
//
// All storage — including the task nodes and their bodies — is created at
// construction, so every operation is allocation-free after warmup apart
// from the message layer.
type partFactor struct {
	N, B, A int // global BTA shape
	P       int // total partition count

	span  Partition // owned block range
	rank  int       // communicator rank = global index of the first owned partition
	ranks int       // communicator size: 1 (every partition owned) or P
	ps    []*partState

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

	// One gang on one executor: caller-owned task nodes for the owned
	// partitions 1..q−1, reused across cycles (partition 0 runs on the
	// calling goroutine).
	ex      *sched.Executor
	g       sched.Group
	tasks   []sched.Task
	fnPhase []func()
	gang    func() // runGang, bound once so handing it to comm.Compute is alloc-free

	// current phase and its per-call inputs
	phase int
	store *LocalBTA // block storage the elimination consumes as workspace
	x     []float64 // [owned blocks; tip] solve vector
	sig   *LocalBTA // selected-inversion output
}

// init builds the driver for rank, the owner of the consecutive partitions
// sub of a p-partition global list: all of them (rank 0), or partition rank
// alone.
func (f *partFactor) init(n, b, a int, sub []Partition, rank, p int, ex *sched.Executor) error {
	f.N, f.B, f.A, f.P = n, b, a, p
	f.rank, f.ranks = rank, 1
	if len(sub) < p {
		f.ranks = p
	}
	f.span = Partition{Lo: sub[0].Lo, Hi: sub[len(sub)-1].Hi}
	if p == 1 {
		f.seq = NewFactor(n, b, a)
		return nil
	}

	if rank == 0 {
		nr := reducedSize(p)
		f.red = NewMatrix(nr, b, a)
		f.redF = newFactor(f.red)
		f.redSig = NewMatrix(nr, b, a)
		f.redRhs = make([]float64, nr*b+a)
	}

	f.ps = make([]*partState, len(sub))
	for j, part := range sub {
		g := rank + j
		ps := &partState{part: part, global: g, off: part.Lo - f.span.Lo, interiors: interiors(part, g, p)}
		if g > 0 {
			ps.bndRel = append(ps.bndRel, ps.off)
			ps.bndRed = append(ps.bndRed, reducedIndexTop(g))
		}
		if g < p-1 {
			ps.bndRel = append(ps.bndRel, ps.off+part.Size()-1)
			ps.bndRed = append(ps.bndRed, reducedIndexBot(g))
		}
		nInt := len(ps.interiors)
		if g > 0 {
			ps.chain = make([]*dense.Matrix, nInt+1)
			for i := range ps.chain {
				ps.chain[i] = dense.New(b, b)
			}
			ps.loBuf[0] = dense.New(b, b)
			ps.loBuf[1] = dense.New(b, b)
		}
		ps.newBB = func() *dense.Matrix {
			m := ps.chain[ps.chainUsed]
			ps.chainUsed++
			return m
		}
		ps.l = make([]*dense.Matrix, 0, nInt)
		ps.gNext = make([]*dense.Matrix, 0, nInt)
		ps.gTop = make([]*dense.Matrix, 0, nInt)
		ps.gArr = make([]*dense.Matrix, 0, nInt)
		if a > 0 {
			ps.tipDelta = dense.New(a, a)
			ps.tipVec = make([]float64, a)
		}
		f.ps[j] = ps
	}

	// Bodies are prebuilt once here so steady-state spawning stays
	// allocation-free.
	f.ex = ex
	if f.ex == nil {
		f.ex = sched.Shared()
	}
	f.g.Init(f.ex)
	f.tasks = make([]sched.Task, len(sub))
	f.fnPhase = make([]func(), len(sub))
	for j := 1; j < len(sub); j++ {
		f.fnPhase[j] = func() { f.partitionPhase(f.ps[j]) }
	}
	f.gang = f.runGang
	return nil
}

// compute runs fn, under the communicator's compute lock with its wall time
// charged to the rank's virtual clock when there is one.
func compute(c *comm.Comm, fn func()) {
	if c == nil {
		fn()
		return
	}
	c.Compute(fn)
}

// anyFailed reports whether any owner observed an error (collectively, so
// no rank is left blocked in a later exchange).
func anyFailed(c *comm.Comm, err error) bool {
	if c == nil {
		return err != nil
	}
	flag := 0.0
	if err != nil {
		flag = 1
	}
	return c.AllReduceMax([]float64{flag})[0] > 0
}

// runPhase fans phase ph out to the owned partitions. Under a communicator
// the gang's makespan is charged as one compute interval of the rank.
func (f *partFactor) runPhase(c *comm.Comm, ph int) {
	f.phase = ph
	compute(c, f.gang)
}

// runGang runs the current phase for every owned partition: partitions
// 1..q−1 become tasks on a pooled lane of the executor — runnable by any
// worker or helping joiner, and interleaved with tasks from other concurrent
// operations — while partition 0 runs on the calling goroutine, which then
// help-joins.
func (f *partFactor) runGang() {
	lbl := phaseLabelCtx(f.phase)
	relabel(lbl)
	if q := len(f.ps); q == 1 {
		f.partitionPhase(f.ps[0])
	} else {
		l := f.ex.AcquireLane()
		f.g.Add(q - 1)
		for j := 1; j < q; j++ {
			f.tasks[j].Reset(f.ex, &f.g, f.fnPhase[j], lbl)
			l.Spawn(&f.tasks[j])
		}
		f.partitionPhase(f.ps[0])
		f.g.Wait(l)
		f.ex.ReleaseLane(l)
	}
	relabel(labelNone)
}

func (f *partFactor) partitionPhase(ps *partState) {
	size := ps.part.Size()
	switch f.phase {
	case phaseElim:
		ps.err = f.elimPartition(ps)
	case phaseFwd:
		for i := range ps.tipVec {
			ps.tipVec[i] = 0
		}
		pv := f.solveCore(ps)
		pv.forward(f.x[ps.off*f.B:(ps.off+size)*f.B], ps.tipVec)
	case phaseBwd:
		nb := f.span.Size() * f.B
		pv := f.solveCore(ps)
		pv.backward(f.x[ps.off*f.B:(ps.off+size)*f.B], f.x[nb:nb+f.A])
	case phaseSigma:
		f.installSigma(ps)
		ps.err = f.sweepPartition(ps)
	}
}

// firstErr returns the first owned partition's error of the last phase.
func (f *partFactor) firstErr() error {
	for _, ps := range f.ps {
		if ps.err != nil {
			return ps.err
		}
	}
	return nil
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

// ownBoundary locates an owned partition's boundary blocks inside a slice
// over the owner's span — the factor storage or the Σ output. The fill slot
// has no home in the BTA pattern and stays nil.
func (f *partFactor) ownBoundary(l *LocalBTA, ps *partState) boundary {
	var bd boundary
	lo, hi := ps.off, ps.off+ps.part.Size()-1
	if f.hasBlock(ps.global, bTop) {
		bd[bTop], bd[bCoupling] = l.Diag[lo], l.above(lo)
	}
	if f.hasBlock(ps.global, bBot) {
		bd[bBot] = l.Diag[hi]
	}
	if f.hasBlock(ps.global, bArrTop) {
		bd[bArrTop] = l.Arrow[lo]
	}
	if f.hasBlock(ps.global, bArrBot) {
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

// refactorize is PPOBTAF: every owner eliminates the interiors of its
// partitions concurrently — non-first partitions run the costlier two-sided
// elimination that also updates their top boundary — then rank 0 assembles
// and factorizes the reduced system over the 2P−2 boundary blocks. store,
// which the caller filled with the matrix, is consumed as workspace. On
// error the factor contents are undefined until the next successful call;
// all scratch is retained either way, so infeasible-θ failures in the INLA
// loop cost no allocation churn.
//
// Error handling is collective: a failed Cholesky on any rank must not
// leave peers blocked in an exchange, so ranks agree on success after each
// phase.
func (f *partFactor) refactorize(c *comm.Comm, store *LocalBTA) error {
	f.store = store
	if f.P == 1 { // a one-rank DistFactor: its slice is copied into seq
		w := store.whole()
		var err error
		compute(c, func() { err = f.seq.Refactorize(&w) })
		if err == nil {
			f.logDet = f.seq.LogDet()
		}
		return err
	}
	f.runPhase(c, phaseElim)
	if err := f.firstErr(); anyFailed(c, err) {
		if err != nil {
			return err
		}
		return fmt.Errorf("bta: rank %d: a peer rank failed local elimination", f.rank)
	}
	if err := f.factorReduced(c); anyFailed(c, err) {
		if err != nil {
			return fmt.Errorf("bta: reduced boundary system: %w", err)
		}
		return fmt.Errorf("bta: rank %d: reduced-system factorization failed", f.rank)
	}

	// log|A|, folded per partition in partition order: each contributes
	// its interior Cholesky diagonals, partition 0 also the reduced
	// factor's log-determinant. The P ranks' contributions meet in
	// AllReduceSum's rank-order fold, the same additions in the same order.
	var s float64
	for _, ps := range f.ps {
		var d float64
		for _, lk := range ps.l {
			for i := 0; i < f.B; i++ {
				d += math.Log(lk.At(i, i))
			}
		}
		d *= 2
		if ps.global == 0 {
			d += f.redF.LogDet()
		}
		s += d
	}
	if c != nil {
		s = c.AllReduceSum([]float64{s})[0]
	}
	f.logDet = s
	return nil
}

// elimPartition runs the shared interior elimination core on one owned
// partition's slice of the storage.
func (f *partFactor) elimPartition(ps *partState) error {
	st := f.store
	lo, hi := ps.off, ps.off+ps.part.Size()-1
	ps.chainUsed = 0
	pe := partitionElim{
		Diag:      st.Diag[lo : hi+1],
		Lower:     st.Lower[lo:hi],
		Interiors: ps.interiors,
		Base:      ps.part.Lo,
		TwoSided:  ps.global != 0,
		NewBB:     ps.newBB,
		ID:        ps.global,
		L:         ps.l[:0],
		GNext:     ps.gNext[:0],
		GTop:      ps.gTop[:0],
		GArr:      ps.gArr[:0],
	}
	if f.A > 0 {
		pe.Arrow = st.Arrow[lo : hi+1]
		ps.tipDelta.Zero()
		pe.TipDelta = ps.tipDelta
	}
	err := pe.run()
	ps.l, ps.gNext, ps.gTop, ps.gArr, ps.fill = pe.L, pe.GNext, pe.GTop, pe.GArr, pe.Fill
	return err
}

// factorReduced gathers every partition's boundary contribution on rank 0 —
// owned ones straight from the storage, the peers' from their messages —
// and factorizes the assembled system sequentially in place. Tip deltas
// fold in partition order.
func (f *partFactor) factorReduced(c *comm.Comm) error {
	relabel(labelReduced)
	defer relabel(labelNone)
	if f.rank != 0 {
		ps := f.ps[0]
		bd := f.ownBoundary(f.store, ps)
		bd[bFill] = ps.fill
		sendBoundary(c, 0, &elimTags, bd)
		if f.A > 0 {
			c.SendMatrix(0, tagTip, ps.tipDelta)
		}
		return nil
	}
	if f.A > 0 {
		f.red.Tip.CopyFrom(f.store.Tip)
	}
	for _, ps := range f.ps {
		bd := f.ownBoundary(f.store, ps)
		bd[bFill] = ps.fill
		f.installReduced(ps.global, bd)
		if f.A > 0 {
			f.red.Tip.Add(1, ps.tipDelta)
		}
	}
	for r := 1; r < f.ranks; r++ {
		f.installReduced(r, f.recvBoundary(c, r, &elimTags, r))
		if f.A > 0 {
			f.red.Tip.Add(1, c.RecvMatrix(r, tagTip))
		}
	}
	var err error
	compute(c, func() { err = f.redF.factorize() })
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

// solveCore builds the shared partition-relative solve core over an owned
// partition's elimination outputs (valid after a successful refactorize).
func (f *partFactor) solveCore(ps *partState) partitionSolve {
	return partitionSolve{
		L: ps.l, GNext: ps.gNext, GTop: ps.gTop, GArr: ps.gArr,
		Interiors: ps.interiors, Base: ps.part.Lo, B: f.B,
	}
}

// redTip returns the tip slot of the reduced right-hand side.
func (f *partFactor) redTip() []float64 { return f.redRhs[reducedSize(f.P)*f.B:] }

// gatherRhs copies the owned boundary blocks and the tip of x into the
// reduced right-hand side. withAcc folds the owned partitions' forward tip
// accumulators in — only correct right after a forward phase.
func (f *partFactor) gatherRhs(x []float64, withAcc bool) {
	b := f.B
	for _, ps := range f.ps {
		for i, rel := range ps.bndRel {
			copy(f.redRhs[ps.bndRed[i]*b:(ps.bndRed[i]+1)*b], x[rel*b:(rel+1)*b])
		}
	}
	if f.A > 0 {
		tip := f.redTip()
		copy(tip, x[f.span.Size()*b:])
		if withAcc {
			for _, ps := range f.ps {
				dense.Axpy(1, ps.tipVec, tip)
			}
		}
	}
}

// scatterRhs copies the reduced solution back into the owned boundary and
// tip slots of x.
func (f *partFactor) scatterRhs(x []float64) {
	b := f.B
	for _, ps := range f.ps {
		for i, rel := range ps.bndRel {
			copy(x[rel*b:(rel+1)*b], f.redRhs[ps.bndRed[i]*b:(ps.bndRed[i]+1)*b])
		}
	}
	copy(x[f.span.Size()*b:], f.redTip())
}

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
		compute(c, func() { f.seq.Solve(x) })
		return
	}
	b, a := f.B, f.A
	nb := f.span.Size() * b
	f.x = x
	f.runPhase(c, phaseFwd)
	if f.rank != 0 {
		// Boundary values top first, then the tip contribution; the
		// solution comes back in the same layout.
		ps := f.ps[0]
		pl := f.stage[:0]
		for _, rel := range ps.bndRel {
			pl = append(pl, x[rel*b:(rel+1)*b]...)
		}
		pl = append(pl, ps.tipVec...)
		f.stage = pl
		c.Send(0, tagRhs, pl)
		sol := c.Recv(0, tagSol)
		for _, rel := range ps.bndRel {
			copy(x[rel*b:(rel+1)*b], sol)
			sol = sol[b:]
		}
		copy(x[nb:nb+a], sol)
	} else {
		f.gatherRhs(x, true)
		for r := 1; r < f.ranks; r++ {
			pl := c.Recv(r, tagRhs)
			n := copy(f.peerRhs(r), pl)
			if a > 0 {
				dense.Axpy(1, pl[n:n+a], f.redTip())
			}
		}
		compute(c, func() { f.redF.Solve(f.redRhs) })
		for r := 1; r < f.ranks; r++ {
			f.stage = append(append(f.stage[:0], f.peerRhs(r)...), f.redTip()...)
			c.Send(r, tagSol, f.stage)
		}
		f.scatterRhs(x)
	}
	f.runPhase(c, phaseBwd)
	f.x = nil
}

// selinv is PPOBTASI into out, a slice over the owner's span: selected
// inversion of the reduced boundary system on rank 0, scatter of its blocks
// to the partitions' owners, then — one gang phase — every owned partition
// installs its boundary Σ blocks and runs its backward recursion over the
// interiors. A partition's sweep reads only blocks written by its own
// install plus the replicated tip, landed before the gang starts.
func (f *partFactor) selinv(c *comm.Comm, out *LocalBTA) error {
	if f.P == 1 {
		w := out.whole()
		var err error
		compute(c, func() { err = f.seq.SelectedInversionInto(&w) })
		return err
	}
	var tip *dense.Matrix
	if f.rank == 0 {
		var err error
		relabel(labelReduced)
		compute(c, func() { err = f.redF.SelectedInversionInto(f.redSig) })
		relabel(labelNone)
		if err != nil {
			return err
		}
		for r := 1; r < f.ranks; r++ {
			sendBoundary(c, r, &sigTags, f.reducedBoundary(f.redSig, r))
		}
		for _, ps := range f.ps {
			ps.sig = f.reducedBoundary(f.redSig, ps.global)
		}
		tip = f.redSig.Tip
	} else {
		f.ps[0].sig = f.recvBoundary(c, 0, &sigTags, f.rank)
	}
	if f.A > 0 {
		if c != nil {
			tip = c.BcastMatrix(0, tip)
		}
		out.Tip.CopyFrom(tip)
	}
	f.sig = out
	f.runPhase(c, phaseSigma)
	f.sig = nil
	return f.firstErr()
}

// installSigma copies an owned partition's boundary Σ blocks into the
// output. Every destination belongs to the partition alone, so installs of
// different partitions commute.
func (f *partFactor) installSigma(ps *partState) {
	for i, dst := range f.ownBoundary(f.sig, ps) {
		if dst != nil {
			dst.CopyFrom(ps.sig[i])
		}
	}
	if ps.sig[bFill] != nil && len(ps.interiors) == 0 {
		// Size-2 middle partition: its within coupling is a
		// boundary-boundary block of the reduced system.
		f.sig.Lower[ps.off].CopyFrom(ps.sig[bFill])
	}
}

// sweepPartition runs one owned partition's backward selected-inversion
// recursion over its interiors through the shared partitionSweep core,
// writing straight into the output and drawing every temporary from the
// partition's preallocated scratch.
func (f *partFactor) sweepPartition(ps *partState) error {
	if len(ps.interiors) == 0 {
		return nil
	}
	out := f.sig
	lo, hi := ps.off, ps.off+ps.part.Size()-1
	pw := partitionSweep{
		L: ps.l, GNext: ps.gNext, GTop: ps.gTop, GArr: ps.gArr,
		Interiors: ps.interiors, Base: ps.part.Lo, TwoSided: ps.global != 0,
		Diag:  out.Diag[lo : hi+1],
		Lower: out.Lower[lo:hi],
		// Σ(hi, lo) of middle partitions seeds the rolling Σ(lo,·).
		SigBotTop: ps.sig[bFill],
		LoBuf:     ps.loBuf,
		ID:        ps.global,
	}
	if f.A > 0 {
		pw.Arrow = out.Arrow[lo : hi+1]
		pw.SigTip = out.Tip
	}
	return pw.run()
}
