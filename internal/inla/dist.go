package inla

import (
	"errors"
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/model"
)

// Plan is the resource assignment across the nested parallelization layers
// (§V-D policy: fill S1 first, then S3 — unless the densified matrix
// exceeds device memory, which forces S3 width first). S3 gives each
// solver rank one partition of the time domain (§IV-C). The paper's S2
// layer, which factorizes Q_p beside Q_c, has no work here: an evaluation
// factorizes Q_c alone, so the ranks S2 would take are S3 partitions.
type Plan struct {
	World  int
	NFeval int
	// Groups is the S1 width; GroupSizes[g] ranks per group.
	Groups     int
	GroupSizes []int
	// SolverWidths[g] is group g's S3 solver width,
	// min(GroupSizes[g], bta.MaxPartitions(nt)): the group's first ranks
	// factorize, one time partition each, and the others sit out.
	SolverWidths []int
	// P3Min is the S3 rank width forced by the device-memory cap (1 = no
	// constraint).
	P3Min int
}

// nodeWorkingSetBytes models the steady-state device bytes one solver rank
// holds: its 1/p3 slice of the densified blocks, the fill-coupling chain of
// its two-sided partition (one extra b×b block per owned block), and the
// partition's solve/sweep scratch.
func nodeWorkingSetBytes(qcBytes int64, p3, b, a int) int64 {
	slice := ceilDiv(qcBytes, int64(p3))
	if b > 0 {
		// fill chains ≈ the b×b-per-block share of the slice: b²/(2b²+ab).
		slice += ceilDiv(qcBytes, int64(p3)) * int64(b) / int64(2*b+a)
		// sweep + solve temporaries (7 b×b, 2 a×b, 1 a×a).
		slice += 8 * int64(7*b*b+2*a*b+a*a)
	}
	return slice
}

func ceilDiv(n, d int64) int64 { return (n + d - 1) / d }

// MakePlan computes the layer assignment for a world of the given size.
// qcBytes is the densified Q_c footprint (bta.Matrix.BytesDense), memCap
// the per-device memory model (0 = unlimited), ntBlocks/blockSize/arrowSize
// the BTA shape (ntBlocks bounds the useful S3 width; blockSize 0 disables
// the fill-chain term, reproducing the slice-only model).
//
// P3Min is the smallest rank width whose per-rank working set — the matrix
// slice plus the fill-chain storage the partitioned elimination adds —
// fits the cap, bounded by what the time dimension can partition.
func MakePlan(world, nfeval int, qcBytes, memCap int64, ntBlocks, blockSize, arrowSize int) Plan {
	mx := bta.MaxPartitions(ntBlocks)
	p3min := 1
	if memCap > 0 {
		for nodeWorkingSetBytes(qcBytes, p3min, blockSize, arrowSize) > memCap && p3min < mx {
			p3min++
		}
	}
	groups := min(nfeval, max(1, world/p3min))
	sizes := spread(world, groups)
	widths := make([]int, groups)
	for g, s := range sizes {
		widths[g] = min(s, mx)
	}
	return Plan{World: world, NFeval: nfeval, Groups: groups, GroupSizes: sizes, SolverWidths: widths, P3Min: p3min}
}

// spread splits total into n near-equal descending parts.
func spread(total, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
		if i < total%n {
			out[i]++
		}
	}
	return out
}

// GroupOf returns the S1 group of a world rank under contiguous assignment.
func (p Plan) GroupOf(rank int) int {
	off := 0
	for g, s := range p.GroupSizes {
		if rank < off+s {
			return g
		}
		off += s
	}
	return p.Groups - 1
}

// DistConfig configures a simulated distributed INLA run.
type DistConfig struct {
	World   int
	Machine comm.Machine
	// MemCapBytes models per-device memory (0 = unlimited).
	MemCapBytes int64
	// Iterations caps the BFGS iterations of the mode search
	// (OptOptions.MaxIter, < 1 = 1); every other optimizer setting is
	// DefaultOptOptions().
	Iterations int
	// Faults injects a deterministic communication-fault plan (message
	// delays, scheduled rank deaths) into the run; nil runs fault-free.
	// Scheduled deaths are recovered by shrinking the world onto the
	// survivors and re-evaluating the interrupted batch.
	Faults *comm.FaultPlan
	// MaxShrinks bounds how many shrink-and-retry recoveries the run
	// attempts before giving up (0 = World−1, i.e. down to a single rank;
	// negative = fail on the first fault without recovering).
	MaxShrinks int
}

// DistReport aggregates a distributed run.
type DistReport struct {
	Plan     Plan
	Stats    comm.Stats
	Makespan float64 // virtual seconds, total
	PerIter  float64 // virtual seconds per BFGS iteration (Opt.Iterations)
	// Opt is the mode search every rank ran: θ, F, trace, iterations,
	// evaluations and convergence, identical on every rank.
	Opt *OptResult
	// Shrinks counts the shrink-and-retry recoveries the run performed;
	// Survivors is the world size that finished it (World − ranks lost).
	Shrinks   int
	Survivors int
}

// RunDistributed runs the INLA mode search SPMD over the simulated machine
// with the S1 and S3 layers and reports virtual-time statistics. Every rank
// runs Minimize, the optimizer of every backend, on its own commEvaluator:
// the gradient stencils and line-search candidates of each BFGS iteration
// are spread over the S1 groups, each group evaluates its points with one
// Q_c factorization on its S3 solver, and a world reduction hands every
// rank the same values. An undefined gradient stops the run
// with ErrGradientUndefined; a failed line search keeps the iterate, as in
// Fit.
func RunDistributed(m *model.Model, prior Prior, theta0 []float64, cfg DistConfig) (*DistReport, error) {
	run, err := newDistRun(m, prior, theta0, cfg)
	if err != nil {
		return nil, err
	}
	opt := DefaultOptOptions()
	opt.MaxIter = max(1, cfg.Iterations)

	// Written by rank 0 of the world that finishes the run.
	rep := &DistReport{Plan: run.planFor(cfg.World)}
	var optErr error
	st, runErr := comm.Run(cfg.World, cfg.Machine, cfg.Faults, func(world *comm.Comm) error {
		e := &commEvaluator{run: run}
		e.join(world)
		res, err := Minimize(e, theta0, opt)
		if e.err != nil {
			return e.err
		}
		if e.world.Rank() == 0 {
			rep.Opt, optErr = res, err
			rep.Shrinks, rep.Survivors = e.shrinks, e.world.Size()
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	if optErr != nil && !errors.Is(optErr, ErrLineSearchFailed) {
		return nil, optErr
	}
	rep.Stats, rep.Makespan = st, st.Makespan()
	rep.PerIter = rep.Makespan / float64(max(1, rep.Opt.Iterations))
	return rep, nil
}

// distRun is what the ranks of one RunDistributed call share: the model,
// the configuration and the planner's inputs.
type distRun struct {
	m          *model.Model
	prior      Prior
	cfg        DistConfig
	nfeval     int
	qcBytes    int64
	maxShrinks int // negative: none
}

func newDistRun(m *model.Model, prior Prior, theta0 []float64, cfg DistConfig) (*distRun, error) {
	if m.Lik != model.LikGaussian {
		return nil, fmt.Errorf("inla: the distributed driver supports the Gaussian likelihood (the paper's evaluation case); got %v", m.Lik)
	}
	if cfg.World < 1 {
		return nil, fmt.Errorf("inla: world size %d < 1", cfg.World)
	}
	if _, err := m.DecodeTheta(theta0); err != nil {
		return nil, err
	}
	r := &distRun{m: m, prior: prior, cfg: cfg, nfeval: 2*len(theta0) + 1,
		qcBytes: bta.BytesDense(m.Dims.BTAShape()), maxShrinks: cfg.MaxShrinks}
	if r.maxShrinks == 0 {
		r.maxShrinks = cfg.World - 1
	}
	return r, nil
}

func (r *distRun) planFor(world int) Plan {
	_, b, a := r.m.Dims.BTAShape()
	return MakePlan(world, r.nfeval, r.qcBytes, r.cfg.MemCapBytes, r.m.Dims.Nt, b, a)
}

// commEvaluator is one rank's Evaluator over the simulated machine.
// EvalBatch spreads the points round-robin over the S1 groups, each group
// evaluates its points with evalFobj, and a world AllReduceSum hands
// every rank the whole batch. Every rank therefore holds the same values,
// and the Minimize each rank runs keeps the same BFGS state everywhere
// without a θ broadcast.
//
// A batch is all-or-nothing. A Retryable fault shrinks the world onto the
// survivors, replans, and re-evaluates the whole batch; collectives
// complete all-or-nothing, so every survivor retries the same batch. A
// fault that cannot be retried, or one past the shrink budget, is kept on
// err, and every later batch evaluates to +Inf without communicating, so
// Minimize stops.
type commEvaluator struct {
	run   *distRun
	world *comm.Comm
	plan  Plan
	g     int // this rank's S1 group
	group *comm.Comm
	// solver is the group's first P = plan.SolverWidths[g] ranks, one time
	// partition each (parts, bta.Partitions' split); nil on the group's
	// other ranks.
	solver *comm.Comm
	parts  []bta.Partition
	// The rank's solver state for this topology, built on first use: the
	// sequential arena of a one-rank solver, or the local slice, the
	// distributed factor and the evaluation's vectors of a wider one.
	ws      *solverScratch
	local   *bta.LocalBTA
	fac     *bta.DistFactor
	vec     evalVectors
	shrinks int
	err     error
}

// join plans the S1 groups over world and gives this rank its group, its
// S3 solver and fresh solver state; a shrink joins the survivors' world.
// A solver width is at most bta.MaxPartitions(nt), which the split always
// fits; a split error would be kept on err like a fault past recovery.
func (e *commEvaluator) join(world *comm.Comm) {
	e.world = world
	e.plan = e.run.planFor(world.Size())
	e.g = e.plan.GroupOf(world.Rank())
	e.group = world.Split(e.g, world.Rank())
	e.ws, e.local, e.fac = nil, nil, nil
	p := e.plan.SolverWidths[e.g]
	e.parts, e.err = bta.Partitions(e.run.m.Dims.Nt, p)
	e.solver = e.group
	if p < e.group.Size() {
		// Color 0: the group's first p ranks; 1: the ranks that sit out.
		color := min(1, e.group.Rank()/p)
		if e.solver = e.group.Split(color, e.group.Rank()); color == 1 {
			e.solver = nil
		}
	}
}

// EvalBatch evaluates −fobj at every point, +Inf for infeasible ones.
func (e *commEvaluator) EvalBatch(points [][]float64) []float64 {
	for e.err == nil {
		var vals []float64
		err := comm.Catch(func() { vals = e.evalBatch(points) })
		switch {
		case err == nil:
			return vals
		case !comm.Retryable(err):
			e.err = err
		case e.shrinks >= e.run.maxShrinks:
			e.err = fmt.Errorf("inla: shrink budget exhausted after %d recoveries: %w", e.shrinks, err)
		default:
			// Revoke the wounded topology and redistribute the dead ranks'
			// partitions by replanning over the survivors.
			e.shrinks++
			e.join(e.world.Shrink())
		}
	}
	vals := make([]float64, len(points))
	for i := range vals {
		vals[i] = math.Inf(1)
	}
	return vals
}

func (e *commEvaluator) evalBatch(points [][]float64) []float64 {
	vals := make([]float64, len(points))
	for i := e.g; i < len(points); i += e.plan.Groups {
		f := e.evalFobj(points[i])
		if e.group.Rank() == 0 {
			vals[i] = f
		}
	}
	// World-level reduction of the batch (the ⊕ of Fig. 3a).
	return e.world.AllReduceSum(vals)
}

// StencilPlan reports one core per S1 group, so the line search of
// Minimize evaluates one candidate per group.
func (e *commEvaluator) StencilPlan(width int) SharedPlan {
	return SharedPlan{Cores: e.plan.Groups}
}

// evalFobj evaluates −fobj(θ) on this rank's S1 group with the arithmetic
// of evalFobjScratch. A one-rank solver runs evalFobjScratch on the rank's
// own arena. On a wider solver each rank assembles its own slice of Q_c in
// place and the right-hand side (§IV-F), the solver runs one PPOBTAF and
// one PPOBTAS over its time partitions, and its root gathers μ and alone
// runs closeFobj. The value, +Inf for an infeasible point, is valid on the
// group's rank 0 (the solver root); ranks outside the solver do nothing.
func (e *commEvaluator) evalFobj(theta []float64) float64 {
	solver, m, prior := e.solver, e.run.m, e.run.prior
	if solver == nil {
		return 0
	}
	if solver.Size() == 1 {
		if e.ws == nil {
			e.ws = newSolverScratch(m)
		}
		var parts FobjParts
		var err error
		solver.Compute(func() { parts, err = evalFobjScratch(m, prior, theta, e.ws) })
		if err != nil {
			return math.Inf(1)
		}
		return -parts.F()
	}

	n, b, a := m.Dims.BTAShape()
	var err error
	if e.fac == nil {
		if e.local, err = bta.NewLocalBTA(e.parts, solver.Rank(), n, b, a); err != nil {
			return math.Inf(1)
		}
		if e.fac, err = bta.NewDistFactor(e.local); err != nil {
			return math.Inf(1)
		}
		e.vec = newEvalVectors(m)
	}
	// Each rank's own work, on its own clock: decode θ (every rank fails
	// alike), assemble its slice of Q_c in place, build the right-hand side.
	var t *model.Theta
	v := &e.vec
	solver.Compute(func() {
		if t, err = m.DecodeTheta(theta); err == nil {
			if err = m.QcInto(t, e.local.View); err == nil {
				m.CondRHSInto(t, v.mu, v.pm, v.obs)
			}
		}
	})
	if err != nil {
		return math.Inf(1)
	}
	if err = bta.PPOBTAF(solver, e.fac, e.local); err != nil {
		return math.Inf(1)
	}
	tip, span := n*b, e.local.Part
	x, xTip, err := bta.PPOBTAS(solver, e.fac, v.mu[span.Lo*b:(span.Hi+1)*b], v.mu[tip:tip+a])
	if err != nil {
		return math.Inf(1)
	}
	gathered := solver.Gather(0, x)
	if solver.Rank() != 0 {
		return 0
	}
	off := 0
	for _, part := range gathered {
		off += copy(v.mu[off:], part)
	}
	copy(v.mu[tip:], xTip)
	logDetQc := e.fac.LogDet()
	var parts FobjParts
	solver.Compute(func() { parts, err = closeFobj(m, prior, t, theta, v.mu, logDetQc, v) })
	if err != nil {
		return math.Inf(1)
	}
	return -parts.F()
}
