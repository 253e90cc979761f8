package inla

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
)

// Plan is the resource assignment across the three nested parallelization
// layers (§V-D policy: fill S1 first, then S2, then S3 — unless the
// densified matrix exceeds device memory, which forces S3 width first).
// S3 gives each solver rank one partition of the time domain (§IV-C).
type Plan struct {
	World  int
	NFeval int
	// Groups is the S1 width; GroupSizes[g] ranks per group.
	Groups     int
	GroupSizes []int
	// UseS2 splits each group into the Q_p and Q_c pipelines.
	UseS2 bool
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
	maxGroups := world / p3min
	if maxGroups < 1 {
		maxGroups = 1
	}
	groups := nfeval
	if groups > maxGroups {
		groups = maxGroups
	}
	sizes := spread(world, groups)
	minSize := sizes[len(sizes)-1]
	useS2 := minSize >= 2*p3min && minSize >= 2
	return Plan{World: world, NFeval: nfeval, Groups: groups, GroupSizes: sizes,
		UseS2: useS2, P3Min: p3min}
}

// spread splits total into n near-equal descending parts.
func spread(total, n int) []int {
	out := make([]int, n)
	base := total / n
	extra := total % n
	for i := range out {
		out[i] = base
		if i < extra {
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

// assemblyCell deduplicates the (shared-memory) assembly of the global
// matrices at one θ: the first arriving rank assembles, everyone shares the
// result, and each rank is charged dt/P virtual seconds — modeling the
// O(nnz/P) distributed construction/mapping of §IV-F. The contents depend
// on θ alone, so ranks of any group or topology may share a cell.
type assemblyCell struct {
	once sync.Once
	qp   *bta.Matrix
	qc   *bta.Matrix
	rhs  []float64
	dtQp float64
	dtQc float64
	err  error
}

// groupScratch is one rank's reusable distributed-solver arena for one
// topology: the local BTA slice refilled per evaluation, the persistent
// distributed factor, and the small quadratic-form vectors. Both pipelines
// of a rank share it — they run sequentially on the same goroutine and use
// the same partitioning. A shrunk world starts a fresh one.
type groupScratch struct {
	local    *bta.LocalBTA
	fac      *bta.DistFactor
	quadTmp  []float64
	quadTmpA []float64
}

// factorize refills the rank-local slice of g (allocating it and the factor
// only on first use) and runs the distributed factorization. The rank owns
// partition parts[rank] of the global list.
func (s *groupScratch) factorize(solver *comm.Comm, g *bta.Matrix, parts []bta.Partition) (*bta.DistFactor, error) {
	if s.fac == nil {
		l, err := bta.NewLocalBTA(parts, solver.Rank(), g.N, g.B, g.A)
		if err != nil {
			return nil, err
		}
		f, err := bta.NewDistFactor(l)
		if err != nil {
			return nil, err
		}
		s.local, s.fac = l, f
	}
	s.local.FillFrom(g)
	return s.fac, bta.PPOBTAF(solver, s.fac, s.local)
}

// DistConfig configures a simulated distributed INLA run.
type DistConfig struct {
	World   int
	Machine comm.Machine
	// LB is the S3 load-balance factor (1 = even partitions).
	LB float64
	// MemCapBytes models per-device memory (0 = unlimited).
	MemCapBytes int64
	// Iterations caps the BFGS iterations of the mode search
	// (OptOptions.MaxIter, < 1 = 1); every other optimizer setting is
	// DefaultOptOptions().
	Iterations int
	// DisableS2/DisableS3 restrict the layer usage (ablations and the
	// INLA_DIST-like configuration).
	DisableS2 bool
	DisableS3 bool
	// NaiveMapping replaces the cached O(nnz) sparse→dense mapping with the
	// O(n·b²) densification, charged undistributed — the INLA_DIST-like
	// assembly behaviour (ablation X1).
	NaiveMapping bool
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
// with the full three-layer scheme and reports virtual-time statistics.
// Every rank runs Minimize, the optimizer of every backend, on its own
// commEvaluator: the gradient stencils and line-search candidates of each
// BFGS iteration are spread over the S1 groups, each group evaluates its
// points with the S2 pipelines and the S3 solver, and a world reduction
// hands every rank the same values. An undefined gradient stops the run
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
// the configuration, the planner's inputs and the assembly registries.
type distRun struct {
	m          *model.Model
	prior      Prior
	cfg        DistConfig
	lb         float64
	nfeval     int
	qcBytes    int64
	maxShrinks int // negative: none

	mu    sync.Mutex
	cells map[string]*assemblyCell // by θ, while an evaluation of it is open
}

func newDistRun(m *model.Model, prior Prior, theta0 []float64, cfg DistConfig) (*distRun, error) {
	if m.Lik != model.LikGaussian {
		return nil, fmt.Errorf("inla: the distributed driver supports the Gaussian likelihood (the paper's evaluation case); got %v", m.Lik)
	}
	if cfg.World < 1 {
		return nil, fmt.Errorf("inla: world size %d < 1", cfg.World)
	}
	// Probe assembly once to size the memory model.
	proto, err := m.DecodeTheta(theta0)
	if err != nil {
		return nil, err
	}
	qcProbe, err := m.Qc(proto)
	if err != nil {
		return nil, err
	}
	r := &distRun{m: m, prior: prior, cfg: cfg, lb: max(1, cfg.LB), nfeval: 2*len(theta0) + 1,
		qcBytes: qcProbe.BytesDense(), maxShrinks: cfg.MaxShrinks, cells: make(map[string]*assemblyCell)}
	if r.maxShrinks == 0 {
		r.maxShrinks = cfg.World - 1
	}
	return r, nil
}

func (r *distRun) planFor(world int) Plan {
	_, b, a := r.m.Dims.BTAShape()
	p := MakePlan(world, r.nfeval, r.qcBytes, r.cfg.MemCapBytes, r.m.Dims.Nt, b, a)
	if r.cfg.DisableS2 {
		p.UseS2 = false
	}
	return p
}

// cell returns the assembly cell of θ and its key, creating the cell for
// the first rank to ask.
func (r *distRun) cell(theta []float64) (string, *assemblyCell) {
	key := fmt.Sprintf("%x", theta)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cells[key]
	if !ok {
		c = &assemblyCell{}
		r.cells[key] = c
	}
	return key, c
}

// drop forgets c, unless a later evaluation of the same θ has replaced it.
func (r *distRun) drop(key string, c *assemblyCell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cells[key] == c {
		delete(r.cells, key)
	}
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
	run     *distRun
	world   *comm.Comm
	plan    Plan
	g       int // this rank's S1 group
	group   *comm.Comm
	scr     *groupScratch
	shrinks int
	err     error
}

// join plans the S1 groups over world and gives this rank its group and
// fresh solver scratch; a shrink joins the survivors' world.
func (e *commEvaluator) join(world *comm.Comm) {
	e.world = world
	e.plan = e.run.planFor(world.Size())
	e.g = e.plan.GroupOf(world.Rank())
	e.group = world.Split(e.g, world.Rank())
	e.scr = &groupScratch{}
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
		f, err := e.evalFobj(points[i])
		if err != nil {
			f = math.Inf(1)
		}
		if e.group.Rank() == 0 {
			vals[i] = f
		}
	}
	// World-level reduction of the batch (the ⊕ of Fig. 3a).
	return e.world.AllReduceSum(vals)
}

// StencilPlan reports one core per S1 group and no partitions, so the line
// search of Minimize evaluates one candidate per group.
func (e *commEvaluator) StencilPlan(width int) SharedPlan {
	g := e.plan.Groups
	return SharedPlan{Width: width, Cores: g, PointWorkers: min(width, g), Partitions: 1}
}

// Posterior is the sequential latentPosterior, as for every backend.
func (e *commEvaluator) Posterior(theta []float64) ([]float64, []float64, error) {
	return (&BTAEvaluator{Model: e.run.m}).Posterior(theta)
}

// evalFobj evaluates −fobj(θ) on this rank's S1 group: the S2 split into
// the Q_p and Q_c pipelines, each running the S3 distributed solver over
// its sub-communicator. Every rank of the group returns the value.
func (e *commEvaluator) evalFobj(theta []float64) (float64, error) {
	group, m, cfg, scr := e.group, e.run.m, e.run.cfg, e.scr
	w := group.Size()
	useS2 := e.plan.UseS2 && w >= 2

	// Pipeline split: color 0 = Q_p pipeline, color 1 = Q_c pipeline. The
	// Q_c pipeline gets the larger half (it carries the extra triangular
	// solve, §IV-D2).
	pipe := group
	color := 1 // everyone does Q_c work when S2 is off
	wA := 0
	if useS2 {
		wA = w / 2
		if group.Rank() < wA {
			color = 0
		}
		pipe = group.Split(color, group.Rank())
	}

	// S3 width: one time partition per solver rank, bounded by
	// partitionability and the DisableS3 switch.
	p3 := pipe.Size()
	if cfg.DisableS3 {
		p3 = 1
	}
	if mx := bta.MaxPartitions(m.Dims.Nt); p3 > mx {
		p3 = mx
	}
	parts, err := bta.PartitionBlocks(m.Dims.Nt, p3, e.run.lb)
	if err != nil {
		// The load-balanced split can fail on tiny block counts where the
		// even split still fits.
		if parts, err = bta.PartitionBlocks(m.Dims.Nt, p3, 1); err != nil {
			return math.Inf(1), err
		}
	}
	active := pipe.Rank() < p3
	solver := pipe
	if p3 < pipe.Size() {
		ac := 0
		if !active {
			ac = 1
		}
		solver = pipe.Split(ac, pipe.Rank())
	}

	// Shared assembly, charged as dt/P per rank, or undistributed for the
	// naive mapping (§IV-F). Measured under the compute lock so the wall
	// time is not inflated by other simulated ranks.
	charge := float64(p3)
	if cfg.NaiveMapping {
		charge = 1
	}
	key, cell := e.run.cell(theta)
	// Every rank of the group is done with the cell once it returns: past
	// the group's closing AllReduceSum, or on an assembly error that every
	// rank reproduces from a fresh cell.
	defer e.run.drop(key, cell)
	cell.once.Do(func() {
		t, err := m.DecodeTheta(theta)
		if err != nil {
			cell.err = err
			return
		}
		cell.dtQp = group.Measure(func() {
			if cfg.NaiveMapping {
				cell.qp, cell.err = m.QpDensifyNaive(t)
			} else {
				cell.qp, cell.err = m.Qp(t)
			}
		})
		if cell.err != nil {
			return
		}
		cell.dtQc = group.Measure(func() {
			if cfg.NaiveMapping {
				cell.qc, cell.err = m.QcDensifyNaive(t)
			} else {
				cell.qc, cell.err = m.Qc(t)
			}
			if cell.err == nil {
				cell.rhs = m.CondRHS(t)
			}
		})
	})
	if cell.err != nil {
		// All ranks observe the same failure deterministically.
		return math.Inf(1), cell.err
	}

	_, b, a := m.Dims.BTAShape()
	var comps [4]float64 // [½ld_p, −½quad, −½ld_c, loglik+prior]
	// μ handoff between the Q_c and Q_p phases when S2 is off (same
	// goroutine runs both phases back to back on each rank).
	var muLocal []float64

	// tagMu carries μ from the Q_c pipeline root to the Q_p pipeline root.
	const tagMu = 700

	runQc := func() error {
		pipe.Barrier()
		if !active {
			return nil
		}
		err := func() error {
			solver.Elapse(cell.dtQc / charge)
			f, err := scr.factorize(solver, cell.qc, parts)
			if err != nil {
				return err
			}
			span := scr.local.Part
			rhsLocal := cell.rhs[span.Lo*b : (span.Hi+1)*b]
			var rhsTip []float64
			if a > 0 {
				rhsTip = cell.rhs[m.Dims.Nt*b:]
			}
			xLocal, xTip, err := bta.PPOBTAS(solver, f, rhsLocal, rhsTip)
			if err != nil {
				return err
			}
			// Gather μ on the solver root.
			gathered := solver.Gather(0, xLocal)
			if solver.Rank() == 0 {
				muFull := make([]float64, m.Dims.Total())
				off := 0
				for _, part := range gathered {
					copy(muFull[off:], part)
					off += len(part)
				}
				if a > 0 {
					copy(muFull[m.Dims.Nt*b:], xTip)
				}
				t, _ := m.DecodeTheta(theta)
				var ll float64
				solver.Compute(func() { ll = m.LogLik(t, muFull) })
				comps[2] = -0.5 * f.LogDet()
				comps[3] = ll + e.run.prior.LogDensity(theta)
				muLocal = muFull
			}
			return nil
		}()
		// The Q_p pipeline root always receives exactly one μ message per
		// evaluation; failures ship a NaN sentinel so the pairing stays
		// deterministic and no stale message survives into the next call.
		if useS2 && solver.Rank() == 0 {
			if err != nil || muLocal == nil {
				group.Send(0, tagMu, []float64{math.NaN()})
			} else {
				group.Send(0, tagMu, muLocal)
			}
		}
		return err
	}

	runQp := func() error {
		pipe.Barrier()
		var recvErr error
		if !active {
			return nil
		}
		err := func() error {
			solver.Elapse(cell.dtQp / charge)
			f, err := scr.factorize(solver, cell.qp, parts)
			if err != nil {
				return err
			}
			// Quadratic form μᵀQ_pμ: root obtains μ, broadcasts, every rank
			// contributes its partition's terms.
			var muFull []float64
			if solver.Rank() == 0 {
				if useS2 {
					muFull = group.Recv(wA, tagMu)
				} else {
					muFull = muLocal
				}
				if len(muFull) != m.Dims.Total() || (len(muFull) > 0 && math.IsNaN(muFull[0])) {
					recvErr = fmt.Errorf("inla: Q_c pipeline failed before producing μ")
					muFull = make([]float64, m.Dims.Total()) // keep collectives aligned
				}
			}
			muFull = solver.Bcast(0, muFull)
			var quadLocal float64
			solver.Compute(func() {
				quadLocal = localQuad(cell.qp, scr.local.Part, solver.Rank(), muFull, scr)
			})
			total := solver.AllReduceSum([]float64{quadLocal})
			if solver.Rank() == 0 {
				comps[0] = 0.5 * f.LogDet()
				comps[1] = -0.5 * total[0]
			}
			return recvErr
		}()
		if err != nil && useS2 && solver.Rank() == 0 && recvErr == nil {
			// Local failure before the receive: drain the pending μ message.
			group.Recv(wA, tagMu)
		}
		return err
	}

	var errQp, errQc error
	if useS2 {
		if color == 1 {
			errQc = runQc()
		} else {
			errQp = runQp()
		}
	} else {
		// Both phases run after a Q_c failure too: a rank outside the S3
		// solver cannot know of it and waits at runQp's barrier.
		errQc = runQc()
		errQp = runQp()
	}

	// Group-level combination: pipeline roots contribute their components.
	contrib := make([]float64, 5)
	failed := 0.0
	if errQp != nil || errQc != nil {
		failed = 1
	}
	if useS2 {
		if color == 0 && pipe.Rank() == 0 {
			contrib[0], contrib[1] = comps[0], comps[1]
		}
		if color == 1 && pipe.Rank() == 0 {
			contrib[2], contrib[3] = comps[2], comps[3]
		}
	} else if group.Rank() == 0 {
		copy(contrib, comps[:])
	}
	contrib[4] = failed
	sum := group.AllReduceSum(contrib)
	if sum[4] > 0 {
		if errQc != nil {
			return math.Inf(1), errQc
		}
		if errQp != nil {
			return math.Inf(1), errQp
		}
		return math.Inf(1), fmt.Errorf("inla: a peer pipeline failed")
	}
	fobj := sum[0] + sum[1] + sum[2] + sum[3]
	return -fobj, nil
}

// localQuad computes this partition's contribution to μᵀ·Q·μ over the BTA
// block structure: diagonal terms for owned blocks, coupling terms for
// owned sub-diagonals plus the coupling to the previous partition, arrow
// terms for owned blocks, and the tip term on rank 0.
func localQuad(q *bta.Matrix, part bta.Partition, rank int, mu []float64, scr *groupScratch) float64 {
	b := q.B
	var s float64
	if len(scr.quadTmp) < b {
		scr.quadTmp = make([]float64, b)
	}
	tmp := scr.quadTmp[:b]
	for k := part.Lo; k <= part.Hi; k++ {
		mk := mu[k*b : (k+1)*b]
		dense.Gemv(dense.NoTrans, 1, q.Diag[k], mk, 0, tmp)
		s += dense.Dot(mk, tmp)
		if k < part.Hi {
			dense.Gemv(dense.NoTrans, 1, q.Lower[k], mk, 0, tmp)
			s += 2 * dense.Dot(mu[(k+1)*b:(k+2)*b], tmp)
		}
	}
	if part.Lo > 0 {
		prev := mu[(part.Lo-1)*b : part.Lo*b]
		dense.Gemv(dense.NoTrans, 1, q.Lower[part.Lo-1], prev, 0, tmp)
		s += 2 * dense.Dot(mu[part.Lo*b:(part.Lo+1)*b], tmp)
	}
	if q.A > 0 {
		ma := mu[q.N*b : q.N*b+q.A]
		if len(scr.quadTmpA) < q.A {
			scr.quadTmpA = make([]float64, q.A)
		}
		tmpA := scr.quadTmpA[:q.A]
		for k := part.Lo; k <= part.Hi; k++ {
			dense.Gemv(dense.NoTrans, 1, q.Arrow[k], mu[k*b:(k+1)*b], 0, tmpA)
			s += 2 * dense.Dot(ma, tmpA)
		}
		if rank == 0 {
			dense.Gemv(dense.NoTrans, 1, q.Tip, ma, 0, tmpA)
			s += dense.Dot(ma, tmpA)
		}
	}
	return s
}
