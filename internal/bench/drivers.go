package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/dalia-hpc/dalia/internal/baselines"
	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/spde"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// Fig4 reproduces the strong-scaling comparison of Fig. 4: per-iteration
// runtime of DALIA, INLA_DIST-like, and the R-INLA-like reference on the
// univariate spatio-temporal model MB1 from 1 to 18 workers: DALIA runs its
// default plan (S1, then S3), the INLA_DIST-like comparator S1 and S2.
func Fig4(quick bool) (*Figure, error) {
	spec := synth.MB1()
	workers := spec.Workers
	if quick {
		workers = []int{1, 4, 9}
	}
	ds, err := synth.Generate(spec.Gen)
	if err != nil {
		return nil, err
	}
	prior := inla.WeakPrior(ds.Theta0, 5)
	fig := NewFigure("Fig4", "Strong scaling, univariate ST model (MB1-scaled), per-iteration seconds", "workers", "s/iter")
	fig.Note("paper: DALIA 12.6× / INLA_DIST 8.4× over R-INLA on 1 GPU; 2× DALIA-vs-INLA_DIST and 180× over R-INLA at 18; η: 79.7%% vs 59.3%%")
	fig.Note("scaled: %s", spec.ScaleNote)

	dalia := fig.AddSeries("DALIA")
	idist := fig.AddSeries("INLA_DIST-like")
	rinla := fig.AddSeries("R-INLA-like")

	// R-INLA-like reference at its most performant shared-memory width
	// (S1 = 9 groups, the nfeval of the univariate model).
	rRef, err := baselines.RunRINLASim(ds.Model, prior, ds.Theta0, 9, 1, comm.DefaultMachine())
	if err != nil {
		return nil, err
	}

	var tD1, tDmax, tI1, tImax float64
	var wMax int
	for _, w := range workers {
		repD, err := inla.RunDistributed(ds.Model, prior, ds.Theta0, inla.DistConfig{
			World: w, Machine: comm.DefaultMachine(), Iterations: 1,
		})
		if err != nil {
			return nil, err
		}
		repI, err := baselines.RunINLADistSim(ds.Model, prior, ds.Theta0, w, 1, comm.DefaultMachine())
		if err != nil {
			return nil, err
		}
		dalia.Add(float64(w), repD.PerIter)
		idist.Add(float64(w), repI.PerIter)
		rinla.Add(float64(w), rRef.PerIter)
		if w == 1 {
			tD1, tI1 = repD.PerIter, repI.PerIter
		}
		if w >= wMax {
			wMax, tDmax, tImax = w, repD.PerIter, repI.PerIter
		}
	}
	if tD1 > 0 && wMax > 1 {
		fig.Note("measured: 1-worker speedup over R-INLA-like: DALIA %.1f×, INLA_DIST-like %.1f×",
			rRef.PerIter/tD1, rRef.PerIter/tI1)
		fig.Note("measured: at %d workers: DALIA %.1f× over R-INLA-like, %.2f× over INLA_DIST-like; η(DALIA) = %.1f%%, η(INLA_DIST-like) = %.1f%%",
			wMax, rRef.PerIter/tDmax, tImax/tDmax,
			100*tD1/(float64(wMax)*tDmax), 100*tI1/(float64(wMax)*tImax))
	}
	return fig, nil
}

// fig5Matrix builds the MB2-style BTA prior matrix with an arrowhead of
// size nr for a weak-scaling width of p ranks.
func fig5Matrix(spec synth.Spec, p int) (*bta.Matrix, error) {
	nt := spec.Gen.Nt * p
	msh := mesh.Uniform(spec.Gen.MeshNx, spec.Gen.MeshNy, 400, 300)
	b := spde.NewBuilder(msh, nt)
	q := b.Precision(spde.Hyper{RangeS: 120, RangeT: 3, Sigma: 1})
	bt, err := bta.FromCSR(q, nt, b.Ns(), 0)
	if err != nil {
		return nil, err
	}
	// Attach the nr=1 arrowhead (fixed effect coupled weakly to the field).
	out := bta.NewMatrix(nt, b.Ns(), spec.Gen.Nr)
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < nt; i++ {
		out.Diag[i].CopyFrom(bt.Diag[i])
		if i < nt-1 {
			out.Lower[i].CopyFrom(bt.Lower[i])
		}
		for r := 0; r < out.A; r++ {
			for jj := 0; jj < out.B; jj++ {
				out.Arrow[i].Set(r, jj, 0.01*rng.NormFloat64())
			}
		}
	}
	for r := 0; r < out.A; r++ {
		out.Tip.Set(r, r, float64(nt))
	}
	return out, nil
}

// Fig5 reproduces the solver weak-scaling microbenchmark: parallel
// efficiency of PPOBTAF (factorization), PPOBTASI (selected inversion), and
// PPOBTAS (triangular solve) on 1→16 ranks, with and without the lb = 1.6
// load balancing of §V-C.
func Fig5(quick bool) (*Figure, error) {
	spec := synth.MB2()
	worlds := spec.Workers
	if quick {
		worlds = []int{1, 2, 4}
	}
	fig := NewFigure("Fig5", "Solver weak scaling (MB2-scaled): parallel efficiency", "ranks", "efficiency %")
	fig.Note("paper: factorization/selinv ≈52.6/52.8%% at 16 ranks, →58.8/58.3%% with lb=1.6; PPOBTAS 31.6%% and *hurt* by lb; lb matters most at 1→2 ranks")
	fig.Note("scaled: %s", spec.ScaleNote)

	type key struct {
		phase string
		lb    float64
	}
	times := map[key]map[int]float64{}
	record := func(phase string, lb float64, p int, t float64) {
		k := key{phase, lb}
		if times[k] == nil {
			times[k] = map[int]float64{}
		}
		times[k][p] = t
	}

	for _, lb := range []float64{1.0, 1.6} {
		for _, p := range worlds {
			if lb != 1.0 && p == 1 {
				// P=1 is lb-independent; reuse the measured baseline.
				for _, phase := range []string{"factorization", "triangular solve", "selected inversion"} {
					record(phase, lb, 1, times[key{phase, 1.0}][1])
				}
				continue
			}
			g, err := fig5Matrix(spec, p)
			if err != nil {
				return nil, err
			}
			useLB := lb
			if p == 1 {
				useLB = 1
			}
			parts, err := bta.PartitionBlocks(g.N, p, useLB)
			if err != nil {
				// lb infeasible at this width: fall back to even.
				parts, err = bta.PartitionBlocks(g.N, p, 1)
				if err != nil {
					return nil, err
				}
			}
			rng := rand.New(rand.NewSource(77))
			rhs := make([]float64, g.Dim())
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			tFac, tSol, tInv, err := solverPhaseSeconds(g, parts, rhs)
			if err != nil {
				return nil, err
			}
			record("factorization", lb, p, tFac)
			record("triangular solve", lb, p, tSol)
			record("selected inversion", lb, p, tInv)
		}
	}

	for _, phase := range []string{"factorization", "triangular solve", "selected inversion"} {
		for _, lb := range []float64{1.0, 1.6} {
			s := fig.AddSeries(fmt.Sprintf("%s lb=%.1f", phase, lb))
			t1 := times[key{phase, 1.0}][1] // P=1 baseline shared across lb
			for _, p := range worlds {
				tp := times[key{phase, lb}][p]
				if tp > 0 && t1 > 0 {
					s.Add(float64(p), 100*t1/tp)
				}
			}
		}
	}
	return fig, nil
}

// solverPhaseSeconds runs PPOBTAF, PPOBTAS and PPOBTASI on g over one rank
// per partition and returns rank 0's virtual seconds in each routine, every
// phase fenced by barriers.
func solverPhaseSeconds(g *bta.Matrix, parts []bta.Partition, rhs []float64) (tFac, tSol, tInv float64, err error) {
	p := len(parts)
	_, err = comm.Run(p, comm.DefaultMachine(), nil, func(c *comm.Comm) error {
		local, err := bta.LocalSlice(g, parts, c.Rank())
		if err != nil {
			return err
		}
		f, err := bta.NewDistFactor(local)
		if err != nil {
			return err
		}
		c.Barrier()
		t0 := c.Clock()
		if err := bta.PPOBTAF(c, f, local); err != nil {
			return err
		}
		c.Barrier()
		t1 := c.Clock()
		part := parts[c.Rank()]
		rl := append([]float64(nil), rhs[part.Lo*g.B:(part.Hi+1)*g.B]...)
		var rt []float64
		if g.A > 0 {
			rt = rhs[g.N*g.B:]
		}
		if _, _, err := bta.PPOBTAS(c, f, rl, rt); err != nil {
			return err
		}
		c.Barrier()
		t2 := c.Clock()
		if _, err := bta.PPOBTASI(c, f); err != nil {
			return err
		}
		c.Barrier()
		t3 := c.Clock()
		if c.Rank() == 0 {
			tFac, tSol, tInv = t1-t0, t2-t1, t3-t2
		}
		return nil
	})
	return tFac, tSol, tInv, err
}

// Fig6a reproduces the weak scaling through the time domain (WA1): DALIA
// with the full layer policy vs the R-INLA-like reference, doubling nt with
// the worker count.
func Fig6a(quick bool) (*Figure, error) {
	spec := synth.WA1()
	type pt struct{ nt, w int }
	points := []pt{{2, 1}, {4, 2}, {8, 4}, {16, 8}, {32, 16}}
	rinlaCut := 3 // R-INLA reference evaluated for the first few points only
	if quick {
		points = points[:3]
	}
	fig := NewFigure("Fig6a", "Weak scaling in time, trivariate model (WA1-scaled)", "time steps", "s/iter")
	fig.Note("paper: 1.48× over R-INLA at nt=2 (1 GPU); >100× from 32 steps (16 GPUs); 124× at 512 steps on a model 8× larger; superlinear while construction dominates, solver ≈90%% of runtime from 64 steps")
	fig.Note("scaled: %s", spec.ScaleNote)

	dalia := fig.AddSeries("DALIA")
	rinla := fig.AddSeries("R-INLA-like")

	for i, p := range points {
		gen := spec.Gen
		gen.Nt = p.nt
		ds, err := synth.Generate(gen)
		if err != nil {
			return nil, err
		}
		prior := inla.WeakPrior(ds.Theta0, 5)
		rep, err := inla.RunDistributed(ds.Model, prior, ds.Theta0, inla.DistConfig{
			World: p.w, Machine: comm.DefaultMachine(), Iterations: 1,
		})
		if err != nil {
			return nil, err
		}
		dalia.Add(float64(p.nt), rep.PerIter)
		if i < rinlaCut {
			rRef, err := baselines.RunRINLASim(ds.Model, prior, ds.Theta0, minInt(8, p.w*2), 1, comm.DefaultMachine())
			if err != nil {
				return nil, err
			}
			rinla.Add(float64(p.nt), rRef.PerIter)
			fig.Note("nt=%d (W=%d): DALIA %.2f× over R-INLA-like; plan group sizes %v",
				p.nt, p.w, rRef.PerIter/rep.PerIter, rep.Plan.GroupSizes)
		}
		// Solver-vs-construction share for the stacked-bar annotation.
		asm, sol := splitEvalCost(ds)
		fig.Note("nt=%d: solver share of one evaluation ≈ %.0f%%", p.nt, 100*sol/(sol+asm))
	}
	return fig, nil
}

// splitEvalCost measures the construction (assembly+mapping) and solver
// (factorization+solve) wall seconds of one objective evaluation.
func splitEvalCost(ds *synth.Dataset) (asm, sol float64) {
	t, err := ds.Model.DecodeTheta(ds.Theta0)
	if err != nil {
		return 1, 1
	}
	t0 := time.Now()
	qc, err := ds.Model.Qc(t)
	if err != nil {
		return 1, 1
	}
	rhs := ds.Model.CondRHS(t)
	asm = time.Since(t0).Seconds()
	t1 := time.Now()
	f, err := bta.Factorize(qc)
	if err != nil {
		return asm, 1
	}
	f.Solve(rhs)
	sol = time.Since(t1).Seconds()
	return asm, sol
}

// Fig6b reproduces the weak scaling through spatial mesh refinement (WA2):
// the finest level exceeds the modeled device memory, forcing the S3 layer
// before S1 widens (the §V-D policy exception).
func Fig6b(quick bool) (*Figure, error) {
	spec := synth.WA2()
	type lvl struct {
		nx, ny int
		w      int
	}
	levels := []lvl{{4, 3, 1}, {6, 5, 4}, {9, 8, 16}}
	if quick {
		levels = levels[:2]
	}
	fig := NewFigure("Fig6b", "Weak scaling in space via mesh refinement (WA2-scaled)", "mesh nodes", "s/iter")
	fig.Note("paper: 1.95× over R-INLA at the coarsest mesh; S3 engaged when the model stops fitting one device; 168× at 64 GPUs; η = 51.2%% at 496")
	fig.Note("scaled: %s", spec.ScaleNote)
	const memCap = int64(3 << 20) // 3 MiB modeled device memory

	dalia := fig.AddSeries("DALIA")
	rinla := fig.AddSeries("R-INLA-like")

	for i, lv := range levels {
		gen := spec.Gen
		gen.MeshNx, gen.MeshNy = lv.nx, lv.ny
		ds, err := synth.Generate(gen)
		if err != nil {
			return nil, err
		}
		ns := ds.Model.Dims.Ns
		prior := inla.WeakPrior(ds.Theta0, 5)
		rep, err := inla.RunDistributed(ds.Model, prior, ds.Theta0, inla.DistConfig{
			World: lv.w, Machine: comm.DefaultMachine(), Iterations: 1,
			MemCapBytes: memCap,
		})
		if err != nil {
			return nil, err
		}
		dalia.Add(float64(ns), rep.PerIter)
		fig.Note("level %d: ns=%d (b=%d), W=%d → plan: S1 groups=%d, forced S3 width=%d",
			i, ns, 3*ns, lv.w, rep.Plan.Groups, rep.Plan.P3Min)
		if i == 0 {
			rRef, err := baselines.RunRINLASim(ds.Model, prior, ds.Theta0, 1, 1, comm.DefaultMachine())
			if err != nil {
				return nil, err
			}
			rinla.Add(float64(ns), rRef.PerIter)
			fig.Note("coarsest mesh: DALIA %.2f× over R-INLA-like (paper: 1.95×)", rRef.PerIter/rep.PerIter)
		}
	}
	return fig, nil
}

// Fig7 reproduces the application-level strong scaling (SA1): per-iteration
// runtime and parallel efficiency of the layered scheme (S1, then S3) from 1 to
// 124 workers, with the R-INLA-like reference.
func Fig7(quick bool) (*Figure, error) {
	spec := synth.SA1()
	workers := spec.Workers
	if quick {
		workers = []int{1, 4, 16}
	}
	ds, err := synth.Generate(spec.Gen)
	if err != nil {
		return nil, err
	}
	prior := inla.WeakPrior(ds.Theta0, 5)
	fig := NewFigure("Fig7", "Strong scaling, trivariate model (SA1-scaled)", "workers", "s/iter")
	fig.Note("paper: ≈4 min/iter on 1 GPU vs >40 min for R-INLA; near-perfect to 31 GPUs; η = 85.6%% at 62; η = 28.3%% and ~1000× total speedup at 496")
	fig.Note("scaled: %s", spec.ScaleNote)

	dalia := fig.AddSeries("DALIA")
	eff := fig.AddSeries("efficiency %")
	rinla := fig.AddSeries("R-INLA-like")

	rRef, err := baselines.RunRINLASim(ds.Model, prior, ds.Theta0, 8, 1, comm.DefaultMachine())
	if err != nil {
		return nil, err
	}

	var t1 float64
	for _, w := range workers {
		rep, err := inla.RunDistributed(ds.Model, prior, ds.Theta0, inla.DistConfig{
			World: w, Machine: comm.DefaultMachine(), Iterations: 1,
		})
		if err != nil {
			return nil, err
		}
		if w == 1 {
			t1 = rep.PerIter
		}
		dalia.Add(float64(w), rep.PerIter)
		eff.Add(float64(w), 100*t1/(float64(w)*rep.PerIter))
		rinla.Add(float64(w), rRef.PerIter)
	}
	last := len(dalia.Y) - 1
	fig.Note("measured: 1-worker %.2f× over R-INLA-like; widest point %.0f× total speedup, η = %.1f%%",
		rRef.PerIter/dalia.Y[0], rRef.PerIter/dalia.Y[last], eff.Y[last])
	return fig, nil
}

// Table1 prints the framework capability matrix of Table I, sourced from
// the shipped implementations.
func Table1() *Figure {
	fig := NewFigure("Table1", "Framework comparison (Table I)", "", "")
	fig.Note("R-INLA-like   | fobj: general sparse Cholesky (PARDISO stand-in) | Qp/Qc: shared-memory | solver: sparse (SM) | comm: none      | scaling: single node  | pkg internal/baselines")
	fig.Note("INLA_DIST-like| fobj: sequential BTA solver                      | Qp/Qc: S1+S2         | solver: BTA (SM)    | comm: solver off | scaling: ≤2×nfeval    | pkg internal/baselines")
	fig.Note("DALIA         | fobj: distributed BTA solver                     | Qc: S1, Qp closed    | solver: BTA (DM,S3) | comm: simulated MPI/NCCL | scaling: S1+S3        | pkg internal/inla + internal/bta")
	return fig
}

// Table4 prints the dataset table with paper and scaled dimensions.
func Table4() *Figure {
	fig := NewFigure("Table4", "Datasets (Table IV): paper dimensions and scaled defaults", "", "")
	for _, s := range synth.AllSpecs() {
		fig.Note("%s", s.String())
		fig.Note("      scaled: nv=%d nt=%d nr=%d mesh=%d×%d obs/step=%d — %s",
			s.Gen.Nv, s.Gen.Nt, s.Gen.Nr, s.Gen.MeshNx, s.Gen.MeshNy, s.Gen.ObsPerStep, s.ScaleNote)
	}
	return fig
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
