package main

import (
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	dalia "github.com/dalia-hpc/dalia"
	"github.com/dalia-hpc/dalia/internal/baselines"
	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/spde"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// preset is one -fig figure: the worker counts of its points (nil for a
// table without a sweep) and the routine that measures the points on the
// given worker counts.
type preset struct {
	workers []int
	run     func(workers []int) (*Figure, error)
}

// figIters is the BFGS iteration cap of every simulated run of a figure.
const figIters = 1

// figures are the paper's evaluation figures on their scaled Table IV
// datasets (README, Substitutions). Every DALIA point is one sweep call;
// the comparators are baselines.RunRINLASim and RunINLADistSim.
var figures = map[string]preset{
	"fig4":   {synth.MB1().Workers, fig4},
	"fig5":   {synth.MB2().Workers, fig5},
	"fig6a":  {[]int{1, 2, 4, 8, 16}, fig6a},
	"fig6b":  {slices.Sorted(maps.Keys(fig6bLevels)), fig6b},
	"fig7":   {synth.SA1().Workers, fig7},
	"table4": {nil, table4},
}

// fig4 is the strong-scaling comparison of Fig. 4: per-iteration runtime of
// DALIA, INLA_DIST-like and the R-INLA-like reference on the univariate
// model MB1: DALIA runs its default plan (S1, then S3), the INLA_DIST-like
// comparator S1 and S2.
func fig4(workers []int) (*Figure, error) {
	spec := synth.MB1()
	ds, err := synth.Generate(spec.Gen)
	if err != nil {
		return nil, err
	}
	prior := dalia.WeakPrior(ds.Theta0, 5)
	fig := &Figure{ID: "Fig4", Title: "Strong scaling, univariate ST model (MB1-scaled), per-iteration seconds", XLabel: "workers"}
	fig.Note("paper: DALIA 12.6× / INLA_DIST 8.4× over R-INLA on 1 GPU; 2× DALIA-vs-INLA_DIST and 180× over R-INLA at 18; η: 79.7%% vs 59.3%%")
	fig.Note("scaled: %s", spec.ScaleNote)
	sD := fig.AddSeries("DALIA")
	sI := fig.AddSeries("INLA_DIST-like")
	sR := fig.AddSeries("R-INLA-like")

	// The R-INLA-like reference at its most performant shared-memory width
	// (S1 = 9 groups, the nfeval of the univariate model).
	rRef, err := baselines.RunRINLASim(ds.Model, prior, ds.Theta0, 9, figIters, comm.DefaultMachine())
	if err != nil {
		return nil, err
	}
	reps, err := sweep(ds.Model, ds.Theta0, workers, figIters, 0)
	if err != nil {
		return nil, err
	}
	for i, w := range workers {
		sD.Add(float64(w), reps[i].PerIter)
		repI, err := baselines.RunINLADistSim(ds.Model, prior, ds.Theta0, w, figIters, comm.DefaultMachine())
		if err != nil {
			return nil, err
		}
		sI.Add(float64(w), repI.PerIter)
		sR.Add(float64(w), rRef.PerIter)
	}
	if last := len(workers) - 1; workers[0] == 1 && last > 0 {
		_, effD := scaling(sD.Y[0], 1, sD.Y[last], workers[last])
		_, effI := scaling(sI.Y[0], 1, sI.Y[last], workers[last])
		fig.Note("measured: 1-worker speedup over R-INLA-like: DALIA %.1f×, INLA_DIST-like %.1f×",
			rRef.PerIter/sD.Y[0], rRef.PerIter/sI.Y[0])
		fig.Note("measured: at %d workers: DALIA %.1f× over R-INLA-like, %.2f× over INLA_DIST-like; η(DALIA) = %.1f%%, η(INLA_DIST-like) = %.1f%%",
			workers[last], rRef.PerIter/sD.Y[last], sI.Y[last]/sD.Y[last], effD, effI)
	}
	return fig, nil
}

// fig5 is the solver weak-scaling microbenchmark of Fig. 5: parallel
// efficiency of PPOBTAF (factorization), PPOBTAS (triangular solve) and
// PPOBTASI (selected inversion) with the time steps per rank fixed, under
// the even split (PartitionBlocks at lb = 1) and the load-balanced split
// every partitioned solver runs (bta.Partitions, "balanced"; the paper's
// lb = 1.6 of §V-C). Efficiency is against the even split at the first
// rank count.
func fig5(worlds []int) (*Figure, error) {
	spec := synth.MB2()
	fig := &Figure{ID: "Fig5", Title: "Solver weak scaling (MB2-scaled): parallel efficiency", XLabel: "ranks"}
	fig.Note("paper: factorization/selinv ≈52.6/52.8%% at 16 ranks, →58.8/58.3%% with lb=1.6; PPOBTAS 31.6%% and *hurt* by lb; lb matters most at 1→2 ranks")
	fig.Note("scaled: %s", spec.ScaleNote)

	phases := []string{"factorization", "triangular solve", "selected inversion"}
	policies := []string{"lb=1.0", "balanced"}
	var times [2][][3]float64 // [policy][world] → seconds per phase
	for _, p := range worlds {
		g, err := fig5Matrix(spec, p)
		if err != nil {
			return nil, err
		}
		even, err := bta.PartitionBlocks(g.N, p, 1)
		if err != nil {
			return nil, err
		}
		balanced, err := bta.Partitions(g.N, p)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(77))
		rhs := make([]float64, g.Dim())
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		tEven, err := solverPhaseSeconds(g, even, rhs)
		if err != nil {
			return nil, err
		}
		tBal := tEven // one rank, or a split no different from the even one
		if !slices.Equal(balanced, even) {
			if tBal, err = solverPhaseSeconds(g, balanced, rhs); err != nil {
				return nil, err
			}
		}
		times[0] = append(times[0], tEven)
		times[1] = append(times[1], tBal)
	}
	for ph, phase := range phases {
		t1 := times[0][0][ph]
		for pol, policy := range policies {
			s := fig.AddSeries(phase + " " + policy)
			for i, t := range times[pol] {
				if t[ph] > 0 && t1 > 0 {
					s.Add(float64(worlds[i]), 100*t1/t[ph])
				}
			}
		}
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
	// Attach the nr = 1 arrowhead (a fixed effect coupled weakly to the field).
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

// solverPhaseSeconds runs PPOBTAF, PPOBTAS and PPOBTASI on g over one rank
// per partition and returns rank 0's virtual seconds in each routine, every
// phase fenced by barriers.
func solverPhaseSeconds(g *bta.Matrix, parts []bta.Partition, rhs []float64) ([3]float64, error) {
	var t [3]float64
	_, err := comm.Run(len(parts), comm.DefaultMachine(), nil, func(c *comm.Comm) error {
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
			t = [3]float64{t1 - t0, t2 - t1, t3 - t2}
		}
		return nil
	})
	return t, err
}

// fig6a is the weak scaling through the time domain of Fig. 6a (WA1):
// DALIA with the full layer policy against the R-INLA-like reference.
func fig6a(workers []int) (*Figure, error) {
	spec := synth.WA1()
	fig := &Figure{ID: "Fig6a", Title: "Weak scaling in time, trivariate model (WA1-scaled)", XLabel: "time steps"}
	fig.Note("paper: 1.48× over R-INLA at nt=2 (1 GPU); >100× from 32 steps (16 GPUs); 124× at 512 steps on a model 8× larger; superlinear while construction dominates, solver ≈90%% of runtime from 64 steps")
	fig.Note("scaled: %s", spec.ScaleNote)
	sD := fig.AddSeries("DALIA")
	sR := fig.AddSeries("R-INLA-like")

	for _, w := range workers {
		gen := spec.Gen
		gen.Nt = 2 * w // nt doubles with the worker count
		ds, err := synth.Generate(gen)
		if err != nil {
			return nil, err
		}
		reps, err := sweep(ds.Model, ds.Theta0, []int{w}, figIters, 0)
		if err != nil {
			return nil, err
		}
		rep := reps[0]
		sD.Add(float64(gen.Nt), rep.PerIter)
		if gen.Nt <= 8 { // the R-INLA-like reference at the first three points
			rRef, err := baselines.RunRINLASim(ds.Model, dalia.WeakPrior(ds.Theta0, 5), ds.Theta0, min(8, w*2), figIters, comm.DefaultMachine())
			if err != nil {
				return nil, err
			}
			sR.Add(float64(gen.Nt), rRef.PerIter)
			fig.Note("nt=%d (W=%d): DALIA %.2f× over R-INLA-like; plan group sizes %v",
				gen.Nt, w, rRef.PerIter/rep.PerIter, rep.Plan.GroupSizes)
		}
		// Solver-vs-construction share for the stacked-bar annotation.
		asm, sol := splitEvalCost(ds)
		fig.Note("nt=%d: solver share of one evaluation ≈ %.0f%%", gen.Nt, 100*sol/(sol+asm))
	}
	return fig, nil
}

// splitEvalCost measures the construction (assembly) and solver
// (factorization + solve) wall seconds of one objective evaluation.
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

// fig6bLevels are Fig. 6b's mesh refinement levels (nx × ny vertices) by
// worker count.
var fig6bLevels = map[int]struct{ level, nx, ny int }{1: {0, 4, 3}, 4: {1, 6, 5}, 16: {2, 9, 8}}

// fig6b is the weak scaling through spatial mesh refinement of Fig. 6b
// (WA2): the finest level exceeds the modeled device memory, forcing the
// S3 layer before S1 widens (the §V-D policy exception).
func fig6b(workers []int) (*Figure, error) {
	spec := synth.WA2()
	fig := &Figure{ID: "Fig6b", Title: "Weak scaling in space via mesh refinement (WA2-scaled)", XLabel: "mesh nodes"}
	fig.Note("paper: 1.95× over R-INLA at the coarsest mesh; S3 engaged when the model stops fitting one device; 168× at 64 GPUs; η = 51.2%% at 496")
	fig.Note("scaled: %s", spec.ScaleNote)
	const memCap = int64(3 << 20) // 3 MiB modeled device memory
	sD := fig.AddSeries("DALIA")
	sR := fig.AddSeries("R-INLA-like")

	for _, w := range workers {
		lv := fig6bLevels[w]
		gen := spec.Gen
		gen.MeshNx, gen.MeshNy = lv.nx, lv.ny
		ds, err := synth.Generate(gen)
		if err != nil {
			return nil, err
		}
		ns := ds.Model.Dims.Ns
		reps, err := sweep(ds.Model, ds.Theta0, []int{w}, figIters, memCap)
		if err != nil {
			return nil, err
		}
		rep := reps[0]
		sD.Add(float64(ns), rep.PerIter)
		fig.Note("level %d: ns=%d (b=%d), W=%d → plan: S1 groups=%d, forced S3 width=%d",
			lv.level, ns, 3*ns, w, rep.Plan.Groups, rep.Plan.P3Min)
		if lv.level == 0 { // the R-INLA-like reference at the coarsest mesh
			rRef, err := baselines.RunRINLASim(ds.Model, dalia.WeakPrior(ds.Theta0, 5), ds.Theta0, 1, figIters, comm.DefaultMachine())
			if err != nil {
				return nil, err
			}
			sR.Add(float64(ns), rRef.PerIter)
			fig.Note("coarsest mesh: DALIA %.2f× over R-INLA-like (paper: 1.95×)", rRef.PerIter/rep.PerIter)
		}
	}
	return fig, nil
}

// fig7 is the application-level strong scaling of Fig. 7 (SA1):
// per-iteration runtime and parallel efficiency of the layered scheme (S1,
// then S3), with the R-INLA-like reference. Efficiency is against the
// first point.
func fig7(workers []int) (*Figure, error) {
	spec := synth.SA1()
	ds, err := synth.Generate(spec.Gen)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "Fig7", Title: "Strong scaling, trivariate model (SA1-scaled)", XLabel: "workers"}
	fig.Note("paper: ≈4 min/iter on 1 GPU vs >40 min for R-INLA; near-perfect to 31 GPUs; η = 85.6%% at 62; η = 28.3%% and ~1000× total speedup at 496")
	fig.Note("scaled: %s", spec.ScaleNote)
	sD := fig.AddSeries("DALIA")
	sE := fig.AddSeries("efficiency %")
	sR := fig.AddSeries("R-INLA-like")

	rRef, err := baselines.RunRINLASim(ds.Model, dalia.WeakPrior(ds.Theta0, 5), ds.Theta0, 8, figIters, comm.DefaultMachine())
	if err != nil {
		return nil, err
	}
	reps, err := sweep(ds.Model, ds.Theta0, workers, figIters, 0)
	if err != nil {
		return nil, err
	}
	for i, w := range workers {
		sD.Add(float64(w), reps[i].PerIter)
		_, eff := scaling(sD.Y[0], workers[0], reps[i].PerIter, w)
		sE.Add(float64(w), eff)
		sR.Add(float64(w), rRef.PerIter)
	}
	last := len(sD.Y) - 1
	fig.Note("measured: %d-worker %.2f× over R-INLA-like; widest point %.0f× total speedup, η = %.1f%%",
		workers[0], rRef.PerIter/sD.Y[0], rRef.PerIter/sD.Y[last], sE.Y[last])
	return fig, nil
}

// table4 lists the Table IV datasets with their paper and scaled sizes.
func table4([]int) (*Figure, error) {
	fig := &Figure{ID: "Table4", Title: "Datasets (Table IV): paper dimensions and scaled defaults"}
	for _, s := range synth.AllSpecs() {
		fig.Note("%s", s.String())
		fig.Note("      scaled: nv=%d nt=%d nr=%d mesh=%d×%d obs/step=%d — %s",
			s.Gen.Nv, s.Gen.Nt, s.Gen.Nr, s.Gen.MeshNx, s.Gen.MeshNy, s.Gen.ObsPerStep, s.ScaleNote)
	}
	return fig, nil
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a reproduced table or figure: named series over one x axis,
// plus free-form notes.
type Figure struct {
	ID, Title, XLabel string
	Series            []*Series
	Notes             []string
}

// AddSeries registers and returns a new series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Note appends a free-form annotation.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the figure as an aligned text table, one row per distinct
// x value and one column per series ("-" where a series has no point),
// followed by its notes.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) > 0 {
		var xs []float64
		for _, s := range f.Series {
			xs = append(xs, s.X...)
		}
		sort.Float64s(xs)
		xs = slices.Compact(xs)
		rows := [][]string{{f.XLabel}, nil}
		for _, s := range f.Series {
			rows[0] = append(rows[0], s.Name)
		}
		for _, x := range xs {
			row := []string{strconv.FormatFloat(x, 'f', -1, 64)}
			for _, s := range f.Series {
				cell := "-"
				if i := slices.Index(s.X, x); i >= 0 {
					cell = fmt.Sprintf("%.4g", s.Y[i])
				}
				row = append(row, cell)
			}
			rows = append(rows, row)
		}
		width := make([]int, len(rows[0]))
		for _, r := range rows {
			for i, c := range r {
				width[i] = max(width[i], len(c))
			}
		}
		for i := range width {
			rows[1] = append(rows[1], strings.Repeat("-", width[i]))
		}
		for _, r := range rows {
			for i, c := range r {
				fmt.Fprintf(w, "  %-*s", width[i], c)
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}
