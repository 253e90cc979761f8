package inla

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/synth"
)

func TestMakePlanFillsS1First(t *testing.T) {
	// 31 evals (trivariate), no memory pressure: S1 fills first, then the
	// ranks past 31 widen every group's S3 solver.
	for _, tc := range []struct{ world, groups, size int }{
		{8, 8, 1},    // 8 S1 groups of 1
		{62, 31, 2},  // 31 groups of 2
		{124, 31, 4}, // 31 groups of 4
	} {
		p := MakePlan(tc.world, 31, 1<<20, 0, 16, 0, 0)
		if p.Groups != tc.groups || p.GroupSizes[0] != tc.size || p.GroupSizes[p.Groups-1] != tc.size {
			t.Fatalf("world %d: plan %+v, want %d groups of %d", tc.world, p, tc.groups, tc.size)
		}
	}
}

func TestMakePlanMemoryCapForcesS3(t *testing.T) {
	// Matrix of 1 MiB with a 256 KiB cap: S3 width ≥ 4 before S1 widens.
	p := MakePlan(8, 31, 1<<20, 1<<18, 64, 0, 0)
	if p.P3Min != 4 {
		t.Fatalf("P3Min = %d, want 4", p.P3Min)
	}
	if p.Groups != 2 { // 8 workers / 4 = 2 groups
		t.Fatalf("groups = %d, want 2", p.Groups)
	}
}

// TestMakePlanHybridMemoryModel: with the BTA shape known the per-rank
// working set includes the fill-chain storage of the partitioned
// elimination, so the memory-forced S3 width grows beyond the slice-only
// model.
func TestMakePlanHybridMemoryModel(t *testing.T) {
	// Slice-only model: 1 MiB at a 256 KiB cap forces width 4.
	flat := MakePlan(16, 31, 1<<20, 1<<18, 64, 0, 0)
	if flat.P3Min != 4 {
		t.Fatalf("flat model P3Min = %d, want 4", flat.P3Min)
	}
	// Fill-chain-aware model (b=8, a=0: chains add b/(2b+a) = 50%).
	aware := MakePlan(16, 31, 1<<20, 1<<18, 64, 8, 0)
	if aware.P3Min <= flat.P3Min {
		t.Fatalf("fill-chain model must force a wider S3: %d vs flat %d", aware.P3Min, flat.P3Min)
	}
}

func TestMakePlanClampsToPartitionability(t *testing.T) {
	// nt = 4 supports at most 3 partitions; a huge memory demand must clamp.
	p := MakePlan(16, 9, 1<<30, 1<<10, 4, 0, 0)
	if p.P3Min > 3 {
		t.Fatalf("P3Min = %d exceeds partitionability of nt=4", p.P3Min)
	}
}

// TestMakePlanMatchesFlatPlans pins MakePlan's plan for every (world,
// nfeval, qcBytes, memCap, nt, b, a) that the tests, the internal/bench
// figures, dalia-scale's documented runs and the benchmark's 2-rank comm
// layer plan: the distributed runs' virtual times and message counts follow
// from these plans.
func TestMakePlanMatchesFlatPlans(t *testing.T) {
	for _, tc := range []struct {
		world, nfeval   int
		qcBytes, memCap int64
		nt, b, a        int
		groups          int
		sizes, widths   []int
		p3Min           int
	}{
		{1, 9, 7568, 0, 6, 9, 1, 1, []int{1}, []int{1}, 1},
		{1, 9, 4291328, 0, 16, 130, 6, 1, []int{1}, []int{1}, 1},
		{1, 31, 162504, 3145728, 8, 36, 3, 1, []int{1}, []int{1}, 1},
		{1, 31, 198792, 0, 2, 90, 3, 1, []int{1}, []int{1}, 1},
		{1, 31, 443592, 0, 8, 60, 3, 1, []int{1}, []int{1}, 1},
		{1, 31, 2043432, 0, 16, 90, 3, 1, []int{1}, []int{1}, 1},
		{2, 9, 1170464, 0, 4, 144, 2, 2, []int{1, 1}, []int{1, 1}, 1},
		{2, 9, 1170464, 2565772, 4, 144, 2, 1, []int{2}, []int{2}, 2},
		{2, 9, 4291328, 0, 16, 130, 6, 2, []int{1, 1}, []int{1, 1}, 1},
		{2, 31, 443592, 0, 8, 60, 3, 2, []int{1, 1}, []int{1, 1}, 1},
		{2, 31, 462312, 0, 4, 90, 3, 2, []int{1, 1}, []int{1, 1}, 1},
		{2, 31, 471168, 0, 4, 90, 6, 2, []int{1, 1}, []int{1, 1}, 1},
		{2, 31, 2043432, 0, 16, 90, 3, 2, []int{1, 1}, []int{1, 1}, 1},
		{3, 9, 7568, 0, 6, 9, 1, 3, []int{1, 1, 1}, []int{1, 1, 1}, 1},
		{3, 9, 11040, 0, 3, 16, 2, 3, []int{1, 1, 1}, []int{1, 1, 1}, 1},
		{4, 9, 7568, 0, 6, 9, 1, 4, []int{1, 1, 1, 1}, []int{1, 1, 1, 1}, 1},
		{4, 9, 4291328, 0, 16, 130, 6, 4, []int{1, 1, 1, 1}, []int{1, 1, 1, 1}, 1},
		{4, 31, 443592, 0, 8, 60, 3, 4, []int{1, 1, 1, 1}, []int{1, 1, 1, 1}, 1},
		{4, 31, 989352, 0, 8, 90, 3, 4, []int{1, 1, 1, 1}, []int{1, 1, 1, 1}, 1},
		{4, 31, 989352, 3145728, 8, 90, 3, 4, []int{1, 1, 1, 1}, []int{1, 1, 1, 1}, 1},
		{4, 31, 2043432, 0, 16, 90, 3, 4, []int{1, 1, 1, 1}, []int{1, 1, 1, 1}, 1},
		{6, 9, 7568, 0, 6, 9, 1, 6, []int{1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1}, 1},
		{8, 9, 7568, 0, 6, 9, 1, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{8, 31, 443592, 3145728, 8, 60, 3, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{8, 31, 1048576, 0, 16, 0, 0, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{8, 31, 1048576, 262144, 64, 0, 0, 2, []int{4, 4}, []int{4, 4}, 4},
		{8, 31, 2043432, 0, 16, 90, 3, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{9, 9, 379912, 0, 8, 56, 1, 9, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{9, 9, 4291328, 0, 16, 130, 6, 9, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{16, 9, 1073741824, 1024, 4, 0, 0, 5, []int{4, 3, 3, 3, 3}, []int{3, 3, 3, 3, 3}, 3},
		{16, 31, 443592, 0, 8, 60, 3, 16, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{16, 31, 1048576, 262144, 64, 0, 0, 4, []int{4, 4, 4, 4}, []int{4, 4, 4, 4}, 4},
		{16, 31, 1048576, 262144, 64, 8, 0, 2, []int{8, 8}, []int{8, 8}, 7},
		{16, 31, 2043432, 0, 16, 90, 3, 16, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{16, 31, 4151592, 0, 32, 90, 3, 16, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{16, 31, 5640264, 3145728, 8, 216, 3, 3, []int{6, 5, 5}, []int{5, 5, 5}, 5},
		{18, 9, 2078208, 0, 8, 130, 6, 9, []int{2, 2, 2, 2, 2, 2, 2, 2, 2}, []int{2, 2, 2, 2, 2, 2, 2, 2, 2}, 1},
		{18, 9, 4291328, 0, 16, 130, 6, 9, []int{2, 2, 2, 2, 2, 2, 2, 2, 2}, []int{2, 2, 2, 2, 2, 2, 2, 2, 2}, 1},
		{31, 31, 2043432, 0, 16, 90, 3, 31, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{35, 9, 7568, 0, 6, 9, 1, 9, []int{4, 4, 4, 4, 4, 4, 4, 4, 3}, []int{4, 4, 4, 4, 4, 4, 4, 4, 3}, 1},
		{36, 9, 7568, 0, 6, 9, 1, 9, []int{4, 4, 4, 4, 4, 4, 4, 4, 4}, []int{4, 4, 4, 4, 4, 4, 4, 4, 4}, 1},
		{45, 9, 7568, 0, 6, 9, 1, 9, []int{5, 5, 5, 5, 5, 5, 5, 5, 5}, []int{4, 4, 4, 4, 4, 4, 4, 4, 4}, 1},
		{62, 31, 1048576, 0, 16, 0, 0, 31, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 1},
		{62, 31, 2043432, 0, 16, 90, 3, 31, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 1},
		{124, 31, 1048576, 0, 16, 0, 0, 31, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, 1},
		{124, 31, 2043432, 0, 16, 90, 3, 31, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, 1},
	} {
		p := MakePlan(tc.world, tc.nfeval, tc.qcBytes, tc.memCap, tc.nt, tc.b, tc.a)
		if p.World != tc.world || p.NFeval != tc.nfeval || p.Groups != tc.groups ||
			p.P3Min != tc.p3Min || fmt.Sprint(p.GroupSizes) != fmt.Sprint(tc.sizes) ||
			fmt.Sprint(p.SolverWidths) != fmt.Sprint(tc.widths) {
			t.Errorf("MakePlan(%d, %d, %d, %d, %d, %d, %d) = %+v, want %d groups %v, solver widths %v, P3Min %d",
				tc.world, tc.nfeval, tc.qcBytes, tc.memCap, tc.nt, tc.b, tc.a, p, tc.groups, tc.sizes, tc.widths, tc.p3Min)
		}
	}
}

func TestGroupOfContiguous(t *testing.T) {
	p := Plan{World: 7, Groups: 3, GroupSizes: []int{3, 2, 2}}
	want := []int{0, 0, 0, 1, 1, 2, 2}
	for r, g := range want {
		if p.GroupOf(r) != g {
			t.Fatalf("GroupOf(%d) = %d want %d", r, p.GroupOf(r), g)
		}
	}
}

func TestSpread(t *testing.T) {
	s := spread(10, 3)
	if s[0] != 4 || s[1] != 3 || s[2] != 3 {
		t.Fatalf("spread = %v", s)
	}
}

// distCase runs RunDistributed on a small dataset, checks that the world
// plans the given S1 group sizes, and cross-checks the center-point
// objective value against the sequential evaluator.
func distCase(t *testing.T, world int, sizes ...int) {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 6, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	rep, err := RunDistributed(ds.Model, prior, ds.Theta0, DistConfig{
		World:      world,
		Machine:    comm.DefaultMachine(),
		Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Plan.GroupSizes, sizes) {
		t.Fatalf("world %d plans groups %v, want %v", world, rep.Plan.GroupSizes, sizes)
	}
	if rep.Makespan <= 0 {
		t.Fatal("makespan must be positive")
	}
	if rep.Opt.Iterations != 1 {
		t.Fatalf("%d iterations, want 1", rep.Opt.Iterations)
	}
	// The distributed center-point objective must match the sequential one.
	e := &BTAEvaluator{Model: ds.Model, Prior: prior}
	want := e.EvalBatch([][]float64{ds.Theta0})[0]
	if got := rep.Opt.Trace[0]; math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
		t.Fatalf("world=%d: distributed F = %v, sequential F = %v", world, got, want)
	}
}

// A stencil whose arms the model rejects (process scale e^300: both ±h arms
// of θ[2] are quarantined to +Inf while the centre evaluates) leaves the
// reduced gradient undefined; the run must stop with ErrGradientUndefined
// instead of stepping θ to NaN.
func TestRunDistributedRejectsUndefinedGradient(t *testing.T) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 6, Nr: 1, MeshNx: 3, MeshNy: 3, ObsPerStep: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	theta0 := append([]float64(nil), ds.Theta0...)
	theta0[2] = 300
	rep, err := RunDistributed(ds.Model, WeakPrior(ds.Theta0, 5), theta0,
		DistConfig{World: 6, Machine: comm.DefaultMachine(), Iterations: 2})
	if !errors.Is(err, ErrGradientUndefined) {
		t.Fatalf("err = %v, want ErrGradientUndefined", err)
	}
	if rep != nil {
		t.Fatalf("failed run returned a report with θ = %v", rep.Opt.Theta)
	}
}

// groups returns n S1 groups of the given width.
func groups(n, width int) []int { return slices.Repeat([]int{width}, n) }

func TestRunDistributedSingleRank(t *testing.T) { distCase(t, 1, 1) }

func TestRunDistributedS1Only(t *testing.T) { distCase(t, 9, groups(9, 1)...) }

// Nine S1 groups, each a two-rank S3 solver.
func TestRunDistributedS1S3(t *testing.T) { distCase(t, 18, groups(9, 2)...) }

// Nine S1 groups, each a four-rank S3 solver: nt = 6 partitions at most
// four ways.
func TestRunDistributedWideS3(t *testing.T) { distCase(t, 36, groups(9, 4)...) }

// Nine S1 groups of five ranks: four form the S3 solver, the fifth idles.
func TestRunDistributedS1S3IdleRank(t *testing.T) { distCase(t, 45, groups(9, 5)...) }

func TestRunDistributedScalingImproves(t *testing.T) {
	// S1 is embarrassingly parallel: at world = nfeval = 9 every rank is its
	// own group evaluating one stencil point.
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 8, Nr: 1,
		MeshNx: 8, MeshNy: 7,
		ObsPerStep: 30,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunDistributed(ds.Model, WeakPrior(ds.Theta0, 5), ds.Theta0, DistConfig{
		World: 9, Machine: comm.DefaultMachine(), Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Virtual time is charged from measured wall time, so compare within
	// this one run only: every rank computes, and the critical path (one
	// point plus communication) is shorter than the nine points summed over
	// the ranks — which a slow host episode stretches on both sides of the
	// inequality.
	if rep.Plan.Groups != 9 {
		t.Fatalf("plan %+v: want 9 S1 groups at world 9", rep.Plan)
	}
	for r, rs := range rep.Stats.Ranks {
		if rs.ComputeSeconds <= 0 {
			t.Fatalf("rank %d charged no compute time", r)
		}
	}
	if total := rep.Stats.TotalCompute(); rep.Makespan >= total {
		t.Fatalf("makespan %v s not below the %v s of compute summed over 9 ranks", rep.Makespan, total)
	}
}

// The distributed fit is Minimize over the comm-backed evaluator, so it
// converges to Fit's mode in as many iterations, give or take one. Where a
// group runs the partitioned solver, its evaluations differ from Fit's in
// the last bits (a different summation order), and BFGS carries that
// difference along the path: one ulp of point-dependent noise in F moves Fit's own θ* by up to
// 4e-5 on this dataset. So θ* is held to what the stopping rule resolves —
// two points with ‖g‖∞ < GradTol lie within 2·GradTol·Σ_j|H⁻¹_ij| of each
// other in θ_i — and F* to 1e-6 relative.
func TestRunDistributedConvergesToFitMode(t *testing.T) {
	ds, prior := chaosDataset(t)
	opts := DefaultFitOptions()
	fit, err := Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !fit.Opt.Converged || fit.ThetaCov == nil {
		t.Fatalf("Fit: converged %v after %d iterations, Hessian stage ok %v", fit.Opt.Converged, fit.Opt.Iterations, fit.ThetaCov != nil)
	}
	for _, world := range []int{1, 6, 36} {
		rep, err := RunDistributed(ds.Model, prior, ds.Theta0, DistConfig{
			World: world, Machine: comm.DefaultMachine(), Iterations: opts.Opt.MaxIter,
		})
		if err != nil {
			t.Fatalf("world %d: %v", world, err)
		}
		if !rep.Opt.Converged {
			t.Fatalf("world %d: not converged after %d iterations", world, rep.Opt.Iterations)
		}
		if d := rep.Opt.Iterations - fit.Opt.Iterations; d < -1 || d > 1 {
			t.Fatalf("world %d: %d iterations, Fit took %d", world, rep.Opt.Iterations, fit.Opt.Iterations)
		}
		// Converged before the cap: PerIter divides by the iterations run.
		if want := rep.Makespan / float64(rep.Opt.Iterations); rep.PerIter != want {
			t.Fatalf("world %d: PerIter %v, want %v over %d iterations", world, rep.PerIter, want, rep.Opt.Iterations)
		}
		if d := math.Abs(rep.Opt.F - fit.Opt.F); d > 1e-6*math.Abs(fit.Opt.F) {
			t.Fatalf("world %d: F* = %v, Fit's %v", world, rep.Opt.F, fit.Opt.F)
		}
		for i, want := range fit.Theta {
			var tol float64
			for j := range fit.Theta {
				tol += 2 * opts.Opt.GradTol * math.Abs(fit.ThetaCov.At(i, j))
			}
			if d := math.Abs(rep.Opt.Theta[i] - want); d > tol {
				t.Fatalf("world %d: θ*[%d] = %v, Fit's %v (|Δ| = %.3g > %.3g)", world, i, rep.Opt.Theta[i], want, d, tol)
			}
		}
	}
}

// On width-1 groups a distributed evaluation is evalFobjScratch, the
// arithmetic of BTAEvaluator, and the line search spreads one candidate per
// group as BTAEvaluator spreads one per worker. So the distributed fit is
// Minimize over a BTAEvaluator with one worker per rank, bit for bit, when
// that evaluator answers the gradient stencils with real values as the
// distributed path does: it sees them one point per batch (pointwise).
func TestRunDistributedMatchesMinimizeBitForBit(t *testing.T) {
	ds, prior := chaosDataset(t)
	opt := DefaultOptOptions()
	for _, world := range []int{1, 6} {
		rep, err := RunDistributed(ds.Model, prior, ds.Theta0, DistConfig{
			World: world, Machine: comm.DefaultMachine(), Iterations: opt.MaxIter,
		})
		if err != nil {
			t.Fatalf("world %d: %v", world, err)
		}
		want, err := Minimize(pointwise{&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: world}}, ds.Theta0, opt)
		if err != nil && !errors.Is(err, ErrLineSearchFailed) {
			t.Fatalf("world %d: %v", world, err)
		}
		got := rep.Opt
		if !slices.Equal(got.Theta, want.Theta) || got.F != want.F || !slices.Equal(got.Trace, want.Trace) ||
			got.Iterations != want.Iterations || got.FEvals != want.FEvals {
			t.Fatalf("world %d: θ %v, F %v, %d iterations, %d evaluations, trace %v;\nMinimize: θ %v, F %v, %d, %d, trace %v",
				world, got.Theta, got.F, got.Iterations, got.FEvals, got.Trace,
				want.Theta, want.F, want.Iterations, want.FEvals, want.Trace)
		}
	}
}

// A wide S3 solver evaluates with ParallelFactor's arithmetic at the same
// width: its ranks split the time blocks by bta.Partitions, as
// ParallelFactor does, assemble their slices in place and factorize over
// the one partitioned driver. So −F at θ0 equals the Laplace and closing
// steps on a ParallelFactor over P partitions bit for bit. A memory cap
// between the P−1 and the P working sets makes World P one group of P
// solver ranks.
func TestWideSolverMatchesParallelFactorBitForBit(t *testing.T) {
	for _, c := range []struct {
		nv, nt, nx, ny int
		seed           int64
		p              int
	}{{1, 8, 3, 3, 5, 2}, {3, 8, 3, 3, 5, 2}, {2, 12, 5, 4, 7, 3}} {
		label := fmt.Sprintf("nv=%d nt=%d P=%d", c.nv, c.nt, c.p)
		ds, err := synth.Generate(synth.GenConfig{
			Nv: c.nv, Nt: c.nt, Nr: 1, MeshNx: c.nx, MeshNy: c.ny, ObsPerStep: 10, Seed: c.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		prior := WeakPrior(ds.Theta0, 5)
		n, b, a := ds.Model.Dims.BTAShape()
		cfg := DistConfig{World: c.p, Machine: comm.DefaultMachine(),
			MemCapBytes: nodeWorkingSetBytes(bta.BytesDense(n, b, a), c.p, b, a)}
		run, err := newDistRun(ds.Model, prior, ds.Theta0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plan := run.planFor(c.p); plan.Groups != 1 || plan.SolverWidths[0] != c.p {
			t.Fatalf("%s: plan %+v, want one group of %d solver ranks", label, plan, c.p)
		}
		pf, err := bta.NewParallelFactor(n, b, a, c.p)
		if err != nil {
			t.Fatal(err)
		}
		th, err := ds.Model.DecodeTheta(ds.Theta0)
		if err != nil {
			t.Fatal(err)
		}
		ws := newSolverScratch(ds.Model)
		mu, err := laplaceStep(ds.Model, th, pf, ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := closeFobj(ds.Model, prior, th, ds.Theta0, mu, pf.LogDet(), &ws.evalVectors)
		if err != nil {
			t.Fatal(err)
		}
		want := -parts.F()
		_, err = comm.Run(c.p, cfg.Machine, nil, func(cm *comm.Comm) error {
			e := &commEvaluator{run: run}
			e.join(cm)
			got := e.EvalBatch([][]float64{ds.Theta0})[0]
			if e.err != nil {
				return e.err
			}
			if got != want {
				return fmt.Errorf("%s rank %d: −F = %v, ParallelFactor's %v", label, cm.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A point whose Q_c is not positive definite (a far line-search candidate)
// costs +Inf, not the run, when a rank of each group sits outside the S3
// solver: that rank cannot see the failure and meets the solver ranks at
// the batch's world reduction.
func TestCommEvaluatorNonSPDPointWithIdleRanks(t *testing.T) {
	ds, prior := chaosDataset(t)
	bad := append([]float64(nil), ds.Theta0...)
	bad[0] += 800
	cfg := DistConfig{World: 45, Machine: comm.DefaultMachine()}
	run, err := newDistRun(ds.Model, prior, ds.Theta0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := run.planFor(cfg.World); p.Groups != 9 || p.GroupSizes[0] != 5 {
		t.Fatalf("plan %+v, want 9 groups of 5", p)
	}
	want := (&BTAEvaluator{Model: ds.Model, Prior: prior}).EvalBatch([][]float64{ds.Theta0})[0]
	_, err = comm.Run(cfg.World, cfg.Machine, nil, func(c *comm.Comm) error {
		e := &commEvaluator{run: run}
		e.join(c)
		vals := e.EvalBatch([][]float64{ds.Theta0, bad})
		if e.err != nil {
			return e.err
		}
		if math.Abs(vals[0]-want) > 1e-12*math.Abs(want) || !math.IsInf(vals[1], 1) {
			return fmt.Errorf("rank %d: values %v, want [%v +Inf]", c.Rank(), vals, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
