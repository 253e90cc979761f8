package baselines

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/synth"
)

func genSmall(t *testing.T, nv int) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: nv, Nt: 3, Nr: 2,
		MeshNx: 4, MeshNy: 3,
		ObsPerStep: 15,
		Seed:       21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// inlaDistEval is −fobj(θ) along RunINLADistSim's arithmetic, +Inf when
// infeasible.
func inlaDistEval(ds *synth.Dataset, prior inla.Prior, theta []float64) float64 {
	parts, err := inlaDistParts(ds.Model, prior, theta, func(half func()) { half() })
	if err != nil {
		return math.Inf(1)
	}
	return -parts.F()
}

// TestAllThreePathsAgree is the cross-system correctness anchor: the
// R-INLA-like sparse path, the INLA_DIST-like naive BTA path, and the DALIA
// cached-mapping BTA path must produce identical objective values — they
// implement the same mathematics through three different solvers.
func TestAllThreePathsAgree(t *testing.T) {
	for _, nv := range []int{1, 2, 3} {
		ds := genSmall(t, nv)
		prior := inla.WeakPrior(ds.Theta0, 5)
		dalia := &inla.BTAEvaluator{Model: ds.Model, Prior: prior}
		rinla := &RINLAEvaluator{Model: ds.Model, Prior: prior}

		fD := dalia.EvalBatch([][]float64{ds.Theta0})[0]
		fR := rinla.EvalOne(ds.Theta0)
		fI := inlaDistEval(ds, prior, ds.Theta0)
		tol := 1e-6 * (1 + math.Abs(fD))
		if math.Abs(fD-fR) > tol {
			t.Fatalf("nv=%d: DALIA %v vs R-INLA-like %v", nv, fD, fR)
		}
		if math.Abs(fD-fI) > tol {
			t.Fatalf("nv=%d: DALIA %v vs INLA_DIST-like %v", nv, fD, fI)
		}
	}
}

// TestBenchmarkShapesAgreeWithSparseOracle: on the three Gaussian shapes
// the benchmark times, the DALIA evaluator — one BTA factorization, the
// prior's log-determinant and quadratic form in closed form — must
// reproduce the general sparse route, which assembles and factorizes the
// joint Q_p, to rounding.
func TestBenchmarkShapesAgreeWithSparseOracle(t *testing.T) {
	for name, gen := range map[string]synth.GenConfig{
		"fit_uni_gauss": {Nv: 1, Nt: 4, Nr: 2, MeshNx: 12, MeshNy: 12, ObsPerStep: 120, Seed: 1},
		"fit_tri_gauss": {Nv: 3, Nt: 8, Nr: 1, MeshNx: 5, MeshNy: 4, ObsPerStep: 30, Seed: 1},
		"serve_predict": {Nv: 3, Nt: 4, Nr: 2, MeshNx: 6, MeshNy: 5, ObsPerStep: 20, Seed: 1},
	} {
		ds, err := synth.Generate(gen)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prior := inla.WeakPrior(ds.Theta0, 5)
		fD := (&inla.BTAEvaluator{Model: ds.Model, Prior: prior}).EvalBatch([][]float64{ds.Theta0})[0]
		fR := (&RINLAEvaluator{Model: ds.Model, Prior: prior}).EvalOne(ds.Theta0)
		if !(math.Abs(fD-fR) <= 1e-10*math.Abs(fR)) {
			t.Errorf("%s: DALIA F = %v, sparse oracle %v", name, fD, fR)
		}
	}
}

func TestRefactorizationPathAcrossPoints(t *testing.T) {
	// Repeated evaluations at different θ exercise the symbolic-reuse path.
	ds := genSmall(t, 2)
	prior := inla.WeakPrior(ds.Theta0, 5)
	rinla := &RINLAEvaluator{Model: ds.Model, Prior: prior}
	dalia := &inla.BTAEvaluator{Model: ds.Model, Prior: prior}
	for trial := 0; trial < 3; trial++ {
		th := append([]float64(nil), ds.Theta0...)
		for i := range th {
			th[i] += 0.1 * float64(trial)
		}
		fR := rinla.EvalOne(th)
		fD := dalia.EvalBatch([][]float64{th})[0]
		if math.Abs(fR-fD) > 1e-6*(1+math.Abs(fD)) {
			t.Fatalf("trial %d: %v vs %v", trial, fR, fD)
		}
	}
}

func TestPosteriorAgreesAcrossPaths(t *testing.T) {
	ds := genSmall(t, 2)
	prior := inla.WeakPrior(ds.Theta0, 5)
	rinla := &RINLAEvaluator{Model: ds.Model, Prior: prior}
	dalia := &inla.BTAEvaluator{Model: ds.Model, Prior: prior}

	muR, vaR, err := rinla.Posterior(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	muD, vaD, err := dalia.Posterior(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	idist, err := inlaDistParts(ds.Model, prior, ds.Theta0, func(half func()) { half() })
	if err != nil {
		t.Fatal(err)
	}
	for i := range muR {
		if math.Abs(muR[i]-muD[i]) > 1e-6*(1+math.Abs(muD[i])) {
			t.Fatalf("posterior mean[%d]: %v vs %v", i, muR[i], muD[i])
		}
		if math.Abs(idist.Mu[i]-muD[i]) > 1e-6*(1+math.Abs(muD[i])) {
			t.Fatalf("posterior mean[%d]: INLA_DIST-like %v vs %v", i, idist.Mu[i], muD[i])
		}
		if math.Abs(vaR[i]-vaD[i]) > 1e-6*(1+math.Abs(vaD[i])) {
			t.Fatalf("posterior var[%d]: %v vs %v", i, vaR[i], vaD[i])
		}
	}
}

func TestInfeasiblePointsInf(t *testing.T) {
	ds := genSmall(t, 1)
	prior := inla.WeakPrior(ds.Theta0, 5)
	rinla := &RINLAEvaluator{Model: ds.Model, Prior: prior}
	bad := append([]float64(nil), ds.Theta0...)
	bad[0] = 800
	if !math.IsInf(rinla.EvalOne(bad), 1) {
		t.Fatal("infeasible point must evaluate to +Inf")
	}
	if !math.IsInf(inlaDistEval(ds, prior, bad), 1) {
		t.Fatal("infeasible point must evaluate to +Inf (INLA_DIST-like)")
	}
}

// widthRecorder evaluates points one by one, planned like a simulated
// world of `groups` groups; it records the width of every batch.
type widthRecorder struct {
	eval   func([]float64) float64
	groups int
	widths []int
}

func (e *widthRecorder) EvalBatch(points [][]float64) []float64 {
	e.widths = append(e.widths, len(points))
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = e.eval(p)
	}
	return out
}

func (e *widthRecorder) StencilPlan(width int) inla.SharedPlan {
	return inla.SharedPlan{Cores: e.groups}
}

// sequentialSim runs Minimize for k iterations over eval and returns its
// result with the evaluations each of `groups` groups makes when every
// batch is split round-robin over them.
func sequentialSim(t *testing.T, ds *synth.Dataset, eval func([]float64) float64, groups, k int) (*inla.OptResult, []int) {
	t.Helper()
	e := &widthRecorder{eval: eval, groups: groups}
	opt := inla.DefaultOptOptions()
	opt.MaxIter = k
	res, err := inla.Minimize(e, ds.Theta0, opt)
	if err != nil && !errors.Is(err, inla.ErrLineSearchFailed) {
		t.Fatal(err)
	}
	evals := make([]int, groups)
	for _, w := range e.widths {
		for i := 0; i < w; i++ {
			evals[i%groups]++
		}
	}
	return res, evals
}

func TestRunRINLASimScalesWithGroups(t *testing.T) {
	ds := genSmall(t, 1)
	prior := inla.WeakPrior(ds.Theta0, 5)
	r4, err := RunRINLASim(ds.Model, prior, ds.Theta0, 4, 1, comm.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	// Virtual time is charged from measured wall time, so compare within one
	// run only: every batch splits round-robin over the groups (the first,
	// 9 stencil points, 3/2/2/2), every group computes, and the critical
	// path is shorter than the evaluations summed over the groups — which a
	// slow host episode stretches on both sides of the inequality.
	rinla := &RINLAEvaluator{Model: ds.Model, Prior: prior}
	if _, want := sequentialSim(t, ds, rinla.EvalOne, 4, 1); !slices.Equal(r4.Evals, want) {
		t.Fatalf("evaluations per group %v, want %v", r4.Evals, want)
	}
	for r, rs := range r4.Stats.Ranks {
		if rs.ComputeSeconds <= 0 {
			t.Fatalf("group %d charged no compute time", r)
		}
	}
	if total := r4.Stats.TotalCompute(); r4.Makespan >= total {
		t.Fatalf("makespan %v s not below the %v s of compute summed over 4 groups", r4.Makespan, total)
	}
}

// RunRINLASim and RunINLADistSim are Minimize over the groups: their θ and
// trace after K iterations equal a sequential Minimize over their own
// arithmetic. World 18 gives RunINLADistSim 9 groups of two ranks, each
// charged its slower half.
func TestRunRINLASimMatchesMinimize(t *testing.T) {
	ds := genSmall(t, 1)
	prior := inla.WeakPrior(ds.Theta0, 5)
	const k = 4
	for _, tc := range []struct {
		name  string
		world int
		run   func(*model.Model, inla.Prior, []float64, int, int, comm.Machine) (*SimReport, error)
		eval  func([]float64) float64
	}{
		{"R-INLA-like", 3, RunRINLASim, (&RINLAEvaluator{Model: ds.Model, Prior: prior}).EvalOne},
		{"INLA_DIST-like", 18, RunINLADistSim, func(th []float64) float64 { return inlaDistEval(ds, prior, th) }},
	} {
		sim, err := tc.run(ds.Model, prior, ds.Theta0, tc.world, k, comm.DefaultMachine())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, evals := sequentialSim(t, ds, tc.eval, len(sim.Evals), k)
		if sim.Opt.Iterations != want.Iterations || sim.Opt.FEvals != want.FEvals || !slices.Equal(sim.Evals, evals) {
			t.Fatalf("%s: %d iterations, %d evaluations %v; sequential %d, %d %v", tc.name,
				sim.Opt.Iterations, sim.Opt.FEvals, sim.Evals, want.Iterations, want.FEvals, evals)
		}
		if len(sim.Opt.Trace) != len(want.Trace) {
			t.Fatalf("%s: trace %v, sequential %v", tc.name, sim.Opt.Trace, want.Trace)
		}
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
		for i := range want.Trace {
			if !near(sim.Opt.Trace[i], want.Trace[i]) {
				t.Fatalf("%s: trace[%d] = %v, sequential %v", tc.name, i, sim.Opt.Trace[i], want.Trace[i])
			}
		}
		for i := range want.Theta {
			if !near(sim.Opt.Theta[i], want.Theta[i]) {
				t.Fatalf("%s: θ[%d] = %v, sequential %v", tc.name, i, sim.Opt.Theta[i], want.Theta[i])
			}
		}
		if wantPerIter := sim.Makespan / float64(want.Iterations); sim.PerIter != wantPerIter {
			t.Fatalf("%s: PerIter %v, want makespan / %d iterations = %v", tc.name, sim.PerIter, want.Iterations, wantPerIter)
		}
	}
}
