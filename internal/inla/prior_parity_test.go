package inla

import (
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// benchmarkShapes returns the dataset recipes of the four BENCHMARK.json
// workloads (benchmark/spec.go: workloads and genConfig), at seed 1.
func benchmarkShapes(t testing.TB) map[string]synth.GenConfig {
	t.Helper()
	// The count workload's tamer ground truth, without which the inner
	// Newton loop diverges on some seeds.
	truth := synth.DefaultTruth(2, 400)
	l, err := coreg.NewLambda([]float64{0.5, 0.6}, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	truth.Lambda = l
	return map[string]synth.GenConfig{
		"fit_uni_gauss": {Nv: 1, Nt: 4, Nr: 2, MeshNx: 12, MeshNy: 12, ObsPerStep: 120, Seed: 1},
		"fit_tri_gauss": {Nv: 3, Nt: 8, Nr: 1, MeshNx: 5, MeshNy: 4, ObsPerStep: 30, Seed: 1},
		"fit_bi_poisson": {Nv: 2, Nt: 4, Nr: 2, MeshNx: 6, MeshNy: 5, ObsPerStep: 40, Seed: 1,
			Family: model.LikPoisson, Truth: truth, FixedEffects: [][]float64{{0.6, -0.2}, {0.9, 0.2}}},
		"serve_predict": {Nv: 3, Nt: 4, Nr: 2, MeshNx: 6, MeshNy: 5, ObsPerStep: 20, Seed: 1},
	}
}

// jointPriorEvaluator is the evaluation this package ran before the prior
// left the solver: the same Q_c pipeline, with log det Q_p and μᵀQ_pμ taken
// from the assembled and factorized joint Q_p.
type jointPriorEvaluator struct {
	BTAEvaluator
	t *testing.T
}

func (e *jointPriorEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		parts, err := EvalFobj(e.Model, e.Prior, p)
		if err != nil {
			out[i] = math.Inf(1)
			continue
		}
		parts.LogDetQp, parts.QuadQp = jointPrior(e.t, e.Model, p, parts.Mu)
		out[i] = -parts.F()
	}
	return out
}

// TestFobjMatchesJointRouteOnBenchmarkShapes holds F with the closed-form
// prior to the oracle above, which factorizes the joint Q_p, and to the
// distributed evaluator at World 2 (Gaussian likelihood only), on the
// shapes the benchmark times.
func TestFobjMatchesJointRouteOnBenchmarkShapes(t *testing.T) {
	for name, gen := range benchmarkShapes(t) {
		ds, err := synth.Generate(gen)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prior := WeakPrior(ds.Theta0, 5)
		e := &BTAEvaluator{Model: ds.Model, Prior: prior}
		got := e.EvalBatch([][]float64{ds.Theta0})[0]
		want := (&jointPriorEvaluator{BTAEvaluator: BTAEvaluator{Model: ds.Model, Prior: prior}, t: t}).
			EvalBatch([][]float64{ds.Theta0})[0]
		if !(math.Abs(got-want) <= 1e-10*math.Abs(want)) {
			t.Errorf("%s: F = %v, joint Q_p route %v", name, got, want)
		}
		if ds.Model.Lik != model.LikGaussian {
			continue
		}
		rep, err := RunDistributed(ds.Model, prior, ds.Theta0, DistConfig{
			World: 2, Machine: comm.DefaultMachine(), Iterations: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !(math.Abs(got-rep.Opt.Trace[0]) <= 1e-10*math.Abs(got)) {
			t.Errorf("%s: F = %v, distributed evaluator %v", name, got, rep.Opt.Trace[0])
		}
	}
}

// TestFitMatchesJointPriorRoute: the closed forms agree with the joint
// route to rounding, so a complete fit must walk the same path — same
// iteration and evaluation counts — to the same mode. The joint route
// evaluates every point, so the closed-form fit here answers its gradient
// stencils with real values too (pointwise).
func TestFitMatchesJointPriorRoute(t *testing.T) {
	for _, nv := range []int{1, 2} {
		ds := genSmall(t, nv)
		prior := WeakPrior(ds.Theta0, 5)
		opts := DefaultFitOptions()
		opts.Opt.MaxIter = 15
		got, err := fitWith(ds.Model, pointwise{&BTAEvaluator{Model: ds.Model, Prior: prior}}, ds.Theta0, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fitWith(ds.Model, &jointPriorEvaluator{BTAEvaluator: BTAEvaluator{Model: ds.Model, Prior: prior}, t: t},
			ds.Theta0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Opt.Iterations != want.Opt.Iterations || got.Opt.FEvals != want.Opt.FEvals {
			t.Errorf("nv=%d: %d iterations / %d evaluations, joint route %d / %d", nv,
				got.Opt.Iterations, got.Opt.FEvals, want.Opt.Iterations, want.Opt.FEvals)
		}
		for i := range want.Theta {
			if math.Abs(got.Theta[i]-want.Theta[i]) > 1e-8 {
				t.Errorf("nv=%d: θ*[%d] = %v, joint route %v", nv, i, got.Theta[i], want.Theta[i])
			}
		}
	}
}

// TestArenaHoldsOneFactorNoMatrix pins the evaluation arena's BTA storage:
// a fresh arena holds its sequential factor and nothing else — Q_c is
// assembled into the factor's workspace, the prior owns no BTA matrix and
// a count model's Q_p lives in its Newton work. After a Gaussian fit with
// the Hessian stage at Workers 8 on an nt = 20 shape, whose narrow batches
// could split a factorization in five, every pooled arena still holds its
// one sequential factor alone.
func TestArenaHoldsOneFactorNoMatrix(t *testing.T) {
	held := func(arena *solverScratch) []string {
		var out []string
		rv := reflect.ValueOf(arena).Elem()
		for i := 0; i < rv.NumField(); i++ {
			if f := rv.Field(i); f.Kind() == reflect.Ptr && !f.IsNil() {
				out = append(out, f.Type().String())
			}
		}
		return out
	}
	want := []string{reflect.TypeOf((*bta.Factor)(nil)).String()}
	ds := genSmall(t, 2)
	if got := held(newSolverScratch(ds.Model)); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh evaluation arena holds %v, want %v", got, want)
	}

	ds, err := synth.Generate(synth.GenConfig{Nv: 1, Nt: 20, Nr: 1, MeshNx: 3, MeshNy: 3, ObsPerStep: 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5), Workers: 8}
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // two GCs would empty the pool
	if _, err := fitWith(ds.Model, e, ds.Theta0, opts); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		ws, ok := e.scratch.Get().(*solverScratch)
		if !ok {
			break
		}
		if got := held(ws); !reflect.DeepEqual(got, want) {
			t.Fatalf("pooled arena %d holds %v after the fit, want %v", n, got, want)
		}
		n++
	}
	if n == 0 && !dense.RaceEnabled { // race-mode sync.Pool drops Put items
		t.Fatal("no pooled arena after the fit")
	}
}
