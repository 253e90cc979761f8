package inla

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// btaFactorizer is the solver hook of model.ConditionalModePoisson, the
// general-sparse route: map a process-major Q_c with the model's pattern
// into BTA form, factorize, and solve on process-major vectors.
func btaFactorizer(m *model.Model) func(*sparse.CSR) (func([]float64) []float64, error) {
	return func(qc *sparse.CSR) (func([]float64) []float64, error) {
		qb, err := m.QcFromCSR(qc)
		if err != nil {
			return nil, err
		}
		f, err := bta.Factorize(qb)
		if err != nil {
			return nil, err
		}
		return func(rhsPM []float64) []float64 {
			x := m.ApplyPerm(rhsPM)
			f.Solve(x)
			return m.UnPerm(x)
		}, nil
	}
}

func genPoisson(t *testing.T, nv int) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: nv, Nt: 3, Nr: 2,
		MeshNx: 4, MeshNy: 4,
		ObsPerStep: 30,
		Seed:       13,
		Family:     model.LikPoisson,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPoissonDimTheta(t *testing.T) {
	ds := genPoisson(t, 2)
	// Poisson models drop the nv noise precisions: 3·2 + 1 = 7.
	if got := ds.Model.NumHyper(); got != 7 {
		t.Fatalf("Poisson dim(θ) = %d, want 7", got)
	}
	if len(ds.Theta0) != 7 {
		t.Fatalf("theta0 length %d", len(ds.Theta0))
	}
	dec, err := ds.Model.DecodeTheta(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.TauY != nil {
		t.Fatal("Poisson decode must not produce noise precisions")
	}
}

func TestPoissonCountsAreCounts(t *testing.T) {
	ds := genPoisson(t, 1)
	for _, y := range ds.Model.Obs.Y[0] {
		if y < 0 || y != math.Trunc(y) {
			t.Fatalf("Poisson observation %v is not a count", y)
		}
	}
}

func TestPoissonInnerNewtonConverges(t *testing.T) {
	ds := genPoisson(t, 1)
	th, err := ds.Model.DecodeTheta(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := ds.Model.ConditionalModePoisson(th, btaFactorizer(ds.Model))
	if err != nil {
		t.Fatal(err)
	}
	if mode.Inner < 2 || mode.Inner > 30 {
		t.Fatalf("inner iterations = %d", mode.Inner)
	}
	// At the mode, the Newton update must be a (near) fixed point: one more
	// step barely moves the state.
	solve, err := btaFactorizer(ds.Model)(mode.QcCSR)
	if err != nil {
		t.Fatal(err)
	}
	next := solve(scoreRHSForTest(ds.Model, th, mode))
	var diff, norm float64
	for i := range next {
		d := next[i] - mode.XPM[i]
		diff += d * d
		norm += mode.XPM[i] * mode.XPM[i]
	}
	if diff > 1e-6*(1+norm) {
		t.Fatalf("mode is not a Newton fixed point: Δ² = %v", diff)
	}
}

// scoreRHSForTest re-derives the Newton right-hand side at the mode through
// the exported pieces (η from the mode state).
func scoreRHSForTest(m *model.Model, th *model.Theta, mode *model.PoissonMode) []float64 {
	return m.ScoreRHSForTest(th, mode)
}

func TestPoissonFobjFinite(t *testing.T) {
	ds := genPoisson(t, 2)
	prior := WeakPrior(ds.Theta0, 5)
	parts, err := EvalFobj(ds.Model, prior, ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(parts.F()) || math.IsInf(parts.F(), 0) {
		t.Fatalf("Poisson fobj = %v", parts.F())
	}
	if parts.LogLik > 0 {
		t.Fatalf("Poisson loglik %v must be negative for counts > 1", parts.LogLik)
	}
}

func TestPoissonFitRecovers(t *testing.T) {
	ds := genPoisson(t, 1)
	truth := ds.Model.EncodeTheta(ds.TrueTheta)
	prior := WeakPrior(truth, 3)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 10
	opts.SkipHyperUncertainty = true
	res, err := Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Latent log-intensity recovery: correlation with truth.
	var num, da, db float64
	for i := range res.Mu {
		num += res.Mu[i] * ds.TrueX[i]
		da += res.Mu[i] * res.Mu[i]
		db += ds.TrueX[i] * ds.TrueX[i]
	}
	corr := num / math.Sqrt(da*db)
	if corr < 0.4 {
		t.Fatalf("Poisson latent recovery correlation %v", corr)
	}
	for i, v := range res.LatentVar {
		if v <= 0 {
			t.Fatalf("latent variance[%d] = %v", i, v)
		}
	}
}

func TestPoissonModeImprovesLoglik(t *testing.T) {
	// The conditional mode must have a higher penalized loglik than zero.
	ds := genPoisson(t, 1)
	th, err := ds.Model.DecodeTheta(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := ds.Model.ConditionalModePoisson(th, btaFactorizer(ds.Model))
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, ds.Model.Dims.Total())
	llZero := ds.Model.LogLik(th, zero)
	if ll := ds.Model.LogLik(th, mode.XPerm); ll <= llZero {
		t.Fatalf("mode loglik %v not above zero-state loglik %v", ll, llZero)
	}
}

func TestPoissonDistributedRejected(t *testing.T) {
	ds := genPoisson(t, 1)
	prior := WeakPrior(ds.Theta0, 5)
	_, err := RunDistributed(ds.Model, prior, ds.Theta0, DistConfig{
		World: 2, Machine: comm.DefaultMachine(), Iterations: 1,
	})
	if err == nil {
		t.Fatal("distributed driver must reject non-Gaussian models explicitly")
	}
}

// countShape generates the fit_bi_poisson benchmark dataset at a seed.
func countShape(t testing.TB, seed int64) *synth.Dataset {
	t.Helper()
	gen := benchmarkShapes(t)["fit_bi_poisson"]
	gen.Seed = seed
	ds, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCountStencilMatchesColdOracle: every point of a count model's
// gradient stencil agrees with its cold EvalFobj to 1e-12 relative, the
// centre bit for bit, and the arms take fewer Newton steps than cold ones;
// an arms-only stencil gives the same bits whether its centre's mode was
// kept from the previous line-search round or solved afresh.
func TestCountStencilMatchesColdOracle(t *testing.T) {
	ds := countShape(t, 1)
	prior := WeakPrior(ds.Theta0, 5)
	cold := func(pts [][]float64) ([]float64, int64) {
		e := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}
		out := make([]float64, len(pts))
		for i := range pts {
			out[i] = e.EvalBatch(pts[i : i+1])[0]
		}
		return out, e.newtonSteps.Load()
	}
	check := func(name string, got, want []float64, bitCentre bool) {
		t.Helper()
		worst := 0.0
		for i, w := range want {
			rel := math.Abs(got[i]-w) / math.Abs(w)
			if math.IsNaN(rel) || rel > 1e-12 || (i == 0 && bitCentre && got[i] != w) {
				t.Fatalf("%s: point %d = %v, cold %v", name, i, got[i], w)
			}
			worst = max(worst, rel)
		}
		t.Logf("%s: max relative difference to cold %.2g", name, worst)
	}

	e := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}
	pts := gradientPoints(ds.Theta0, 1e-3)
	want, coldSteps := cold(pts)
	got := e.EvalBatch(pts)
	check("θ₀ stencil", got, want, true)
	if warm := e.newtonSteps.Load(); warm >= coldSteps {
		t.Fatalf("the stencil took %d Newton steps, cold %d", warm, coldSteps)
	}

	// A line-search round, then the arms at its second candidate.
	x := append([]float64(nil), ds.Theta0...)
	for i := range x {
		x[i] += 0.05 * float64(i%3-1)
	}
	x2 := append([]float64(nil), x...)
	x2[0] += 0.01
	e.EvalBatch([][]float64{x2, x})
	arms := gradientPoints(x, 1e-3)[1:]
	want, _ = cold(arms)
	hit := e.EvalBatch(arms)
	check("arms after a round", hit, want, false)
	miss := (&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}).EvalBatch(arms)
	if !slices.Equal(hit, miss) {
		t.Fatalf("arms with the centre's mode kept %v, solved afresh %v", hit, miss)
	}
}

// TestCountResumeBitIdentical: a count-model search cancelled from its
// checkpoint hook at the first checkpoint and resumed on a fresh evaluator
// — whose first stencil finds no kept centre mode — equals the
// uninterrupted search bit for bit.
func TestCountResumeBitIdentical(t *testing.T) {
	ds := countShape(t, 1)
	prior := WeakPrior(ds.Theta0, 5)
	opts := DefaultOptOptions()
	opts.MaxIter = 6
	opts.GradTol = 0
	search := func(o OptOptions) (*OptResult, error) {
		return Minimize(&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}, ds.Theta0, o)
	}
	want, err := search(opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *OptCheckpoint
	interrupted := opts
	interrupted.Ctx = ctx
	interrupted.Checkpoint = func(ck *OptCheckpoint) error {
		last = ck
		cancel()
		return nil
	}
	if _, err := search(interrupted); !errors.Is(err, ErrFitCanceled) {
		t.Fatalf("want ErrFitCanceled, got %v", err)
	}
	if last == nil || last.Iter != 1 {
		t.Fatalf("last checkpoint %+v, want iteration 1", last)
	}
	ck, err := UnmarshalOptCheckpoint(MarshalOptCheckpoint(last))
	if err != nil {
		t.Fatal(err)
	}
	resumed := opts
	resumed.Resume = ck
	got, err := search(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Theta, want.Theta) || got.F != want.F || !slices.Equal(got.Trace, want.Trace) ||
		got.Iterations != want.Iterations || got.FEvals != want.FEvals {
		t.Fatalf("resumed θ %v F %v trace %v (%d it, %d evals); uninterrupted θ %v F %v trace %v (%d it, %d evals)",
			got.Theta, got.F, got.Trace, got.Iterations, got.FEvals, want.Theta, want.F, want.Trace, want.Iterations, want.FEvals)
	}
}

// TestCountFitBitIdenticalAcrossWorkers: a count-model fit with the
// Hessian stage gives the same bits at 1, 2 and 4 workers — θ, F, the
// trace, the hyperparameter covariance and the latent posterior — although
// the line search evaluates 1, 2 or 4 candidates per round.
func TestCountFitBitIdenticalAcrossWorkers(t *testing.T) {
	ds := countShape(t, 1)
	prior := WeakPrior(ds.Theta0, 5)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 6
	var want *Result
	for _, w := range []int{1, 2, 4} {
		res, err := fitWith(ds.Model, &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: w}, ds.Theta0, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.ThetaCov == nil {
			t.Fatalf("workers=%d: no Hessian stage", w)
		}
		if want == nil {
			want = res
			continue
		}
		if !slices.Equal(res.Theta, want.Theta) || res.Opt.F != want.Opt.F || !slices.Equal(res.Opt.Trace, want.Opt.Trace) ||
			res.Opt.Iterations != want.Opt.Iterations || !slices.Equal(res.ThetaCov.Data, want.ThetaCov.Data) ||
			!slices.Equal(res.Mu, want.Mu) || !slices.Equal(res.LatentVar, want.LatentVar) {
			t.Fatalf("workers=%d: θ %v F %v trace %v; workers=1: θ %v F %v trace %v",
				w, res.Theta, res.Opt.F, res.Opt.Trace, want.Theta, want.Opt.F, want.Opt.Trace)
		}
	}
}

// coldEvaluator evaluates every point of a batch as a batch of its own, so
// every inner Newton loop starts from x = 0: the oracle of the warm
// stencils. Embedding forwards StencilPlan, so the line search runs as wide
// as it does on the evaluator itself.
type coldEvaluator struct{ *BTAEvaluator }

func (e coldEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i := range points {
		out[i] = e.BTAEvaluator.EvalBatch(points[i : i+1])[0]
	}
	return out
}

// TestCountFitMatchesColdOracle: converged default fits at the
// fit_bi_poisson shape, seeds 1–6, take the cold path's iterations and
// evaluations, reach its θ* to 1e-6, and average at most three Newton
// steps per evaluation.
func TestCountFitMatchesColdOracle(t *testing.T) {
	if testing.Short() || dense.RaceEnabled {
		t.Skip("twelve converged count fits; the race job runs the warm path in the other count tests")
	}
	for seed := int64(1); seed <= 6; seed++ {
		ds := countShape(t, seed)
		prior := WeakPrior(ds.Theta0, 5)
		warmE := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}
		coldE := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}
		got, err := Minimize(warmE, ds.Theta0, DefaultOptOptions())
		if err != nil || !got.Converged {
			t.Fatalf("seed %d: converged %v, err %v", seed, got != nil && got.Converged, err)
		}
		want, err := Minimize(coldEvaluator{coldE}, ds.Theta0, DefaultOptOptions())
		if err != nil || !want.Converged {
			t.Fatalf("seed %d: cold path converged %v, err %v", seed, want != nil && want.Converged, err)
		}
		if got.Iterations != want.Iterations || got.FEvals != want.FEvals {
			t.Fatalf("seed %d: %d iterations, %d evaluations; cold %d, %d", seed, got.Iterations, got.FEvals, want.Iterations, want.FEvals)
		}
		dtheta := 0.0
		for i := range want.Theta {
			dtheta = max(dtheta, math.Abs(got.Theta[i]-want.Theta[i]))
		}
		warm := float64(warmE.newtonSteps.Load()) / float64(got.FEvals)
		t.Logf("seed %d: %d iterations, max|Δθ*| %.2g, Newton steps per evaluation %.2f (cold %.2f)",
			seed, got.Iterations, dtheta, warm, float64(coldE.newtonSteps.Load())/float64(want.FEvals))
		if dtheta > 1e-6 || warm > 3 {
			t.Fatalf("seed %d: max|Δθ*| = %.2g, %.2f Newton steps per evaluation", seed, dtheta, warm)
		}
	}
}
