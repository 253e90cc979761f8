package inla

import (
	"context"
	"errors"
	"fmt"
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

// countGradient returns V(θ) and ∂V(θ) from one gradient request on e,
// made as the arms-only stencil of the step h at θ (with its centre when
// centre is set), and the request's Newton steps.
func countGradient(t *testing.T, e *BTAEvaluator, theta []float64, h float64, centre bool) (float64, []float64, int64) {
	t.Helper()
	pts := stencilAt(theta, h)
	if !centre {
		pts = pts[1:]
	}
	steps := e.newtonSteps.Load()
	requests := e.gradRequests.Load()
	vals := e.EvalBatch(pts)
	ws := e.grads.Load()
	if e.gradRequests.Load() != requests+1 || ws == nil || !ws.grad.holds(theta) {
		t.Fatalf("the stencil at θ = %v was not answered as a gradient request", theta)
	}
	v := vals[0] - h*ws.grad.dvdth[0]
	if centre {
		v = vals[0]
	}
	return v, slices.Clone(ws.grad.dvdth), e.newtonSteps.Load() - steps
}

// countGradientShapes are the fit_bi_poisson shape at seeds 1–3 and a
// trivariate count shape.
func countGradientShapes(t *testing.T) map[string]*synth.Dataset {
	out := map[string]*synth.Dataset{"nv=3": genPoisson(t, 3)}
	for seed := int64(1); seed <= 3; seed++ {
		out[fmt.Sprintf("bi seed %d", seed)] = countShape(t, seed)
	}
	return out
}

// TestCountGradientMatchesColdStencil is the count gradient's first
// oracle: at θ₀ and at the iterate one line search later, the exact ∂V of
// a gradient request agrees with central differences of cold evaluations
// (every inner loop from x = 0) at h = 1e-4 to 1e-4·max(1, |∂_iV|) per
// component, on the fit_bi_poisson shape at seeds 1–3 and a trivariate
// count shape. The request's V is the cold value bit for bit. After the
// line search the request rebuilds the accepted candidate's kept mode
// without a Newton step, and a fresh evaluator, which solves that mode from
// x = 0, returns the same bits.
func TestCountGradientMatchesColdStencil(t *testing.T) {
	const h = 1e-4
	for name, ds := range countGradientShapes(t) {
		prior := WeakPrior(ds.Theta0, 5)
		e := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}
		opt := DefaultOptOptions()
		opt.MaxIter, opt.GradTol = 1, 0
		res, err := Minimize(e, ds.Theta0, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		theta1 := res.Theta
		if steps := e.grads.Load().mode.Inner; steps != 0 {
			t.Fatalf("%s: the request after the line search took %d Newton steps, want 0", name, steps)
		}
		for _, theta := range [][]float64{ds.Theta0, theta1} {
			fresh := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}
			v, grad, _ := countGradient(t, fresh, theta, h, true)
			pts := stencilAt(theta, h)
			cold := stencilValues(fresh, pts)
			if v != cold[0] {
				t.Fatalf("%s: V = %v, cold %v", name, v, cold[0])
			}
			want := make([]float64, len(theta))
			gradientFromBatchInto(want, cold, h)
			worst := 0.0
			for i, g := range grad {
				gap := math.Abs(g - want[i])
				if gap > 1e-4*max(1, math.Abs(want[i])) {
					t.Errorf("%s at θ = %v: ∂_%d V = %v, cold stencil %v", name, theta, i, g, want[i])
				}
				worst = max(worst, gap/max(1, math.Abs(want[i])))
			}
			t.Logf("%s: worst gap to the cold stencil %.2g of max(1, |∂_iV|)", name, worst)
		}
		// The line search's own request at θ₁ read the kept mode.
		kept := e.grads.Load()
		_, grad, _ := countGradient(t, &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}, theta1, opt.GradStep, false)
		if !slices.Equal(kept.grad.dvdth, grad) {
			t.Fatalf("%s: ∂V at θ₁ from the kept mode %v, solved afresh %v", name, kept.grad.dvdth, grad)
		}
	}
}

// denseCountF is F(θ) of a count model along the general-sparse route with
// dense linear algebra: the mode from model.ConditionalModePoisson on a
// dense Cholesky, log det Q_c and log det Q_p from dense factors, μᵀQ_pμ
// from the dense Q_p.
func denseCountF(t *testing.T, m *model.Model, prior Prior, theta []float64) float64 {
	t.Helper()
	th, err := m.DecodeTheta(theta)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := m.ConditionalModePoisson(th, func(qc *sparse.CSR) (func([]float64) []float64, error) {
		l, err := dense.Chol(qc.ToDense())
		if err != nil {
			return nil, err
		}
		return func(rhs []float64) []float64 {
			x := append([]float64(nil), rhs...)
			dense.PotrsVec(l, x)
			return x
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	logDet := func(a *sparse.CSR) float64 {
		l, err := dense.Chol(a.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		return dense.LogDetFromChol(l)
	}
	qp := m.QpCSR(th)
	qx := make([]float64, len(mode.XPM))
	qp.MulVec(mode.XPM, qx)
	return prior.LogDensity(theta) + m.LogLik(th, mode.XPerm) + 0.5*logDet(qp) -
		0.5*dense.Dot(mode.XPM, qx) - 0.5*logDet(mode.QcCSR)
}

// TestCountGradientMatchesDenseOracle is the count gradient's second
// oracle: on a tiny mesh the exact ∂V agrees with central differences of
// F along the general-sparse route with dense linear algebra (denseCountF)
// at h = 1e-4 to 1e-4·max(1, |∂_iV|) per component, and V with −F there.
func TestCountGradientMatchesDenseOracle(t *testing.T) {
	const h = 1e-4
	for _, nv := range []int{1, 2} {
		ds, err := synth.Generate(synth.GenConfig{
			Nv: nv, Nt: 2, Nr: 1, MeshNx: 3, MeshNy: 3, ObsPerStep: 12,
			Seed: 5, Family: model.LikPoisson,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, prior := ds.Model, WeakPrior(ds.Theta0, 5)
		v, grad, _ := countGradient(t, &BTAEvaluator{Model: m, Prior: prior, Workers: 1}, ds.Theta0, 1e-3, true)
		if f := denseCountF(t, m, prior, ds.Theta0); math.Abs(v+f) > 1e-9*math.Abs(f) {
			t.Fatalf("nv=%d: V = %v, dense −F %v", nv, v, -f)
		}
		worst := 0.0
		for i, g := range grad {
			plus, minus := slices.Clone(ds.Theta0), slices.Clone(ds.Theta0)
			plus[i] += h
			minus[i] -= h
			want := -(denseCountF(t, m, prior, plus) - denseCountF(t, m, prior, minus)) / (2 * h)
			gap := math.Abs(g - want)
			if gap > 1e-4*max(1, math.Abs(want)) {
				t.Errorf("nv=%d: ∂_%d V = %v, dense differences %v", nv, i, g, want)
			}
			worst = max(worst, gap/max(1, math.Abs(want)))
		}
		t.Logf("nv=%d: worst gap to the dense differences %.2g of max(1, |∂_iV|)", nv, worst)
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
// no batch is a gradient request and every inner Newton loop starts from
// x = 0: the stencil route, the oracle of the exact count gradient.
// Embedding forwards StencilPlan, so the line search runs as wide as it
// does on the evaluator itself.
type coldEvaluator struct{ *BTAEvaluator }

func (e coldEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i := range points {
		out[i] = e.BTAEvaluator.EvalBatch(points[i : i+1])[0]
	}
	return out
}

// TestCountFitMatchesColdOracle is the fit-level gate of the exact count
// gradient: default-option fits at the fit_bi_poisson shape, seeds 1–8,
// converge on the exact route and on the stencil route (coldEvaluator),
// and each component of θ* agrees within the stopping rule's resolution
// 2·GradTol·Σ_j|H⁻¹_ij|, H⁻¹ the exact fit's ThetaCov; the exact route
// gives ThetaSD at least as often. Iteration counts are logged.
func TestCountFitMatchesColdOracle(t *testing.T) {
	if testing.Short() || dense.RaceEnabled {
		t.Skip("sixteen converged count fits; the race job runs the exact route in the other count tests")
	}
	opts := DefaultFitOptions()
	var sdExact, sdCold int
	for seed := int64(1); seed <= 8; seed++ {
		ds := countShape(t, seed)
		prior := WeakPrior(ds.Theta0, 5)
		got, err := fitWith(ds.Model, &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}, ds.Theta0, opts)
		if err != nil || !got.Opt.Converged {
			t.Fatalf("seed %d: converged %v, err %v", seed, got != nil && got.Opt.Converged, err)
		}
		want, err := fitWith(ds.Model, coldEvaluator{&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}}, ds.Theta0, opts)
		if err != nil || !want.Opt.Converged {
			t.Fatalf("seed %d: stencil route converged %v, err %v", seed, want != nil && want.Opt.Converged, err)
		}
		if got.ThetaSD != nil {
			sdExact++
		}
		if want.ThetaSD != nil {
			sdCold++
		}
		cov := got.ThetaCov
		if cov == nil {
			cov = want.ThetaCov
		}
		if cov == nil {
			t.Fatalf("seed %d: neither fit has a Hessian", seed)
		}
		worst := 0.0
		for i := range want.Theta {
			var bound float64
			for j := range want.Theta {
				bound += math.Abs(cov.At(i, j))
			}
			bound *= 2 * opts.Opt.GradTol
			gap := math.Abs(got.Theta[i] - want.Theta[i])
			if gap > bound {
				t.Errorf("seed %d: θ*_%d = %v, stencil route %v: |Δ| = %.2g > %.2g", seed, i, got.Theta[i], want.Theta[i], gap, bound)
			}
			worst = max(worst, gap/bound)
		}
		t.Logf("seed %d: %d iterations, stencil route %d; max |Δθ*_i| / bound_i = %.2g", seed, got.Opt.Iterations, want.Opt.Iterations, worst)
	}
	t.Logf("ThetaSD on %d exact fits, %d stencil-route fits", sdExact, sdCold)
	if sdExact < sdCold {
		t.Fatalf("ThetaSD on %d exact fits, %d stencil-route fits", sdExact, sdCold)
	}
}

// TestCountPosteriorReusesLastGradient: a count fit's μ, latent variances
// and Σ are those of latentPosterior recomputed cold at θ*, bit for bit,
// with the Hessian stage on and off; the search's last request was at θ*,
// so the posterior read them off its arena.
func TestCountPosteriorReusesLastGradient(t *testing.T) {
	ds := countShape(t, 1)
	m, prior := ds.Model, WeakPrior(ds.Theta0, 5)
	for _, skip := range []bool{false, true} {
		opts := DefaultFitOptions()
		opts.Opt.MaxIter = 4
		opts.SkipHyperUncertainty = skip
		probe := &BTAEvaluator{Model: m, Prior: prior}
		opt, err := Minimize(probe, ds.Theta0, opts.Opt)
		if err != nil {
			t.Fatal(err)
		}
		if ws := probe.grads.Load(); ws == nil || !ws.grad.holds(opt.Theta) {
			t.Fatal("the search's last request was not at θ*")
		}
		res, err := fitWith(m, &BTAEvaluator{Model: m, Prior: prior}, ds.Theta0, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, mu, _, sig, err := latentPosterior(m, res.Theta, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Mu, mu) || !slices.Equal(res.LatentVar, sig.DiagVec()) ||
			!slices.Equal(res.Sigma.ToDense().Data, sig.ToDense().Data) {
			t.Fatalf("Hessian skipped %v: μ, the latent variances or Σ differ from a cold posterior's", skip)
		}
	}
}
