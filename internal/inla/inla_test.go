package inla

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// quadEvaluator is an analytic Evaluator for optimizer unit tests:
// F(θ) = ½(θ−c)ᵀ·Q·(θ−c) with known minimum c and Hessian Q.
type quadEvaluator struct {
	q *dense.Matrix
	c []float64
}

func (e *quadEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	d := len(e.c)
	for i, p := range points {
		r := make([]float64, d)
		for j := range r {
			r[j] = p[j] - e.c[j]
		}
		tmp := make([]float64, d)
		dense.Gemv(dense.NoTrans, 1, e.q, r, 0, tmp)
		out[i] = 0.5 * dense.Dot(r, tmp)
	}
	return out
}

// gradientPoints allocates and fills the 2d+1-point stencil at theta.
func gradientPoints(theta []float64, h float64) [][]float64 {
	pts := make([][]float64, 2*len(theta)+1)
	for i := range pts {
		pts[i] = make([]float64, len(theta))
	}
	fillGradientPoints(pts, theta, h)
	return pts
}

// gradientFromBatch is gradientFromBatchInto into a fresh gradient.
func gradientFromBatch(vals []float64, h float64) (float64, []float64) {
	g := make([]float64, (len(vals)-1)/2)
	return gradientFromBatchInto(g, vals, h), g
}

func TestGradientPointsLayout(t *testing.T) {
	pts := gradientPoints([]float64{1, 2}, 0.1)
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 2d+1 = 5", len(pts))
	}
	if pts[0][0] != 1 || pts[0][1] != 2 {
		t.Fatal("center point wrong")
	}
	if pts[1][0] != 1.1 || pts[2][0] != 0.9 {
		t.Fatal("dimension-0 stencil wrong")
	}
	if pts[3][1] != 2.1 || pts[4][1] != 1.9 {
		t.Fatal("dimension-1 stencil wrong")
	}
}

// TestGradientCentreRoundTrip: gradientCentre inverts fillGradientPoints
// bit for bit, with and without the centre, and matches neither a
// line-search round, a d = 1 stencil, nor a stencil with one arm moved.
func TestGradientCentreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for d := 1; d <= 7; d++ {
		for _, h := range []float64{1e-3, 2.5e-4, 0.7} {
			theta := make([]float64, d)
			for i := range theta {
				theta[i] = 10 * rng.NormFloat64()
			}
			pts := gradientPoints(theta, h)
			c := make([]float64, d)
			for _, from := range []int{0, 1} {
				got, ok := gradientCentre(pts[1-from:], c)
				if d == 1 {
					if ok {
						t.Fatalf("d=1: a one-pair stencil was recognized")
					}
					continue
				}
				if !ok || got != from || !slices.Equal(c, theta) {
					t.Fatalf("d=%d h=%v centre=%v: from %d ok %v centre %v, want %d and %v",
						d, h, from == 1, got, ok, c, from, theta)
				}
			}
			if d == 1 {
				continue
			}
			moved := gradientPoints(theta, h)
			moved[1+2*(d-1)][0] += h
			if _, ok := gradientCentre(moved, c); ok {
				t.Fatalf("d=%d: an arm off its own axis was recognized", d)
			}
			moved = gradientPoints(theta, h)
			moved[0][d-1] += h
			if _, ok := gradientCentre(moved, c); ok {
				t.Fatalf("d=%d: a stencil whose centre disagrees with its arms was recognized", d)
			}
			// A line-search round of 2d or 2d+1 halving candidates.
			p := make([]float64, d)
			for i := range p {
				p[i] = rng.NormFloat64()
			}
			for _, n := range []int{2 * d, 2*d + 1} {
				round := make([][]float64, n)
				for j, s := 0, 1.0; j < n; j, s = j+1, s*0.5 {
					round[j] = make([]float64, d)
					searchPoint(round[j], theta, p, s)
				}
				if _, ok := gradientCentre(round, c); ok {
					t.Fatalf("d=%d: a line-search round of %d was recognized", d, n)
				}
			}
		}
	}
}

func TestGradientFromBatchLinearExact(t *testing.T) {
	// F(θ) = 3θ₀ − 2θ₁: central differences are exact for linear functions.
	theta := []float64{0.5, -0.25}
	h := 0.05
	pts := gradientPoints(theta, h)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = 3*p[0] - 2*p[1]
	}
	f, g := gradientFromBatch(vals, h)
	if math.Abs(f-(3*0.5+0.5)) > 1e-12 {
		t.Fatalf("f = %v", f)
	}
	if math.Abs(g[0]-3) > 1e-10 || math.Abs(g[1]+2) > 1e-10 {
		t.Fatalf("g = %v", g)
	}
}

func TestMinimizeQuadratic(t *testing.T) {
	q := dense.New(3, 3)
	q.Set(0, 0, 4)
	q.Set(1, 1, 1)
	q.Set(2, 2, 9)
	q.Set(0, 1, 0.5)
	q.Set(1, 0, 0.5)
	e := &quadEvaluator{q: q, c: []float64{1, -2, 0.5}}
	res, err := Minimize(e, []float64{0, 0, 0}, DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	for i, want := range e.c {
		if math.Abs(res.Theta[i]-want) > 1e-2 {
			t.Fatalf("θ[%d] = %v want %v", i, res.Theta[i], want)
		}
	}
	// Trace must be non-increasing.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] > res.Trace[i-1]+1e-12 {
			t.Fatalf("objective increased at iteration %d", i)
		}
	}
}

func TestMinimizeInfeasibleStart(t *testing.T) {
	e := &infEvaluator{}
	if _, err := Minimize(e, []float64{0}, DefaultOptOptions()); err == nil {
		t.Fatal("infeasible start must error")
	}
}

type infEvaluator struct{}

func (e *infEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i := range out {
		out[i] = math.Inf(1)
	}
	return out
}

// TestHessianAtModeQuadratic: the stencil recovers a quadratic's Hessian,
// and its 2d² + 1 points go to the evaluator as one batch at any core
// budget.
func TestHessianAtModeQuadratic(t *testing.T) {
	q := dense.New(2, 2)
	q.Set(0, 0, 3)
	q.Set(1, 1, 5)
	q.Set(0, 1, 1)
	q.Set(1, 0, 1)
	for _, cores := range []int{1, 2, 8} {
		e := &planEvaluator{quadEvaluator: quadEvaluator{q: q, c: []float64{0.2, -0.7}}, cores: cores}
		h, err := HessianAtMode(e, e.c, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Equal(q, 1e-5) {
			t.Fatalf("%d cores: Hessian mismatch:\n%v\nwant\n%v", cores, h, q)
		}
		if len(e.widths) != 1 || e.widths[0] != 9 {
			t.Fatalf("%d cores: batch widths %v, want [9]", cores, e.widths)
		}
	}
}

func TestPriorLogDensity(t *testing.T) {
	p := WeakPrior([]float64{0, 0}, 1)
	// Standard normal at 0: −½log(2π) each.
	want := -math.Log(2 * math.Pi)
	if got := p.LogDensity([]float64{0, 0}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("prior at mean = %v want %v", got, want)
	}
	if p.LogDensity([]float64{1, 1}) >= p.LogDensity([]float64{0, 0}) {
		t.Fatal("prior must decrease away from the mean")
	}
}

func genSmall(t *testing.T, nv int) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: nv, Nt: 3, Nr: 2,
		MeshNx: 4, MeshNy: 4,
		ObsPerStep: 25,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// jointPrior evaluates log det Q_p and xᵀQ_p·x the way the objective did
// before the prior left the solver — assemble the joint Q_p, factorize it,
// multiply — and is the oracle the closed forms are held to.
func jointPrior(t *testing.T, m *model.Model, theta, x []float64) (logDet, quad float64) {
	t.Helper()
	th, err := m.DecodeTheta(theta)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := m.Qp(th)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bta.Factorize(qp)
	if err != nil {
		t.Fatal(err)
	}
	qx := make([]float64, len(x))
	qp.MulVec(x, qx)
	return f.LogDet(), dense.Dot(x, qx)
}

func TestEvalFobjFiniteAndMatchesJointPrior(t *testing.T) {
	ds := genSmall(t, 2)
	prior := WeakPrior(ds.Theta0, 5)
	p, err := EvalFobj(ds.Model, prior, ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p.F()) || math.IsInf(p.F(), 0) {
		t.Fatalf("fobj = %v", p.F())
	}
	ld, quad := jointPrior(t, ds.Model, ds.Theta0, p.Mu)
	joint := p
	joint.LogDetQp, joint.QuadQp = ld, quad
	if math.Abs(p.F()-joint.F()) > 1e-12*math.Abs(joint.F()) {
		t.Fatalf("closed-form prior F = %v, joint Q_p route F = %v", p.F(), joint.F())
	}
	if p.LatentDim != ds.Model.Dims.Total() {
		t.Fatalf("latent dim %d", p.LatentDim)
	}
}

func TestEvalFobjPrefersTruthOverJunk(t *testing.T) {
	// fobj at the generating hyperparameters should beat a far-off point.
	ds := genSmall(t, 2)
	truth := ds.Model.EncodeTheta(ds.TrueTheta)
	prior := WeakPrior(truth, 10)
	at, err := EvalFobj(ds.Model, prior, truth)
	if err != nil {
		t.Fatal(err)
	}
	junk := append([]float64(nil), truth...)
	for i := range junk {
		junk[i] += 3 // e^3 ≈ 20× off on every scale parameter
	}
	atJunk, err := EvalFobj(ds.Model, prior, junk)
	if err == nil && atJunk.F() > at.F() {
		t.Fatalf("fobj prefers junk (%v) over truth (%v)", atJunk.F(), at.F())
	}
}

func TestFitRecoversUnivariateNoise(t *testing.T) {
	ds := genSmall(t, 1)
	truth := ds.Model.EncodeTheta(ds.TrueTheta)
	prior := WeakPrior(truth, 3)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 25
	res, err := Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ds.Model.DecodeTheta(res.Theta)
	if err != nil {
		t.Fatal(err)
	}
	// Noise precision is well identified: within a factor of 2.5.
	ratio := dec.TauY[0] / ds.TrueTheta.TauY[0]
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("recovered τ_y = %v, truth %v (ratio %v)", dec.TauY[0], ds.TrueTheta.TauY[0], ratio)
	}
	// Objective decreased along the run.
	if len(res.Opt.Trace) > 1 && res.Opt.Trace[len(res.Opt.Trace)-1] > res.Opt.Trace[0] {
		t.Fatal("objective did not decrease")
	}
	// Latent marginal variances are positive.
	for i, v := range res.LatentVar {
		if v <= 0 {
			t.Fatalf("latent variance[%d] = %v", i, v)
		}
	}
}

func TestFitLatentMeanTracksTruth(t *testing.T) {
	ds := genSmall(t, 1)
	truth := ds.Model.EncodeTheta(ds.TrueTheta)
	prior := WeakPrior(truth, 3)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 10
	opts.SkipHyperUncertainty = true
	res, err := Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Posterior mean must correlate positively with the true latent state.
	var num, da, db float64
	for i := range res.Mu {
		num += res.Mu[i] * ds.TrueX[i]
		da += res.Mu[i] * res.Mu[i]
		db += ds.TrueX[i] * ds.TrueX[i]
	}
	corr := num / math.Sqrt(da*db)
	if corr < 0.5 {
		t.Fatalf("latent posterior correlation with truth = %v, want > 0.5", corr)
	}
}

func TestFixedEffectsExtraction(t *testing.T) {
	ds := genSmall(t, 2)
	truth := ds.Model.EncodeTheta(ds.TrueTheta)
	prior := WeakPrior(truth, 3)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 8
	opts.SkipHyperUncertainty = true
	res, err := Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	fes := FixedEffects(ds.Model, res)
	if len(fes) != 4 { // 2 processes × 2 fixed effects
		t.Fatalf("fixed effects = %d", len(fes))
	}
	for _, fe := range fes {
		if fe.SD <= 0 {
			t.Fatalf("fixed effect sd %v", fe.SD)
		}
		if fe.Q025 >= fe.Q975 {
			t.Fatal("quantiles out of order")
		}
		if fe.Mean < fe.Q025 || fe.Mean > fe.Q975 {
			t.Fatal("mean outside its own interval")
		}
	}
}

func TestPosteriorVarianceMatchesDense(t *testing.T) {
	ds := genSmall(t, 2)
	e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5)}
	_, va, err := e.Posterior(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	th, err := ds.Model.DecodeTheta(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	qc := ds.Model.QcCSR(th)
	inv, err := dense.Inverse(qc.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	// Variances are permuted BTA-order; compare through UnPerm.
	vaPM := ds.Model.UnPerm(va)
	for i := 0; i < len(vaPM); i += 17 { // sample a subset
		if math.Abs(vaPM[i]-inv.At(i, i)) > 1e-7*(1+inv.At(i, i)) {
			t.Fatalf("posterior variance[%d] = %v want %v", i, vaPM[i], inv.At(i, i))
		}
	}
}

func TestBatchEvaluatorInfeasiblePoint(t *testing.T) {
	ds := genSmall(t, 1)
	e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5)}
	bad := append([]float64(nil), ds.Theta0...)
	bad[0] = 800 // exp overflows to +Inf → NaN assembly → non-SPD
	vals := e.EvalBatch([][]float64{ds.Theta0, bad})
	if math.IsInf(vals[0], 1) {
		t.Fatal("good point reported infeasible")
	}
	if !math.IsInf(vals[1], 1) {
		t.Fatal("bad point must evaluate to +Inf")
	}
}

func TestThetaLayoutAndMarginals(t *testing.T) {
	names, logs := ThetaLayout(3, 3, true)
	if len(names) != 15 || len(logs) != 15 {
		t.Fatalf("trivariate layout %d/%d components, want 15", len(names), len(logs))
	}
	if names[0] != "range_s[0]" || !logs[0] {
		t.Fatalf("first component %q log=%v", names[0], logs[0])
	}
	if names[9] != "lambda[0]" || logs[9] {
		t.Fatalf("lambda component %q log=%v", names[9], logs[9])
	}
	if names[12] != "tau_y[0]" || !logs[12] {
		t.Fatalf("tau component %q log=%v", names[12], logs[12])
	}
	namesP, logsP := ThetaLayout(2, 1, false)
	if len(namesP) != 7 || len(logsP) != 7 {
		t.Fatal("poisson layout must drop tau components")
	}

	r := &Result{
		Theta:   []float64{1.0, 0.5},
		ThetaSD: []float64{0.1, 0.2},
	}
	hm := HyperMarginals([]string{"a", "b"}, []bool{true, false}, r)
	if len(hm) != 2 {
		t.Fatalf("marginals = %d", len(hm))
	}
	if hm[0].Q025 >= hm[0].Q975 || hm[0].Mean != 1.0 {
		t.Fatal("working-scale interval wrong")
	}
	if !hm[0].LogScale || math.Abs(hm[0].NaturalMedian-math.Exp(1.0)) > 1e-12 {
		t.Fatal("natural-scale transform wrong")
	}
	if hm[1].LogScale {
		t.Fatal("identity-scale component flagged log")
	}
	if HyperMarginals(nil, nil, &Result{Theta: []float64{1}}) != nil {
		t.Fatal("marginals without Hessian must be nil")
	}
}

func TestFitProducesUsableMarginals(t *testing.T) {
	ds := genSmall(t, 1)
	truth := ds.Model.EncodeTheta(ds.TrueTheta)
	prior := WeakPrior(truth, 3)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 12
	res, err := Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThetaSD == nil {
		t.Skip("Hessian stage failed on this draw; covered by other tests")
	}
	names, logs := ThetaLayout(1, 0, true)
	hms := HyperMarginals(names, logs, res)
	if len(hms) != 4 {
		t.Fatalf("marginals = %d", len(hms))
	}
	for _, hm := range hms {
		if hm.SD <= 0 || hm.Q025 >= hm.Q975 {
			t.Fatalf("degenerate marginal %+v", hm)
		}
		if hm.LogScale && (hm.NaturalQ025 <= 0 || hm.NaturalQ025 >= hm.NaturalQ975) {
			t.Fatalf("bad natural-scale interval %+v", hm)
		}
	}
}

// descendingEvaluator decreases along e_0 forever: the line search always
// accepts, the gradient never vanishes, so Minimize exhausts MaxIter
// without converging (exercises the iteration-cap path).
type descendingEvaluator struct{}

func (e *descendingEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = -p[0]
	}
	return out
}

func TestMinimizeHitsIterationCap(t *testing.T) {
	opts := DefaultOptOptions()
	opts.MaxIter = 3
	res, err := Minimize(&descendingEvaluator{}, []float64{0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("linear descent cannot converge")
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want cap 3", res.Iterations)
	}
	if res.Theta[0] <= 0 {
		t.Fatal("optimizer made no progress downhill")
	}
}

// cliffEvaluator is finite at the start but +Inf everywhere else: the first
// line search cannot find a decrease.
type cliffEvaluator struct{ calls int }

func (e *cliffEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		if p[0] == 0 {
			out[i] = 5
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func TestMinimizeUndefinedGradient(t *testing.T) {
	// The ±h stencil around 0 is infinite (Inf − Inf = NaN gradient): the
	// optimizer must not report convergence — it returns the best iterate
	// with ErrGradientUndefined.
	res, err := Minimize(&cliffEvaluator{}, []float64{0}, DefaultOptOptions())
	if !errors.Is(err, ErrGradientUndefined) {
		t.Fatalf("want ErrGradientUndefined, got %v (res=%+v)", err, res)
	}
	if res == nil || res.Theta[0] != 0 || res.Converged {
		t.Fatal("undefined gradient must return the last iterate, unconverged")
	}
	// The default policy retries the stencil with a shrunk step before
	// giving up: the first attempt evaluates all 3 points of the 1-d cliff,
	// and the 2 retries only the 2 arms, reusing the centre F(0) = 5.
	if res.FEvals != 3+2+2 {
		t.Fatalf("want 7 evaluations (2 step-backoff retries), got %d", res.FEvals)
	}
}
