package inla

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// pointwise hands its evaluator one point per batch, so a BTAEvaluator
// never sees a gradient request and answers every stencil with real
// values; StencilPlan is forwarded, so Minimize's line search batches as
// many candidates as over the evaluator itself.
type pointwise struct{ *BTAEvaluator }

func (p pointwise) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, 0, len(points))
	for i := range points {
		out = append(out, p.BTAEvaluator.EvalBatch(points[i:i+1])...)
	}
	return out
}

// stencilValues evaluates every point of a batch as today's stencil path
// does, point by point and never as a gradient request.
func stencilValues(e *BTAEvaluator, pts [][]float64) []float64 {
	out := make([]float64, len(pts))
	e.evalPoints(pts, out, nil, nil)
	return out
}

// stencilAt returns the 2d+1-point stencil of step h at theta.
func stencilAt(theta []float64, h float64) [][]float64 {
	pts := make([][]float64, 2*len(theta)+1)
	for i := range pts {
		pts[i] = make([]float64, len(theta))
	}
	fillGradientPoints(pts, theta, h)
	return pts
}

// gradientShapes are the Gaussian benchmark shapes and one diffusion-prior
// shape, each with a point to take the gradient at: the benchmark's θ0
// moved off the truth, and for the diffusion prior ranges below the mesh
// spacing, where its F is well-posed enough for a stencil at h = 1e-4.
func gradientShapes(t *testing.T) map[string]*synth.Dataset {
	t.Helper()
	out := map[string]*synth.Dataset{}
	for _, name := range []string{"fit_uni_gauss", "fit_tri_gauss", "serve_predict"} {
		ds, err := synth.Generate(benchmarkShapes(t)[name])
		if err != nil {
			t.Fatal(err)
		}
		for i := range ds.Theta0 {
			ds.Theta0[i] += 0.05 * float64(i%3-1)
		}
		out[name] = ds
	}
	ds := genSmall(t, 2)
	m, err := model.New(ds.Model.Builder, ds.Model.Dims, ds.Model.Obs, model.WithSTKind(model.STDiffusion))
	if err != nil {
		t.Fatal(err)
	}
	ds.Model, ds.Theta0 = m, m.EncodeTheta(synth.DefaultTruth(2, 100))
	out["diffusion"] = ds
	return out
}

// TestExactGradientMatchesStencil is the gradient's oracle: the central
// differences of a gradient request's values agree with those of the 2d
// full evaluations at h = 1e-4 to 1e-4 relative per component, on the
// three Gaussian benchmark shapes and a diffusion-prior shape; its centre
// value is the full evaluation's bit for bit.
func TestExactGradientMatchesStencil(t *testing.T) {
	const h = 1e-4
	for name, ds := range gradientShapes(t) {
		e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5), Workers: 1}
		pts := stencilAt(ds.Theta0, h)
		exact, full := e.EvalBatch(pts), stencilValues(e, pts)
		if exact[0] != full[0] {
			t.Fatalf("%s: centre %v, full evaluation %v", name, exact[0], full[0])
		}
		d := len(ds.Theta0)
		gE, gS := make([]float64, d), make([]float64, d)
		gradientFromBatchInto(gE, exact, h)
		gradientFromBatchInto(gS, full, h)
		for i := range gE {
			if math.Abs(gE[i]-gS[i]) > 1e-4*math.Abs(gS[i]) {
				t.Errorf("%s: ∂_%d V = %v, stencil %v", name, i, gE[i], gS[i])
			}
		}
	}
}

// TestGradientRequestIndependentOfBudget: a gradient request returns the
// same bits at Workers 1, 2 and 4, from a fresh arena and from a pooled
// one, and with its centre or without: it always runs on the sequential
// factor. The server's fit and the
// in-process one then agree bit for bit.
func TestGradientRequestIndependentOfBudget(t *testing.T) {
	ds, err := synth.Generate(benchmarkShapes(t)["fit_tri_gauss"])
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	pts := stencilAt(ds.Theta0, 1e-3)
	want := (&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 1}).EvalBatch(pts)
	other := append([]float64(nil), ds.Theta0...)
	other[0] += 0.3
	for _, workers := range []int{1, 2, 4} {
		for _, pooled := range []bool{false, true} {
			for _, from := range []int{0, 1} {
				e := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: workers}
				if pooled {
					e.EvalBatch(stencilAt(other, 1e-3))
					e.EvalBatch(pts[:1])
				}
				got := e.EvalBatch(pts[from:])
				if !slices.Equal(got, want[from:]) {
					t.Fatalf("workers %d, pooled %v, from %d: values differ from the sequential request",
						workers, pooled, from)
				}
			}
		}
	}
}

// TestGradientRequestConcurrent: gradient requests from several goroutines
// at once on one evaluator draw their own arenas from its pool and return
// the sequential request's bits.
func TestGradientRequestConcurrent(t *testing.T) {
	ds := genSmall(t, 2)
	e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5), Workers: 2}
	pts := stencilAt(ds.Theta0, 1e-3)
	want := e.EvalBatch(pts)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if got := e.EvalBatch(pts[g%2:]); !slices.Equal(got, want[g%2:]) {
					t.Errorf("goroutine %d: values differ from the sequential request", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// recorder keeps every point and value its evaluator handles; StencilPlan
// is forwarded, so Minimize batches its line search as over the evaluator
// itself.
type recorder struct {
	*BTAEvaluator
	pts  [][]float64
	vals []float64
}

func (r *recorder) EvalBatch(points [][]float64) []float64 {
	v := r.BTAEvaluator.EvalBatch(points)
	r.pts, r.vals = append(r.pts, points...), append(r.vals, v...)
	return v
}

// checkCold fails unless every value r recorded is −F of a cold
// sequential evaluation of its point, bit for bit.
func (r *recorder) checkCold(t *testing.T, what string) {
	t.Helper()
	for i, p := range r.pts {
		parts, err := EvalFobj(r.Model, r.Prior, p)
		if err != nil {
			t.Fatal(err)
		}
		if r.vals[i] != -parts.F() {
			t.Fatalf("%s: point %d valued %v, a cold evaluation %v", what, i, r.vals[i], -parts.F())
		}
	}
}

// TestOnlyStencilsAreGradientRequests: no batch of the Hessian stage and
// no integration grid is read as a gradient request. The grid of an
// isotropic Hessian lies on the coordinate axes, and a d = 4 Hessian
// stencil runs at 2 and at 5 cores; every value of either equals a cold
// evaluation bit for bit. No run of 2d or 2d + 1 consecutive Hessian
// points is a stencil for any d, so no split of the batch can make one.
func TestOnlyStencilsAreGradientRequests(t *testing.T) {
	ds := genSmall(t, 1)
	prior := WeakPrior(ds.Theta0, 5)
	d := len(ds.Theta0)
	for _, cores := range []int{2, 5} {
		r := &recorder{BTAEvaluator: &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: cores}}
		if _, err := HessianAtMode(r, ds.Theta0, 5e-3); err != nil {
			t.Fatal(err)
		}
		r.checkCold(t, fmt.Sprintf("Hessian at %d cores", cores))
	}
	r := &recorder{BTAEvaluator: &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 2}}
	hess := dense.Eye(d)
	hess.Scale(4e4) // steps of 5e-3 along each axis
	if _, err := IntegrateHyper(r, r.Posterior, ds.Theta0, hess, 1); err != nil {
		t.Fatal(err)
	}
	if len(r.pts) != 2*d+1 {
		t.Fatalf("integration grid of %d points, want %d", len(r.pts), 2*d+1)
	}
	r.checkCold(t, "integration grid")

	for dd := 2; dd <= 6; dd++ {
		theta := make([]float64, dd)
		pts, _ := hessianStencil(theta, 1e-3)
		c := make([]float64, dd)
		for _, w := range []int{2 * dd, 2*dd + 1} {
			for lo := 0; lo+w <= len(pts); lo++ {
				if _, ok := gradientCentre(pts[lo:lo+w], c); ok {
					t.Fatalf("d = %d: Hessian points [%d, %d) read as a gradient stencil", dd, lo, lo+w)
				}
			}
		}
	}
}

// TestGradientRequestFallsBack: a stencil whose centre cannot be evaluated
// is evaluated point by point, each failure quarantined as before.
func TestGradientRequestFallsBack(t *testing.T) {
	ds := genSmall(t, 1)
	e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5)}
	bad := append([]float64(nil), ds.Theta0...)
	bad[0] = 800 // exp overflows: a non-SPD Q_c
	pts := stencilAt(bad, 1e-3)
	for i, v := range e.EvalBatch(pts) {
		if !math.IsInf(v, 1) {
			t.Fatalf("point %d valued %v, want +Inf", i, v)
		}
	}
	if n := e.EvalFailures(); n != int64(len(pts)) {
		t.Fatalf("%d quarantined evaluations, want %d", n, len(pts))
	}
}

// TestGradientRequestAllocs: after warm-up a gradient request allocates no
// more objects than the 2d + 1 evaluations it replaces; Σ and the table
// are the arena's, allocated once.
func TestGradientRequestAllocs(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	for _, name := range []string{"fit_uni_gauss", "fit_tri_gauss"} {
		ds, err := synth.Generate(benchmarkShapes(t)[name])
		if err != nil {
			t.Fatal(err)
		}
		e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5), Workers: 1}
		pts := stencilAt(ds.Theta0, 1e-3)
		e.EvalBatch(pts)
		stencilValues(e, pts)
		grad := testing.AllocsPerRun(10, func() { e.EvalBatch(pts) })
		full := testing.AllocsPerRun(10, func() { stencilValues(e, pts) })
		if grad > full {
			t.Fatalf("%s: a gradient request allocates %.0f objects, the %d evaluations it replaces %.0f",
				name, grad, len(pts), full)
		}
	}
}

// TestCountPosteriorSigmaInNewtonWork: a count model's latent posterior
// selects Σ into its Newton work's Q_p, so asking for Σ allocates no BTA
// matrix beyond the factor and Q_p, and Σ is the selected inverse of the
// mode's factor bit for bit.
func TestCountPosteriorSigmaInNewtonWork(t *testing.T) {
	ds, err := synth.Generate(benchmarkShapes(t)["fit_bi_poisson"])
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Model
	allocated := func(withSigma bool) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, _, _, _, err := latentPosterior(m, ds.Theta0, withSigma, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	if !dense.RaceEnabled { // race-mode sync.Pool drops Put items
		allocated(true) // warm the model's pools
		with, without := allocated(true), allocated(false)
		if extra := int64(with) - int64(without); extra > bta.BytesDense(m.Dims.BTAShape())/2 {
			t.Fatalf("Σ costs %d bytes beyond the posterior without it, a BTA matrix is %d", extra, bta.BytesDense(m.Dims.BTAShape()))
		}
	}
	_, sig, err := ModeSigma(m, ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	_, f, err := ModeFactor(m, ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.SelectedInversion()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sig.ToDense().Data, want.ToDense().Data) {
		t.Fatal("Σ selected into the Newton work differs from a fresh selected inversion")
	}
}

// TestPosteriorOnGradientArena: the fit's posterior takes over the search's
// gradient arena and selects Σ into the arena's Σ; its μ and Σ equal a
// fresh arena's bit for bit, although the arena last answered a request
// at another θ.
func TestPosteriorOnGradientArena(t *testing.T) {
	ds := genSmall(t, 2)
	m, prior := ds.Model, WeakPrior(ds.Theta0, 5)
	at := append([]float64(nil), ds.Theta0...)
	at[0] += 0.3
	_, wantMu, _, want, err := latentPosterior(m, at, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := &BTAEvaluator{Model: m, Prior: prior, Workers: 2}
	e.EvalBatch(stencilAt(ds.Theta0, 1e-3))
	ws := e.grads.Swap(nil)
	if ws == nil {
		t.Fatal("the evaluator kept no gradient arena")
	}
	_, mu, _, sig, err := latentPosterior(m, at, true, ws)
	if err != nil {
		t.Fatal(err)
	}
	if sig != ws.grad.sigma {
		t.Fatal("the posterior allocated its own Σ beside the gradient arena's")
	}
	if !slices.Equal(mu, wantMu) || !slices.Equal(sig.ToDense().Data, want.ToDense().Data) {
		t.Fatal("μ or Σ on the gradient arena differs from a fresh arena's")
	}

	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 2
	opts.SkipHyperUncertainty = true
	fe := &BTAEvaluator{Model: m, Prior: prior, Workers: 2}
	res, err := fitWith(m, fe, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fe.grads.Load() != nil {
		t.Fatal("the fit's posterior left the gradient arena idle")
	}
	_, mu, _, sig, err = latentPosterior(m, res.Theta, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Mu, mu) || !slices.Equal(res.Sigma.ToDense().Data, sig.ToDense().Data) {
		t.Fatal("the fit's μ or Σ differs from a fresh arena's at its θ")
	}
}
