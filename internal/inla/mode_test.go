package inla

import (
	"testing"

	"github.com/dalia-hpc/dalia/internal/synth"
)

// TestModeSigmaMatchesPosterior: the Σ blocks the prediction layer freezes
// carry, bit for bit, the latent variances the evaluator reports, for both
// likelihoods (the count route centres Q_c at the conditional mode), and a
// second call returns the same bits, also on an nt = 8 shape at a two-core
// budget.
func TestModeSigmaMatchesPosterior(t *testing.T) {
	gauss, pois := genPintime(t), genPoisson(t, 2)
	nt8, err := synth.Generate(synth.GenConfig{
		Nv: 3, Nt: 8, Nr: 1,
		MeshNx: 4, MeshNy: 3,
		ObsPerStep: 20,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    *BTAEvaluator
		th   []float64
	}{
		{"gaussian", &BTAEvaluator{Model: gauss.Model, Prior: WeakPrior(gauss.Theta0, 5)}, gauss.Theta0},
		{"poisson", &BTAEvaluator{Model: pois.Model, Prior: WeakPrior(pois.Theta0, 5)}, pois.Theta0},
		{"gaussian nt=8 workers=2", &BTAEvaluator{Model: nt8.Model, Prior: WeakPrior(nt8.Theta0, 5), Workers: 2}, nt8.Theta0},
	} {
		_, want, err := tc.e.Posterior(tc.th)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, sig, err := ModeSigma(tc.e.Model, tc.th)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, again, err := ModeSigma(tc.e.Model, tc.th)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, rep := sig.DiagVec(), again.DiagVec()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Σ[%d,%d] = %v, Posterior reports %v", tc.name, i, i, got[i], want[i])
			}
			if got[i] != rep[i] {
				t.Fatalf("%s: Σ[%d,%d] differs between two calls: %v vs %v", tc.name, i, i, got[i], rep[i])
			}
		}
	}
}
