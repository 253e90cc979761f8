package inla

import (
	"math"
	"testing"
)

// TestModeSigmaMatchesPosterior: the Σ blocks the prediction layer freezes
// carry the same latent variances the fit reports, for both likelihoods
// (the count route centres Q_c at the conditional mode), and a second call
// returns the same bits.
func TestModeSigmaMatchesPosterior(t *testing.T) {
	gauss, pois := genPintime(t), genPoisson(t, 2)
	for _, tc := range []struct {
		name string
		e    *BTAEvaluator
		th   []float64
	}{
		{"gaussian", &BTAEvaluator{Model: gauss.Model, Prior: WeakPrior(gauss.Theta0, 5), Partitions: 1}, gauss.Theta0},
		{"poisson", &BTAEvaluator{Model: pois.Model, Prior: WeakPrior(pois.Theta0, 5), Partitions: 1}, pois.Theta0},
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
			if math.Abs(got[i]-want[i]) > 1e-10*(1+want[i]) {
				t.Fatalf("%s: Σ[%d,%d] = %v, Posterior reports %v", tc.name, i, i, got[i], want[i])
			}
			if got[i] != rep[i] {
				t.Fatalf("%s: Σ[%d,%d] differs between two calls: %v vs %v", tc.name, i, i, got[i], rep[i])
			}
		}
	}
}
