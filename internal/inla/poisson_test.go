package inla

import (
	"math"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
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
	if mode.LogLik <= llZero {
		t.Fatalf("mode loglik %v not above zero-state loglik %v", mode.LogLik, llZero)
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
