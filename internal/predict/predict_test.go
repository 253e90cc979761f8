package predict

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// fitted caches one small fitted bivariate model for the whole test file
// (fitting dominates test time; every invariant shares the same fit).
type fitted struct {
	ds  *synth.Dataset
	res *inla.Result
	pr  *Snapshot
}

var (
	fitOnce sync.Once
	fitVal  fitted
	fitErr  error
)

func getFitted(t *testing.T) fitted {
	t.Helper()
	fitOnce.Do(func() {
		ds, err := synth.Generate(synth.GenConfig{
			Nv: 2, Nt: 4, Nr: 2,
			MeshNx: 4, MeshNy: 4,
			ObsPerStep: 25,
			Seed:       11,
		})
		if err != nil {
			fitErr = err
			return
		}
		prior := inla.WeakPrior(ds.Theta0, 5)
		opts := inla.DefaultFitOptions()
		opts.Opt.MaxIter = 10
		opts.SkipHyperUncertainty = true
		res, err := inla.Fit(ds.Model, prior, ds.Theta0, opts)
		if err != nil {
			fitErr = err
			return
		}
		pr, err := NewSnapshot(ds.Model, res)
		if err != nil {
			fitErr = err
			return
		}
		fitVal = fitted{ds: ds, res: res, pr: pr}
	})
	if fitErr != nil {
		t.Fatal(fitErr)
	}
	return fitVal
}

// randomQueries draws in-domain queries across times, responses and
// covariate values.
func randomQueries(rng *rand.Rand, f fitted, n int) []Query {
	d := f.ds.Model.Dims
	qs := make([]Query, n)
	for i := range qs {
		cov := make([]float64, d.Nr)
		cov[0] = 1
		for r := 1; r < d.Nr; r++ {
			cov[r] = rng.NormFloat64()
		}
		qs[i] = Query{
			Point:      mesh.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300},
			T:          rng.Intn(d.Nt),
			Response:   rng.Intn(d.Nv),
			Covariates: cov,
		}
	}
	return qs
}

// The variance is a quadratic form in the selected inverse, not a sum of
// squares, so nothing makes it positive but Σ being right: assert it on
// every grid, with no clamp anywhere on the path. Adding observation noise
// strictly increases it.
func TestPredictiveVarianceNonnegative(t *testing.T) {
	for _, g := range allGrids(t) {
		qs := gridQueries(rand.New(rand.NewSource(1)), g.m)
		s, err := NewSnapshot(g.m, g.res)
		if err != nil {
			t.Fatal(err)
		}
		_, vars, err := s.Predict(qs)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := NewSnapshot(g.m, g.res, WithObservationNoise())
		if err != nil {
			t.Fatal(err)
		}
		_, nvars, err := noisy.Predict(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vars {
			if !(v > 0) {
				t.Fatalf("%s query %d: predictive variance %v", g.name, i, v)
			}
			if nvars[i] <= v {
				t.Fatalf("%s query %d: noise did not increase variance (%v vs %v)", g.name, i, nvars[i], v)
			}
		}
	}
}

// φᵀΣφ over the frozen Σ blocks equals ‖L⁻¹φ‖² through the factor to 1e-10
// relative, and the means are the same bits, on every grid and every shape
// of projection row.
func TestVarianceMatchesSolveOracle(t *testing.T) {
	for _, g := range allGrids(t) {
		qs := gridQueries(rand.New(rand.NewSource(6)), g.m)
		s, err := NewSnapshot(g.m, g.res)
		if err != nil {
			t.Fatal(err)
		}
		means, vars, err := s.Predict(qs)
		if err != nil {
			t.Fatal(err)
		}
		wantM, wantV := solveOracle(t, g.m, g.res, qs)
		for i := range qs {
			if means[i] != wantM[i] {
				t.Errorf("%s query %d: mean %v, oracle %v", g.name, i, means[i], wantM[i])
			}
			if math.Abs(vars[i]-wantV[i]) > 1e-10*wantV[i] {
				t.Errorf("%s query %d: var %v, oracle %v (rel %.2e)", g.name, i, vars[i], wantV[i], (vars[i]-wantV[i])/wantV[i])
			}
		}
	}
}

// A query exactly at an observed mesh node with zero covariates must
// reproduce the latent marginal the fit already computed, scaled through
// the coregionalization (for response 0, the single factor Λ[0,0]).
func TestObservedNodeReproducesLatentMarginal(t *testing.T) {
	f := getFitted(t)
	d := f.ds.Model.Dims
	msh := f.ds.Model.Builder.Mesh
	lc := f.pr.Theta().Lambda.CoregView()
	s := lc.At(0, 0)
	for _, node := range []int{0, 5, d.Ns - 1} {
		for _, tm := range []int{0, d.Nt - 1} {
			q := Query{Point: msh.Nodes[node], T: tm, Response: 0}
			means, vars, err := f.pr.Predict([]Query{q})
			if err != nil {
				t.Fatal(err)
			}
			idx := f.ds.Model.BTAIndex(tm*d.Ns + node)
			wantMean, wantSD := f.res.LatentMarginal(idx)
			if math.Abs(means[0]-s*wantMean) > 1e-10*(1+math.Abs(s*wantMean)) {
				t.Errorf("node %d t %d: mean %v, latent marginal gives %v", node, tm, means[0], s*wantMean)
			}
			wantVar := s * s * wantSD * wantSD
			if math.Abs(vars[0]-wantVar) > 1e-8*(1+wantVar) {
				t.Errorf("node %d t %d: var %v, latent marginal gives %v", node, tm, vars[0], wantVar)
			}
		}
	}
}

// Predictive means must agree with the existing independent downscaling
// path (model.PredictMean applied to the posterior mean).
func TestMeansMatchModelPredictMean(t *testing.T) {
	f := getFitted(t)
	rng := rand.New(rand.NewSource(2))
	qs := randomQueries(rng, f, 40)
	means, _, err := f.pr.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]mesh.Point, len(qs))
	tidx := make([]int, len(qs))
	cov := dense.New(len(qs), f.ds.Model.Dims.Nr)
	for i, q := range qs {
		pts[i] = q.Point
		tidx[i] = q.T
		for r, v := range q.Covariates {
			cov.Set(i, r, v)
		}
	}
	ref, err := f.ds.Model.PredictMean(f.pr.Theta(), f.res.Mu, pts, tidx, cov)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if math.Abs(means[i]-ref[q.Response][i]) > 1e-10*(1+math.Abs(ref[q.Response][i])) {
			t.Errorf("query %d: mean %v, PredictMean %v", i, means[i], ref[q.Response][i])
		}
	}
}

// Predictive variances must match a direct dense reference: Σ = Q_c⁻¹
// computed by dense inversion, variance = φᵀΣφ with φ recovered from the
// solver path itself being cross-checked through the mean tests above.
func TestVariancesMatchDenseReference(t *testing.T) {
	f := getFitted(t)
	rng := rand.New(rand.NewSource(3))
	qs := randomQueries(rng, f, 12)
	means, vars, err := f.pr.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := f.ds.Model.Qc(f.pr.Theta())
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := dense.Inverse(qc.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	dim := f.ds.Model.Dims.Total()
	for i, q := range qs {
		phi := densePhi(t, f.ds.Model, f.pr.Theta(), q)
		var wantVar, wantMean float64
		for a := 0; a < dim; a++ {
			wantMean += phi[a] * f.res.Mu[a]
			row := sigma.Row(a)
			for b := 0; b < dim; b++ {
				wantVar += phi[a] * row[b] * phi[b]
			}
		}
		if math.Abs(vars[i]-wantVar) > 1e-8*(1+wantVar) {
			t.Errorf("query %d: var %v, dense reference %v", i, vars[i], wantVar)
		}
		if math.Abs(means[i]-wantMean) > 1e-8*(1+math.Abs(wantMean)) {
			t.Errorf("query %d: mean %v, dense reference %v", i, means[i], wantMean)
		}
	}
}

// The prediction path performs zero heap allocations, from the first call
// on and at any request size: there is no scratch to warm.
func TestPredictIntoAllocs(t *testing.T) {
	f := getFitted(t)
	rng := rand.New(rand.NewSource(4))
	qs := randomQueries(rng, f, f.pr.MaxBatch())
	means := make([]float64, len(qs))
	vars := make([]float64, len(qs))
	for _, n := range []int{len(qs), 5} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := f.pr.PredictInto(qs[:n], means, vars); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("PredictInto of %d queries allocates %.1f objects per run, want 0", n, allocs)
		}
	}
}

// A request of any length gives exactly the answers of one query at a
// time: queries share no state.
func TestBatchChunkingConsistent(t *testing.T) {
	f := getFitted(t)
	rng := rand.New(rand.NewSource(5))
	qs := randomQueries(rng, f, 2*f.pr.MaxBatch()+7)
	means, vars, err := f.pr.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		m1, v1, err := f.pr.Predict([]Query{q})
		if err != nil {
			t.Fatal(err)
		}
		if m1[0] != means[i] || v1[0] != vars[i] {
			t.Fatalf("query %d: batched (%v,%v) vs single (%v,%v)", i, means[i], vars[i], m1[0], v1[0])
		}
	}
}

// Invalid queries are rejected with errors, not panics.
func TestQueryValidation(t *testing.T) {
	f := getFitted(t)
	d := f.ds.Model.Dims
	bad := []Query{
		{Point: mesh.Point{X: 1, Y: 1}, T: -1, Response: 0},
		{Point: mesh.Point{X: 1, Y: 1}, T: d.Nt, Response: 0},
		{Point: mesh.Point{X: 1, Y: 1}, T: 0, Response: d.Nv},
		{Point: mesh.Point{X: 1, Y: 1}, T: 0, Response: -1},
		{Point: mesh.Point{X: 1, Y: 1}, T: 0, Response: 0, Covariates: []float64{1}},
	}
	for i, q := range bad {
		if _, _, err := f.pr.Predict([]Query{q}); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func genCounts(t *testing.T) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 2, Nt: 3, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       5,
		Family:     model.LikPoisson,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCountModelRejected: a count model has no noise precisions τ_y, so
// asking for observation noise on one fails with the typed
// ErrUnsupportedLikelihood — the only thing a count model is refused.
func TestCountModelRejected(t *testing.T) {
	ds := genCounts(t)
	res := &inla.Result{Theta: ds.Theta0, Mu: make([]float64, ds.Model.Dims.Total())}
	if _, err := NewSnapshot(ds.Model, res, WithObservationNoise()); !errors.Is(err, ErrUnsupportedLikelihood) {
		t.Errorf("WithObservationNoise on a Poisson model: %v, want ErrUnsupportedLikelihood", err)
	}
}

// TestCountModelServed: a snapshot over a count model answers on the
// linear-predictor scale with Σ the dense inverse of Q_c at the Laplace
// mode — assembled here from the inner Newton loop's own output, with φ
// built independently in BTA coordinates.
func TestCountModelServed(t *testing.T) {
	ds := genCounts(t)
	m := ds.Model
	th, err := m.DecodeTheta(ds.Theta0)
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
	post := mode.XPerm
	s, err := NewSnapshot(m, &inla.Result{Theta: ds.Theta0, Mu: post})
	if err != nil {
		t.Fatal(err)
	}
	qs := gridQueries(rand.New(rand.NewSource(8)), m)
	means, vars, err := s.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := m.QcFromCSR(mode.QcCSR)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := dense.Inverse(qc.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		phi := densePhi(t, m, th, q)
		var wantVar, wantMean float64
		for a, pa := range phi {
			wantMean += pa * post[a]
			for b, pb := range phi {
				wantVar += pa * sigma.At(a, b) * pb
			}
		}
		if math.Abs(vars[i]-wantVar) > 1e-8*wantVar {
			t.Errorf("query %d: var %v, dense reference %v", i, vars[i], wantVar)
		}
		if math.Abs(means[i]-wantMean) > 1e-10*(1+math.Abs(wantMean)) {
			t.Errorf("query %d: mean %v, dense reference %v", i, means[i], wantMean)
		}
	}
}
