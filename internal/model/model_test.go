package model

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/spde"
)

// testModel builds a small model with synthetic observations and two fixed
// effects per process.
func testModel(t *testing.T, nv, nt int) (*Model, *Theta) {
	t.Helper()
	return testModelWith(t, nv, nt, 2)
}

// testModelWith is testModel with nr ∈ {0, 1, 2} fixed effects (intercept,
// then one covariate) and model options.
func testModelWith(t *testing.T, nv, nt, nr int, opts ...Option) (*Model, *Theta) {
	t.Helper()
	msh := mesh.Uniform(4, 4, 100, 100)
	b := spde.NewBuilder(msh, nt)
	d := coreg.Dims{Nv: nv, Ns: b.Ns(), Nt: nt, Nr: nr}
	rng := rand.New(rand.NewSource(11))

	// Observations at random interior locations, every time step.
	var pts []mesh.Point
	var tidx []int
	const perStep = 9
	for tt := 0; tt < nt; tt++ {
		for i := 0; i < perStep; i++ {
			pts = append(pts, mesh.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
			tidx = append(tidx, tt)
		}
	}
	mObs := len(pts)
	obs := &Obs{Points: pts, TimeIdx: tidx}
	if nr > 0 {
		obs.Covariates = dense.New(mObs, nr)
	}
	for i := 0; i < mObs; i++ {
		z := rng.NormFloat64() // drawn even when unused: same stream for every nr
		if nr > 0 {
			obs.Covariates.Set(i, 0, 1) // intercept
		}
		if nr > 1 {
			obs.Covariates.Set(i, 1, z)
		}
	}
	for k := 0; k < nv; k++ {
		y := make([]float64, mObs)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		obs.Y = append(obs.Y, y)
	}
	mod, err := New(b, d, obs, opts...)
	if err != nil {
		t.Fatal(err)
	}

	sig := make([]float64, nv)
	tau := make([]float64, nv)
	var hyp []spde.Hyper
	for k := 0; k < nv; k++ {
		sig[k] = 0.8 + 0.2*float64(k)
		tau[k] = 2 + float64(k)
		hyp = append(hyp, spde.Hyper{RangeS: 40 + 5*float64(k), RangeT: 2 + float64(k), Sigma: 1})
	}
	lam := make([]float64, coreg.NumLambdas(nv))
	for i := range lam {
		lam[i] = 0.3 - 0.1*float64(i)
	}
	l, err := coreg.NewLambda(sig, lam)
	if err != nil {
		t.Fatal(err)
	}
	return mod, &Theta{Process: hyp, Lambda: l, TauY: tau}
}

func TestNumHyperMatchesPaper(t *testing.T) {
	// Table IV: univariate dim(θ)=4, trivariate coregional dim(θ)=15.
	uni, _ := testModel(t, 1, 2)
	if uni.NumHyper() != 4 {
		t.Fatalf("univariate dim(θ) = %d, want 4", uni.NumHyper())
	}
	tri, _ := testModel(t, 3, 2)
	if tri.NumHyper() != 15 {
		t.Fatalf("trivariate dim(θ) = %d, want 15", tri.NumHyper())
	}
}

func TestThetaEncodeDecodeRoundTrip(t *testing.T) {
	m, th := testModel(t, 3, 2)
	vec := m.EncodeTheta(th)
	if len(vec) != m.NumHyper() {
		t.Fatalf("encoded length %d", len(vec))
	}
	back, err := m.DecodeTheta(vec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if math.Abs(back.Process[k].RangeS-th.Process[k].RangeS) > 1e-9 ||
			math.Abs(back.Process[k].RangeT-th.Process[k].RangeT) > 1e-9 {
			t.Fatalf("process %d hyper mismatch", k)
		}
		if math.Abs(back.TauY[k]-th.TauY[k]) > 1e-9 {
			t.Fatalf("tauY %d mismatch", k)
		}
		if math.Abs(back.Lambda.Sigmas[k]-th.Lambda.Sigmas[k]) > 1e-9 {
			t.Fatalf("sigma %d mismatch", k)
		}
	}
	if !back.Lambda.Coreg().Equal(th.Lambda.Coreg(), 1e-9) {
		t.Fatal("Λ mismatch after round trip")
	}
}

func TestDecodeThetaRejectsWrongLength(t *testing.T) {
	m, _ := testModel(t, 2, 2)
	if _, err := m.DecodeTheta(make([]float64, 3)); err == nil {
		t.Fatal("wrong theta length must error")
	}
}

func TestQpQcBTAMatchesCSR(t *testing.T) {
	m, th := testModel(t, 2, 3)
	n, b, a := m.Dims.BTAShape()

	qpCSR := m.QpCSR(th)
	qp, err := m.Qp(th)
	if err != nil {
		t.Fatal(err)
	}
	permuted := qpCSR.PermuteSym(m.perm)
	want, err := bta.FromCSR(permuted, n, b, a)
	if err != nil {
		t.Fatalf("permuted Q_p not BTA: %v", err)
	}
	if !qp.ToDense().Equal(want.ToDense(), 1e-12) {
		t.Fatal("mapped Q_p != permuted CSR Q_p")
	}

	qcCSR := m.QcCSR(th)
	qc, err := m.Qc(th)
	if err != nil {
		t.Fatal(err)
	}
	permutedC := qcCSR.PermuteSym(m.perm)
	wantC, err := bta.FromCSR(permutedC, n, b, a)
	if err != nil {
		t.Fatalf("permuted Q_c not BTA: %v", err)
	}
	if !qc.ToDense().Equal(wantC.ToDense(), 1e-12) {
		t.Fatal("mapped Q_c != permuted CSR Q_c")
	}
}

func TestQcIsSPD(t *testing.T) {
	m, th := testModel(t, 3, 2)
	qc, err := m.Qc(th)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bta.Factorize(qc); err != nil {
		t.Fatalf("Q_c not SPD: %v", err)
	}
	qp, err := m.Qp(th)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bta.Factorize(qp); err != nil {
		t.Fatalf("Q_p not SPD: %v", err)
	}
}

func TestPatternStableAcrossTheta(t *testing.T) {
	// The cached mapping requires identical patterns for different θ —
	// including λ = 0 configurations.
	m, th := testModel(t, 3, 2)
	if _, err := m.Qc(th); err != nil {
		t.Fatal(err)
	}
	l0, err := coreg.NewLambda([]float64{1, 1, 1}, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	th2 := &Theta{Process: th.Process, Lambda: l0, TauY: th.TauY}
	if _, err := m.Qc(th2); err != nil {
		t.Fatalf("pattern drift with zero lambdas: %v", err)
	}
}

func TestCondMeanMatchesDenseSolve(t *testing.T) {
	// μ = Q_c⁻¹·Aᵀ_eff·D·y computed via BTA must match the dense normal
	// equations in the original ordering.
	m, th := testModel(t, 2, 2)
	qc, err := m.Qc(th)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bta.Factorize(qc)
	if err != nil {
		t.Fatal(err)
	}
	rhs := m.CondRHS(th)
	mu := append([]float64(nil), rhs...)
	f.Solve(mu)

	// Dense reference (process-major): Q_c μ = Aᵀ D y.
	qcD := m.QcCSR(th).ToDense()
	rhsPM := m.UnPerm(rhs)
	want, err := dense.Solve(qcD, rhsPM)
	if err != nil {
		t.Fatal(err)
	}
	muPM := m.UnPerm(mu)
	for i := range want {
		if math.Abs(muPM[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
			t.Fatalf("conditional mean [%d] = %v want %v", i, muPM[i], want[i])
		}
	}
}

func TestLogLikDecreasesWithResiduals(t *testing.T) {
	m, th := testModel(t, 2, 2)
	x0 := make([]float64, m.Dims.Total()) // zero latent state
	ll0 := m.LogLik(th, x0)
	// The conditional mean fits better than zero (or at least as well).
	qc, err := m.Qc(th)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bta.Factorize(qc)
	if err != nil {
		t.Fatal(err)
	}
	mu := m.CondRHS(th)
	f.Solve(mu)
	llMu := m.LogLik(th, mu)
	if llMu < ll0 {
		t.Fatalf("loglik at conditional mean %v < at zero %v", llMu, ll0)
	}
}

func TestLogLikGaussianIdentity(t *testing.T) {
	// With x = 0, log ℓ = Σ_k [ m/2·(log τ_k − log 2π) − τ_k/2·‖y_k‖² ].
	m, th := testModel(t, 2, 2)
	x0 := make([]float64, m.Dims.Total())
	got := m.LogLik(th, x0)
	var want float64
	mObs := m.Obs.M()
	for k := 0; k < 2; k++ {
		var ss float64
		for _, v := range m.Obs.Y[k] {
			ss += v * v
		}
		want += 0.5*float64(mObs)*(math.Log(th.TauY[k])-math.Log(2*math.Pi)) - 0.5*th.TauY[k]*ss
	}
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("loglik %v want %v", got, want)
	}
}

func TestPredictMeanAtObservations(t *testing.T) {
	// Predicting at the observation points with the conditional mean should
	// be closer to y than the zero field is.
	m, th := testModel(t, 2, 2)
	qc, _ := m.Qc(th)
	f, err := bta.Factorize(qc)
	if err != nil {
		t.Fatal(err)
	}
	mu := m.CondRHS(th)
	f.Solve(mu)
	pred, err := m.PredictMean(th, mu, m.Obs.Points, m.Obs.TimeIdx, m.Obs.Covariates)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		var ssPred, ssZero float64
		for i := range pred[k] {
			d := pred[k][i] - m.Obs.Y[k][i]
			ssPred += d * d
			ssZero += m.Obs.Y[k][i] * m.Obs.Y[k][i]
		}
		if ssPred > ssZero {
			t.Fatalf("response %d: prediction RSS %v worse than zero fit %v", k, ssPred, ssZero)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	msh := mesh.Uniform(3, 3, 10, 10)
	b := spde.NewBuilder(msh, 2)
	d := coreg.Dims{Nv: 1, Ns: b.Ns(), Nt: 2, Nr: 0}
	// Mismatched response count.
	obs := &Obs{Points: []mesh.Point{{X: 1, Y: 1}}, TimeIdx: []int{0}, Y: [][]float64{}}
	if _, err := New(b, d, obs); err == nil {
		t.Fatal("missing responses must error")
	}
	// Bad time index.
	obs2 := &Obs{Points: []mesh.Point{{X: 1, Y: 1}}, TimeIdx: []int{5}, Y: [][]float64{{1}}}
	if _, err := New(b, d, obs2); err == nil {
		t.Fatal("time index out of range must error")
	}
	// Dims disagreement.
	d3 := coreg.Dims{Nv: 1, Ns: 999, Nt: 2, Nr: 0}
	obs3 := &Obs{Points: []mesh.Point{{X: 1, Y: 1}}, TimeIdx: []int{0}, Y: [][]float64{{1}}}
	if _, err := New(b, d3, obs3); err == nil {
		t.Fatal("dims mismatch must error")
	}
}
