package inla

import (
	"math"
	"slices"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// TestEvalFobjScratchReuseConsistent: evaluations through a shared arena
// must agree exactly with fresh-allocation evaluations, including when the
// arena is re-used across different θ (stale workspace content must never
// leak into a later evaluation).
func TestEvalFobjScratchReuseConsistent(t *testing.T) {
	ds := genSmall(t, 2)
	prior := WeakPrior(ds.Theta0, 5)
	ws := newSolverScratch(ds.Model)

	theta1 := append([]float64(nil), ds.Theta0...)
	theta1[0] += 0.3
	theta1[len(theta1)-1] -= 0.2

	for _, theta := range [][]float64{ds.Theta0, theta1, ds.Theta0} {
		want, err := EvalFobj(ds.Model, prior, theta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := evalFobjScratch(ds.Model, prior, theta, ws)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.F()-want.F()) > 1e-9*(1+math.Abs(want.F())) {
			t.Fatalf("scratch evaluation drifted: got %v want %v", got.F(), want.F())
		}
		if got.LogDetQc != want.LogDetQc || got.LogDetQp != want.LogDetQp {
			t.Fatalf("log-determinants differ: got (%v,%v) want (%v,%v)",
				got.LogDetQp, got.LogDetQc, want.LogDetQp, want.LogDetQc)
		}
	}
}

// TestEvaluatorRefactorizeSolveZeroAlloc pins the acceptance criterion at
// the evaluator level: with a warm arena, the per-θ cycle of a Gaussian
// evaluation (Q_c assembly from the coefficient tables, factorization,
// conditional-mean right-hand side and solve, log-determinant, the prior's
// quadratic form and the log-likelihood) performs zero heap allocations —
// both with Q_c assembled into a matrix of the test's own and Refactorized
// and with it assembled in place into the factor's workspace, as
// laplaceStep does — on the small fixture and at the benchmark's two
// block shapes, b=144 with a=2 (fit_uni_gauss) and b=60 with a=3
// (fit_tri_gauss).
func TestEvaluatorRefactorizeSolveZeroAlloc(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	for _, cfg := range []synth.GenConfig{
		{Nv: 2, Nt: 3, Nr: 2, MeshNx: 4, MeshNy: 4, ObsPerStep: 25, Seed: 7},
		{Nv: 1, Nt: 4, Nr: 2, MeshNx: 12, MeshNy: 12, ObsPerStep: 120, Seed: 7},
		{Nv: 3, Nt: 8, Nr: 1, MeshNx: 5, MeshNy: 4, ObsPerStep: 30, Seed: 7},
	} {
		ds, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5)}
		th, err := ds.Model.DecodeTheta(ds.Theta0)
		if err != nil {
			t.Fatal(err)
		}
		ws := e.getScratch()
		qc := bta.NewMatrix(ds.Model.Dims.BTAShape())
		for _, inPlace := range []bool{false, true} {
			cycle := func() {
				if inPlace {
					if err := ds.Model.QcInto(th, ws.fc.Workspace()); err != nil {
						t.Fatal(err)
					}
					if err := ws.fc.FactorizeWorkspace(); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := ds.Model.QcInto(th, qc); err != nil {
						t.Fatal(err)
					}
					if err := ws.fc.Refactorize(qc); err != nil {
						t.Fatal(err)
					}
				}
				ds.Model.CondRHSInto(th, ws.mu, ws.pm, ws.obs)
				ws.fc.Solve(ws.mu)
				_ = ws.fc.LogDet()
				_ = ds.Model.PriorQuad(th, ws.mu, ws.z)
				_ = ds.Model.LogLikInto(th, ws.mu, ws.pm, ws.obs)
			}
			cycle() // warm-up
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				_, b, a := ds.Model.Dims.BTAShape()
				t.Fatalf("b=%d a=%d in place %v: evaluator solver cycle allocates %.1f objects per run in steady state, want 0",
					b, a, inPlace, allocs)
			}
		}
		e.scratch.Put(ws)
	}

}

// TestCountGradientRequestZeroAlloc pins a count gradient request's arena
// at the fit_bi_poisson shape: once warm, the request at a decoded θ — the
// Laplace step, with the mode solved from x = 0 or rebuilt from a kept one,
// the closing step, the selected inversion, the count contraction with its
// adjoint solve, and the gradient — allocates nothing.
func TestCountGradientRequestZeroAlloc(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	ds, err := synth.Generate(benchmarkShapes(t)["fit_bi_poisson"])
	if err != nil {
		t.Fatal(err)
	}
	m, prior := ds.Model, WeakPrior(ds.Theta0, 5)
	th, err := m.DecodeTheta(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	ws := newGradScratch(m)
	if _, err := gradientAt(m, prior, ws, th, ds.Theta0, nil); err != nil {
		t.Fatal(err)
	}
	kept := slices.Clone(ws.mode.XPM)
	for _, x0 := range [][]float64{nil, kept} {
		request := func() {
			if _, err := gradientAt(m, prior, ws, th, ds.Theta0, x0); err != nil {
				t.Fatal(err)
			}
		}
		request() // warm-up
		if allocs := testing.AllocsPerRun(10, request); allocs != 0 {
			t.Fatalf("kept mode %v: a count gradient request allocates %.1f objects per run in steady state, want 0",
				x0 != nil, allocs)
		}
	}
}
