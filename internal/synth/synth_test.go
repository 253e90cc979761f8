package synth

import (
	"math"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/model"
)

func TestGenerateShapes(t *testing.T) {
	ds, err := Generate(GenConfig{
		Nv: 2, Nt: 3, Nr: 2, MeshNx: 4, MeshNy: 4, ObsPerStep: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := ds.Model.Dims
	if d.Nv != 2 || d.Nt != 3 || d.Nr != 2 || d.Ns != 16 {
		t.Fatalf("dims %+v", d)
	}
	if len(ds.TrueX) != d.Total() {
		t.Fatalf("TrueX length %d want %d", len(ds.TrueX), d.Total())
	}
	if ds.Model.Obs.M() != 30 {
		t.Fatalf("m = %d want 30", ds.Model.Obs.M())
	}
	if len(ds.Theta0) != ds.Model.NumHyper() {
		t.Fatalf("theta0 length %d", len(ds.Theta0))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Nv: 1, Nt: 2, Nr: 1, MeshNx: 3, MeshNy: 3, ObsPerStep: 5, Seed: 9}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TrueX {
		if a.TrueX[i] != b.TrueX[i] {
			t.Fatal("generation not deterministic for equal seeds")
		}
	}
	for i := range a.Model.Obs.Y[0] {
		if a.Model.Obs.Y[0][i] != b.Model.Obs.Y[0][i] {
			t.Fatal("observations not deterministic")
		}
	}
}

func TestGenerateSignalAboveNoise(t *testing.T) {
	// With τ_y = 4 (sd 0.5) and unit-variance latent fields the observation
	// variance must clearly exceed the noise variance.
	ds, err := Generate(GenConfig{
		Nv: 1, Nt: 4, Nr: 2, MeshNx: 5, MeshNy: 5, ObsPerStep: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	y := ds.Model.Obs.Y[0]
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var variance float64
	for _, v := range y {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(y))
	noiseVar := 1 / ds.TrueTheta.TauY[0]
	if variance < 1.5*noiseVar {
		t.Fatalf("observation variance %v barely above noise %v", variance, noiseVar)
	}
}

func TestDefaultTruthTrivariateCorrelations(t *testing.T) {
	tr := DefaultTruth(3, 400)
	corr := tr.Lambda.ImpliedCorrelation()
	// PM2.5↔PM10 strongly positive; O₃ negative with both (§VI pattern).
	if corr.At(1, 0) < 0.5 {
		t.Fatalf("corr(PM10, PM2.5) = %v, want strongly positive", corr.At(1, 0))
	}
	if corr.At(2, 0) > 0 || corr.At(2, 1) > 0 {
		t.Fatalf("O₃ correlations (%v, %v) must be negative", corr.At(2, 0), corr.At(2, 1))
	}
}

func TestElevationField(t *testing.T) {
	w, h := 560.0, 220.0
	south := Elevation(mesh.Point{X: 280, Y: 10}, w, h)
	north := Elevation(mesh.Point{X: 280, Y: 215}, w, h)
	if north <= south {
		t.Fatalf("elevation must rise northward (alps): south %v north %v", south, north)
	}
	if south < 0 || north < 0 {
		t.Fatal("elevation must be non-negative")
	}
}

func TestAllSpecsConsistent(t *testing.T) {
	specs := AllSpecs()
	if len(specs) != 6 {
		t.Fatalf("expected 6 Table IV datasets, got %d", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate spec %s", s.ID)
		}
		seen[s.ID] = true
		if s.Gen.Nv != s.Paper.Nv {
			t.Fatalf("%s: scaled nv %d != paper nv %d", s.ID, s.Gen.Nv, s.Paper.Nv)
		}
		if s.Gen.Nr != s.Paper.Nr {
			t.Fatalf("%s: scaled nr %d != paper nr %d", s.ID, s.Gen.Nr, s.Paper.Nr)
		}
		if len(s.Workers) == 0 {
			t.Fatalf("%s: no worker sweep", s.ID)
		}
		if s.String() == "" || s.ScaleNote == "" {
			t.Fatalf("%s: missing documentation", s.ID)
		}
	}
}

func TestSpecDimThetaMatchesModel(t *testing.T) {
	// dim(θ) of the scaled models must equal the paper's Table IV values —
	// the parallel structure (nfeval = 2·dim(θ)+1) depends on it.
	for _, s := range []Spec{MB1(), WA1(), SA1(), AP1()} {
		ds, err := Generate(s.Gen)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if got := ds.Model.NumHyper(); got != s.Paper.DimTheta {
			t.Fatalf("%s: dim(θ) = %d, paper %d", s.ID, got, s.Paper.DimTheta)
		}
	}
}

func TestWA2MeshLevelsStartAtPaperSize(t *testing.T) {
	ms := mesh.RefinementLevels(3, 400, 300)
	if ms[0].NumNodes() != 72 {
		t.Fatalf("coarsest WA2 mesh %d nodes, paper has 72", ms[0].NumNodes())
	}
}

func TestGenerateRecoversPredictions(t *testing.T) {
	// The generating latent state must reproduce the noiseless responses
	// through PredictMean (internal consistency of the generator).
	ds, err := Generate(GenConfig{
		Nv: 2, Nt: 2, Nr: 1, MeshNx: 4, MeshNy: 3, ObsPerStep: 8, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := ds.Model.PredictMean(ds.TrueTheta, ds.TrueX,
		ds.Model.Obs.Points, ds.Model.Obs.TimeIdx, ds.Model.Obs.Covariates)
	if err != nil {
		t.Fatal(err)
	}
	// Residual sd ≈ noise sd (0.5), far below a broken generator's output.
	for k := 0; k < 2; k++ {
		var ss float64
		for i := range pred[k] {
			d := ds.Model.Obs.Y[k][i] - pred[k][i]
			ss += d * d
		}
		rmse := math.Sqrt(ss / float64(len(pred[k])))
		noiseSD := 1 / math.Sqrt(ds.TrueTheta.TauY[k])
		if rmse > 2*noiseSD {
			t.Fatalf("response %d: generator rmse %v vs noise sd %v", k, rmse, noiseSD)
		}
	}
}

// TestCountDefaultsConvergeEverySeed: count data generated without an
// explicit truth keep the inner Newton loop convergent from x = 0 — at the
// true θ and at the jittered start θ₀ — on every seed 1–40, for the
// benchmark's bivariate count shape and a trivariate one. (With the
// pollutant defaults about one seed in five diverged on the first and
// nearly all on the second.) Every arm θ₀ ± h·e_i of the first gradient
// stencil (h = 1e-3, the optimizer's default step) converges warm from the
// mode at θ₀, without falling back to x = 0.
func TestCountDefaultsConvergeEverySeed(t *testing.T) {
	for _, cfg := range []GenConfig{
		{Nv: 2, Nt: 4, Nr: 2, MeshNx: 6, MeshNy: 5, ObsPerStep: 40},
		{Nv: 3, Nt: 3, Nr: 2, MeshNx: 4, MeshNy: 4, ObsPerStep: 30},
	} {
		cfg.Family = model.LikPoisson
		for seed := int64(1); seed <= 40; seed++ {
			cfg.Seed = seed
			ds, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := ds.Model
			n, b, a := m.Dims.BTAShape()
			f, w := bta.NewFactor(n, b, a), m.NewNewtonWork()
			theta0, err := m.DecodeTheta(ds.Theta0)
			if err != nil {
				t.Fatal(err)
			}
			var centre []float64 // the mode at θ₀, the loop's last θ
			for _, th := range []*model.Theta{ds.TrueTheta, theta0} {
				centre = centre[:0]
				mode, err := m.ConditionalModeInto(th, f, w, nil)
				if err != nil {
					t.Errorf("nv=%d seed=%d: %v", cfg.Nv, seed, err)
					continue
				}
				centre = append(centre[:0], mode.XPM...)
			}
			if len(centre) == 0 {
				continue
			}
			const h = 1e-3
			for i := range ds.Theta0 {
				for _, s := range []float64{h, -h} {
					arm := append([]float64(nil), ds.Theta0...)
					arm[i] += s
					th, err := m.DecodeTheta(arm)
					if err != nil {
						t.Fatal(err)
					}
					mode, err := m.ConditionalModeInto(th, f, w, centre)
					if err != nil || !mode.Warm {
						t.Errorf("nv=%d seed=%d: arm θ₀%+g·e_%d did not converge from the θ₀ mode (err %v)", cfg.Nv, seed, s, i, err)
					}
				}
			}
		}
	}
}
