package inla

import (
	"math"
	"testing"

	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/spde"
)

// TestDiffusionModelEndToEnd fits an INLA model whose latent prior is the
// non-separable diffusion family (model.STDiffusion) and checks the full
// pipeline: mapping construction, factorization, mode search, posterior.
func TestDiffusionModelEndToEnd(t *testing.T) {
	msh := mesh.Uniform(4, 4, 100, 100)
	nt := 3
	b := spde.NewBuilder(msh, nt)
	d := coreg.Dims{Nv: 1, Ns: b.Ns(), Nt: nt, Nr: 1}

	var pts []mesh.Point
	var tidx []int
	for tt := 0; tt < nt; tt++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				pts = append(pts, mesh.Point{X: 12.5 + 25*float64(i), Y: 12.5 + 25*float64(j)})
				tidx = append(tidx, tt)
			}
		}
	}
	cov := dense.New(len(pts), 1)
	for i := range pts {
		cov.Set(i, 0, 1)
	}
	obs := &model.Obs{Points: pts, TimeIdx: tidx, Covariates: cov, Y: [][]float64{make([]float64, len(pts))}}
	m, err := model.New(b, d, obs, model.WithSTKind(model.STDiffusion))
	if err != nil {
		t.Fatal(err)
	}
	if m.ST != model.STDiffusion {
		t.Fatal("option not applied")
	}

	// Synthetic observations: a smooth spatial bump plus noise.
	for i, p := range pts {
		obs.Y[0][i] = 1 + math.Exp(-((p.X-50)*(p.X-50)+(p.Y-50)*(p.Y-50))/800) + 0.1*math.Sin(float64(i))
	}

	l, err := coreg.NewLambda([]float64{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := &model.Theta{
		Process: []spde.Hyper{{RangeS: 40, RangeT: 2, Sigma: 1}},
		Lambda:  l,
		TauY:    []float64{4},
	}
	theta0 := m.EncodeTheta(th)
	prior := WeakPrior(theta0, 3)

	// Objective is finite and the pattern stays stable across θ values.
	parts, err := EvalFobj(m, prior, theta0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(parts.F()) || math.IsInf(parts.F(), 0) {
		t.Fatalf("diffusion fobj = %v", parts.F())
	}
	shifted := append([]float64(nil), theta0...)
	for i := range shifted {
		shifted[i] += 0.2
	}
	if _, err := EvalFobj(m, prior, shifted); err != nil {
		t.Fatalf("pattern drift across θ for the diffusion model: %v", err)
	}

	// A short fit runs end to end with positive marginal variances.
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 4
	opts.SkipHyperUncertainty = true
	res, err := Fit(m, prior, theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.LatentVar {
		if v <= 0 {
			t.Fatalf("latent variance[%d] = %v", i, v)
		}
	}
}
