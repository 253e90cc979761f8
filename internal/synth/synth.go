// Package synth generates synthetic datasets for the experiments. It stands
// in for the CAMS reanalysis pollution data of §VI (a hardware/data gate of
// the reproduction): trivariate pollutant-like fields are sampled *from the
// model itself* over a rectangular "northern-Italy-like" domain with an
// elevation covariate, so parameter recovery can be verified against known
// ground truth — something the real data cannot offer. The built-in
// coregionalization truth mimics the paper's findings: PM2.5 and PM10
// strongly positively correlated, both moderately negatively correlated
// with O₃, and elevation decreasing PM while increasing O₃.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/spde"
)

// Dataset bundles a generated model with its ground truth.
type Dataset struct {
	Model     *model.Model
	TrueTheta *model.Theta
	// TrueX is the sampled latent state in BTA (permuted) ordering.
	TrueX []float64
	// Theta0 is a perturbed starting point for the optimizer.
	Theta0 []float64
}

// GenConfig controls dataset generation.
type GenConfig struct {
	Nv, Nt, Nr     int
	MeshNx, MeshNy int
	Width, Height  float64 // domain extent (km)
	ObsPerStep     int     // observation locations per time step
	Seed           int64

	// Family selects the observation model (default Gaussian). Poisson
	// datasets draw counts y ~ Poisson(exp(η)).
	Family model.LikelihoodKind

	// Truth; nil selects DefaultTruth, or defaultCountTruth for Poisson
	// data.
	Truth *model.Theta
	// FixedEffects[v][r] are the true fixed-effect coefficients; nil
	// selects pollutant-like defaults, or count-scale ones for Poisson data.
	FixedEffects [][]float64
	// Theta0Jitter perturbs the encoded truth to form the starting point.
	Theta0Jitter float64
}

// DefaultTruth builds a plausible pollutant-like ground truth for nv
// processes on a domain of the given width.
func DefaultTruth(nv int, width float64) *model.Theta {
	sig := make([]float64, nv)
	tau := make([]float64, nv)
	var hyp []spde.Hyper
	for k := 0; k < nv; k++ {
		sig[k] = 1.0 + 0.3*float64(k%2)
		tau[k] = 4
		hyp = append(hyp, spde.Hyper{
			RangeS: width * (0.3 + 0.1*float64(k)),
			RangeT: 3 + float64(k),
			Sigma:  1,
		})
	}
	lam := make([]float64, coreg.NumLambdas(nv))
	// Trivariate pollutant convention: strong + coupling between PM2.5 and
	// PM10 (λ1), negative coupling of O₃ with PM10 (λ2) and PM2.5 (λ3).
	if nv == 3 {
		lam[0] = 1.2
		lam[1] = -0.5
		lam[2] = -0.2
	} else {
		for i := range lam {
			lam[i] = 0.4 / float64(i+1)
		}
	}
	l, err := coreg.NewLambda(sig, lam)
	if err != nil {
		panic(fmt.Sprintf("synth: default truth: %v", err))
	}
	return &model.Theta{Process: hyp, Lambda: l, TauY: tau}
}

// defaultCountTruth is DefaultTruth on the count scale. A Poisson
// response's linear predictor is log E[y], so unit-scale processes with the
// pollutant couplings put site counts in the thousands, where the inner
// Newton loop's damped steps from x = 0 stall; scales σ_k = 0.7 and
// couplings 0.4/(i+1) keep exp(η) in the tens to hundreds.
func defaultCountTruth(nv int, width float64) *model.Theta {
	t := DefaultTruth(nv, width)
	sig := make([]float64, nv)
	for k := range sig {
		sig[k] = 0.7
	}
	lam := make([]float64, coreg.NumLambdas(nv))
	for i := range lam {
		lam[i] = 0.4 / float64(i+1)
	}
	l, err := coreg.NewLambda(sig, lam)
	if err != nil {
		panic(fmt.Sprintf("synth: default count truth: %v", err))
	}
	t.Lambda = l
	return t
}

// Elevation is the synthetic elevation field (km) over the domain — a
// smooth ridge along the north edge standing in for the Alps.
func Elevation(p mesh.Point, width, height float64) float64 {
	north := p.Y / height
	ridge := 2.5 * math.Exp(-8*(1-north)*(1-north))
	hills := 0.3 * math.Sin(4*math.Pi*p.X/width) * math.Cos(2*math.Pi*p.Y/height)
	v := ridge + hills
	if v < 0 {
		v = 0
	}
	return v
}

// Generate builds a dataset by sampling the latent processes from their
// prior, applying the coregionalization and fixed effects, and adding
// Gaussian observation noise.
func Generate(cfg GenConfig) (*Dataset, error) {
	if cfg.Width == 0 {
		cfg.Width = 400
	}
	if cfg.Height == 0 {
		cfg.Height = 300
	}
	if cfg.Theta0Jitter == 0 {
		cfg.Theta0Jitter = 0.3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	msh := mesh.Uniform(cfg.MeshNx, cfg.MeshNy, cfg.Width, cfg.Height)
	b := spde.NewBuilder(msh, cfg.Nt)
	d := coreg.Dims{Nv: cfg.Nv, Ns: b.Ns(), Nt: cfg.Nt, Nr: cfg.Nr}

	truth := cfg.Truth
	switch {
	case truth != nil:
	case cfg.Family == model.LikPoisson:
		truth = defaultCountTruth(cfg.Nv, cfg.Width)
	default:
		truth = DefaultTruth(cfg.Nv, cfg.Width)
	}

	// Observation slots: ObsPerStep random locations, re-used every step
	// (the fixed monitoring-grid situation).
	locs := make([]mesh.Point, cfg.ObsPerStep)
	for i := range locs {
		locs[i] = mesh.Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
	}
	var pts []mesh.Point
	var tidx []int
	for t := 0; t < cfg.Nt; t++ {
		for _, p := range locs {
			pts = append(pts, p)
			tidx = append(tidx, t)
		}
	}
	mObs := len(pts)
	var cov *dense.Matrix
	if cfg.Nr > 0 {
		cov = dense.New(mObs, cfg.Nr)
		for i := 0; i < mObs; i++ {
			cov.Set(i, 0, 1) // intercept
			if cfg.Nr > 1 {
				cov.Set(i, 1, Elevation(pts[i], cfg.Width, cfg.Height))
			}
			for r := 2; r < cfg.Nr; r++ {
				cov.Set(i, r, rng.NormFloat64())
			}
		}
	}

	obs := &model.Obs{Points: pts, TimeIdx: tidx, Covariates: cov}
	for k := 0; k < cfg.Nv; k++ {
		obs.Y = append(obs.Y, make([]float64, mObs))
	}
	mod, err := model.New(b, d, obs)
	if err != nil {
		return nil, err
	}

	// Sample each latent process from its unit-variance prior.
	x := make([]float64, d.Total()) // process-major
	per := d.PerProcess()
	for k := 0; k < cfg.Nv; k++ {
		q := b.Precision(truth.Process[k])
		bm, err := bta.FromCSR(q, cfg.Nt, b.Ns(), 0)
		if err != nil {
			return nil, fmt.Errorf("synth: process %d precision: %w", k, err)
		}
		f, err := bta.Factorize(bm)
		if err != nil {
			return nil, fmt.Errorf("synth: process %d factorization: %w", k, err)
		}
		z := make([]float64, bm.Dim())
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		f.SolveLT(z)
		copy(x[k*per:], z)
		// Fixed effects: explicit true values.
		for r := 0; r < cfg.Nr; r++ {
			v := defaultBeta(k, r)
			if cfg.Family == model.LikPoisson {
				v = countBeta(k, r)
			}
			if cfg.FixedEffects != nil {
				v = cfg.FixedEffects[k][r]
			}
			x[k*per+cfg.Nt*b.Ns()+r] = v
		}
	}
	xPerm := mod.ApplyPerm(x)

	// Responses from the linear predictor η_k = Σ_j Λ[k,j]·(A·x_j):
	// Gaussian adds noise, Poisson draws counts from exp(η).
	pred, err := mod.PredictMean(truth, xPerm, pts, tidx, cov)
	if err != nil {
		return nil, err
	}
	mod.SetLikelihood(cfg.Family)
	for k := 0; k < cfg.Nv; k++ {
		switch cfg.Family {
		case model.LikPoisson:
			for i := 0; i < mObs; i++ {
				obs.Y[k][i] = poissonRand(rng, math.Exp(pred[k][i]))
			}
		default:
			sd := 1 / math.Sqrt(truth.TauY[k])
			for i := 0; i < mObs; i++ {
				obs.Y[k][i] = pred[k][i] + sd*rng.NormFloat64()
			}
		}
	}

	theta := mod.EncodeTheta(truth)
	theta0 := make([]float64, len(theta))
	for i := range theta0 {
		theta0[i] = theta[i] + cfg.Theta0Jitter*rng.NormFloat64()
	}
	return &Dataset{Model: mod, TrueTheta: truth, TrueX: xPerm, Theta0: theta0}, nil
}

// poissonRand draws from Poisson(mean): Knuth's product method for small
// means, a rounded normal approximation for large ones.
func poissonRand(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k, p := 0, 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return float64(k)
			}
			k++
		}
	}
	v := math.Round(mean + math.Sqrt(mean)*rng.NormFloat64())
	if v < 0 {
		v = 0
	}
	return v
}

// defaultBeta gives pollutant-flavoured true fixed effects: intercepts plus
// an elevation effect that is negative for the PM processes and positive
// for O₃ (§VI: −0.45, −0.55, +1.27 µg/m³ per km).
func defaultBeta(process, r int) float64 {
	switch r {
	case 0:
		return []float64{10, 15, 40}[process%3] / 10
	case 1:
		return []float64{-0.45, -0.55, 1.27}[process%3]
	default:
		return 0.1
	}
}

// countBeta gives count-scale true fixed effects: log-rate intercepts of
// 0.6–1.2 and small elevation effects of either sign.
func countBeta(process, r int) float64 {
	switch r {
	case 0:
		return 0.6 + 0.3*float64(process%3)
	case 1:
		return []float64{-0.2, 0.2, 0.3}[process%3]
	default:
		return 0.05
	}
}
