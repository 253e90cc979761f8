package inla

import (
	"fmt"
	"math/rand"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/model"
)

// SamplePosterior draws n samples from the Gaussian approximation
// p_G(x|θ,y) of the latent posterior: with Q_c = L·Lᵀ and z ~ N(0,I),
// x = μ + L⁻ᵀz has precision Q_c. Samples are returned in the BTA
// ordering. For Poisson models the approximation is centered at the
// conditional mode (the standard INLA simplification).
//
// Posterior samples carry the full posterior *dependence* — unlike the
// marginal variances of the selected inversion — and power derived
// quantities such as exceedance probabilities over regulatory thresholds
// (the motivating use case of the paper's introduction).
func SamplePosterior(m *model.Model, theta []float64, n int, rng *rand.Rand) (mu []float64, samples [][]float64, err error) {
	_, mu, f, _, err := latentPosterior(m, theta, false, nil)
	if err != nil {
		return nil, nil, err
	}
	dim := m.Dims.Total()
	samples = make([][]float64, n)
	for s := 0; s < n; s++ {
		z := make([]float64, dim)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		f.SolveLT(z)
		dense.Axpy(1, mu, z)
		samples[s] = z
	}
	return mu, samples, nil
}

// Exceedance estimates, for each prediction point, the posterior
// probability that response k's linear predictor exceeds the threshold —
// P(η_k(point) > threshold | y) — from posterior samples. For Gaussian
// models η is the response mean; for Poisson models it is the
// log-intensity.
func Exceedance(m *model.Model, theta []float64, samples [][]float64,
	pts []mesh.Point, timeIdx []int, cov *dense.Matrix, response int, threshold float64) ([]float64, error) {
	if response < 0 || response >= m.Dims.Nv {
		return nil, fmt.Errorf("inla: response %d outside [0,%d)", response, m.Dims.Nv)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("inla: exceedance needs at least one sample")
	}
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return nil, err
	}
	count := make([]float64, len(pts))
	for _, s := range samples {
		pred, err := m.PredictMean(t, s, pts, timeIdx, cov)
		if err != nil {
			return nil, err
		}
		for i, v := range pred[response] {
			if v > threshold {
				count[i]++
			}
		}
	}
	for i := range count {
		count[i] /= float64(len(samples))
	}
	return count, nil
}
