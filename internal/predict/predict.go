// Package predict turns a finished INLA fit into a reusable posterior
// prediction engine: given the fitted hyperparameter mode and the latent
// posterior mean, it computes posterior predictive means and variances of
// any response at arbitrary new space-time locations — the
// downscaling/serving operation the paper's fitted models exist to provide.
//
// For a query (point p, time t, response k, covariates c) the linear
// predictor is η = φᵀx with the sparse cross-projection row
//
//	φ = Σ_j Λ[k,j]·( Σ_v w_v·e_{j,t,node_v} + Σ_r c_r·e_{j,fixed_r} )
//
// where w are the barycentric basis weights of p in the SPDE mesh. Under
// the Gaussian posterior x ~ N(μ, Σ), Σ = Q_c⁻¹, the predictive law is
//
//	η ~ N(φᵀμ, φᵀΣφ).
//
// In the solver's ordering φ is supported on one time block and the arrow
// (the fixed effects), so
//
//	φᵀΣφ = φ_tᵀΣ_tt φ_t + 2 φ_aᵀΣ_at φ_t + φ_aᵀΣ_aa φ_a
//
// reads only the diagonal, arrow and tip blocks of Σ — what the solver's
// selected inversion (POBTASI) delivers. A Snapshot keeps a copy of those
// blocks of the Σ the fit computed (or, for a result decoded from a
// checkpoint, runs that inversion once at construction); a prediction is
// then a quadratic form over the ≤ 3(k+1) mesh-node and ≤ nr(k+1)
// fixed-effect nonzeros of φ: no solve, no workspace, no allocation, at a
// cost independent of the number of time steps and of the mesh size. The
// Snapshot is immutable, so any number of goroutines read it without
// locking, and a Handle swaps refitted Snapshots in atomically without
// blocking in-flight reads.
//
// Count models are served on the linear-predictor (log-intensity) scale, as
// Model.PredictMean does, with Σ taken at the Laplace mode.
package predict

import (
	"errors"

	"github.com/dalia-hpc/dalia/internal/mesh"
)

// ErrUnsupportedLikelihood reports an option the model's likelihood cannot
// honour: WithObservationNoise on a count model, which has no Gaussian
// noise precisions τ_y to add.
var ErrUnsupportedLikelihood = errors.New("predict: observation noise needs a Gaussian-likelihood model")

// Query asks for the posterior predictive law of one response at one
// space-time location.
type Query struct {
	Point mesh.Point
	// T is the time index in [0, nt).
	T int
	// Response selects the response process k in [0, nv).
	Response int
	// Covariates holds the nr fixed-effect covariate values at the query
	// location (e.g. intercept, elevation). nil means all-zero covariates,
	// i.e. the spatio-temporal field contribution alone.
	Covariates []float64
}

// config collects the option state of Snapshot construction.
type config struct {
	maxBatch     int
	includeNoise bool
}

// Option customizes a Snapshot.
type Option func(*config)

// WithMaxBatch sets a width that is only reported back through MaxBatch
// (default 64): the Snapshot answers any number of queries per call, one at
// a time, and nothing queues requests to coalesce them. Kept because the
// end-to-end benchmark sets it; goes with the next change to that
// benchmark.
func WithMaxBatch(k int) Option { return func(c *config) { c.maxBatch = k } }

// WithObservationNoise adds the Gaussian observation noise 1/τ_k to every
// predictive variance, turning the latent-predictor law into the posterior
// predictive law of a new observation.
func WithObservationNoise() Option { return func(c *config) { c.includeNoise = true } }
