// Package dalia is a Go implementation of DALIA — the framework for
// accelerated spatio-temporal Bayesian modeling of multivariate Gaussian
// processes introduced in "Accelerated Spatio-Temporal Bayesian Modeling
// for Multivariate Gaussian Processes" (SC 2025).
//
// The library performs full Bayesian inference (the INLA methodology) for
// linear models of coregionalization over spatio-temporal Gaussian fields:
//
//   - latent Matérn fields discretized with the SPDE/FEM approach and
//     coupled in time by an autoregressive structure, giving sparse
//     block-tridiagonal precision matrices;
//   - any number of correlated response variables combined through a
//     coregionalization matrix Λ, with the joint precision permuted into
//     block-tridiagonal-arrowhead (BTA) form;
//   - structured block-dense solvers (Cholesky, triangular solve, selected
//     inversion) in sequential and distributed-memory form, the latter over
//     a time-domain partitioning with nested dissection;
//   - the paper's nested parallel scheme: S1 point evaluations on shared
//     memory (Fit, each evaluation on a sequential factor) and S1 groups
//     of S3 partitioned solvers on the simulated cluster (RunCluster). The
//     prior's log-determinant and quadratic form
//     are closed forms, so an evaluation factorizes Q_c alone and the
//     paper's S2 layer, which factorizes Q_p beside Q_c, has no work;
//   - one BFGS mode search for every backend: Fit and RunCluster both run
//     it, over shared-memory and simulated distributed evaluators.
//
// # Quick start
//
//	msh := dalia.UniformMesh(12, 10, 400, 300)
//	obs := &dalia.Obs{Points: pts, TimeIdx: days, Covariates: cov, Y: ys}
//	m, err := dalia.NewModel(msh, nt, nv, nr, obs)
//	res, err := dalia.Fit(m, dalia.WeakPrior(theta0, 5), theta0, dalia.DefaultFitOptions())
//
// See examples/ for runnable programs, README.md for the quick-start and
// repository layout, and cmd/dalia-bench for the paper-experiment index.
package dalia

import (
	"math/rand"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/predict"
	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/serve"
	"github.com/dalia-hpc/dalia/internal/spde"
	"github.com/dalia-hpc/dalia/internal/store"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// Core modeling types.
type (
	// Point is a 2D spatial location.
	Point = mesh.Point
	// Mesh is a 2D triangulation carrying the FEM discretization.
	Mesh = mesh.Mesh
	// Obs holds multivariate observations: every response observed at the
	// same m space-time slots.
	Obs = model.Obs
	// Model is a fully specified multivariate spatio-temporal LMC model.
	Model = model.Model
	// Theta is a decoded hyperparameter configuration.
	Theta = model.Theta
	// Hyper holds one process's (spatial range, temporal range, sd).
	Hyper = spde.Hyper
	// Lambda is the coregionalization matrix in factored form.
	Lambda = coreg.Lambda
	// Dims describes the latent field layout (nv, ns, nt, nr).
	Dims = coreg.Dims
	// Prior places independent Gaussians on the working-scale θ.
	Prior = inla.Prior
	// FitOptions configures a full INLA fit.
	FitOptions = inla.FitOptions
	// Result is the INLA fit outcome: θ mode + uncertainty, latent
	// posterior mean and marginal variances.
	Result = inla.Result
	// FixedEffect summarizes one fixed effect's posterior.
	FixedEffect = inla.FixedEffect
	// HyperMarginal summarizes one hyperparameter's posterior marginal.
	HyperMarginal = inla.HyperMarginal
	// IntegratedPosterior is the latent posterior integrated over the
	// hyperparameter grid (§III-4), available via
	// FitOptions.IntegrateHyperGrid.
	IntegratedPosterior = inla.IntegratedPosterior
	// LikelihoodKind selects Gaussian or Poisson observations.
	LikelihoodKind = model.LikelihoodKind
	// Matrix is the dense matrix type used for covariates.
	Matrix = dense.Matrix
)

// Structured-solver types (the Serinv-Go layer).
type (
	// BTAMatrix is a block-tridiagonal-arrowhead matrix with dense blocks.
	BTAMatrix = bta.Matrix
	// BTAFactor is its sequential Cholesky factorization.
	BTAFactor = bta.Factor
	// BTASolver is the common solver surface of the sequential and
	// parallel-in-time backends (Refactorize, Solve, LogDet, selected
	// inversion).
	BTASolver = bta.Solver
	// ParallelBTAFactor is the shared-memory parallel-in-time factorization
	// (PPOBTAF/PPOBTAS/PPOBTASI over goroutine partitions).
	ParallelBTAFactor = bta.ParallelFactor
)

// Simulated distributed-machine types.
type (
	// SharedPlan is how an in-process evaluator spends its core budget:
	// one S1 point evaluation per core, each on a sequential factor.
	SharedPlan = inla.SharedPlan
	// ClusterConfig configures a simulated distributed INLA run: world
	// size, machine model, BFGS iteration cap, memory cap and an optional
	// fault plan. S3 solver ranks split the time blocks as
	// ParallelBTAFactor does.
	ClusterConfig = inla.DistConfig
	// ClusterReport carries the virtual-time statistics and the mode
	// search result of a run.
	ClusterReport = inla.DistReport
	// MachineModel parameterizes the communication cost model.
	MachineModel = comm.Machine
)

// Synthetic-data types (the CAMS-data substitute of the paper's §VI).
type (
	// GenConfig controls synthetic dataset generation.
	GenConfig = synth.GenConfig
	// Dataset bundles a generated model with its ground truth.
	Dataset = synth.Dataset
)

// Posterior-prediction and serving types (the fit-once/serve-many layer).
type (
	// PredictQuery asks for one response at one space-time location.
	PredictQuery = predict.Query
	// PredictOption customizes a PredictSnapshot (queueing batch width,
	// observation noise).
	PredictOption = predict.Option
	// PredictSnapshot is an immutable read-only prediction engine bound to a
	// fitted model: predictive means and variances at arbitrary new
	// space-time locations, read from the selected inverse of Q_c at the
	// fitted mode. Any number of goroutines query it concurrently with zero
	// locking.
	PredictSnapshot = predict.Snapshot
	// PredictHandle is an atomically swappable reference to the current
	// snapshot of a model — refits publish without blocking readers.
	PredictHandle = predict.Handle
	// Server is the dalia-serve HTTP application: a sharded registry of
	// fitted models with per-model replicated request batching.
	Server = serve.Server
	// ServeOptions configures a Server (batch coalescing window, latency
	// SLO, worker replicas per model, durable checkpoint store).
	ServeOptions = serve.Options
)

// Crash-safe persistence types (the durable checkpoint store).
type (
	// CheckpointStore is a durable, crash-safe store for fitted models:
	// versioned checksummed checkpoints published atomically under a small
	// write-ahead log, with generation retention and quarantine of anything
	// that fails validation on recovery.
	CheckpointStore = store.Store
	// Checkpoint is one durable record: an opaque spec (fit recipe) plus an
	// opaque payload (serialized fit result or optimizer state).
	Checkpoint = store.Checkpoint
	// StoreRecoveryStats reports what recovery found on open: models
	// recovered, corrupt generations quarantined, uncommitted publishes
	// rolled back, torn WAL tails truncated.
	StoreRecoveryStats = store.RecoveryStats
	// FitCheckpoint is the resumable BFGS optimizer state emitted by
	// FitOptions.Checkpoint (or Opt.Checkpoint) every Opt.CheckpointEvery
	// iterations: a killed fit resumes from its last iterate via
	// FitOptions.Opt.Resume instead of restarting at θ₀.
	FitCheckpoint = inla.OptCheckpoint
)

// ErrFitCanceled is returned (wrapped) by Fit when FitOptions.Opt.Ctx is
// canceled: the mode search stops at an iteration boundary after emitting a
// final checkpoint.
var ErrFitCanceled = inla.ErrFitCanceled

// OpenStore opens (creating if needed) a durable checkpoint store rooted at
// dir and runs crash recovery: torn writes rolled back, corrupt generations
// quarantined with fallback to the previous generation. Wire the returned
// store into ServeOptions.Store and a restarted server rebuilds its whole
// registry without re-running a single fit.
func OpenStore(dir string) (*CheckpointStore, *StoreRecoveryStats, error) {
	return store.Open(dir)
}

// MarshalResult serializes a fit result to the stable binary format used by
// checkpoint payloads; the float64 bits round-trip exactly.
func MarshalResult(r *Result) []byte { return inla.MarshalResult(r) }

// UnmarshalResult decodes a MarshalResult payload, rejecting truncated or
// corrupt input.
func UnmarshalResult(data []byte) (*Result, error) { return inla.UnmarshalResult(data) }

// ErrUnsupportedLikelihood is returned by NewPredictSnapshot when
// WithObservationNoise is asked of a count model, which has no Gaussian
// noise precisions to add. Count models are otherwise served like Gaussian
// ones, on the linear-predictor scale.
var ErrUnsupportedLikelihood = predict.ErrUnsupportedLikelihood

// WithPredictMaxBatch sets how many queries a queueing caller (the
// server's batcher) hands a snapshot per call.
func WithPredictMaxBatch(k int) PredictOption { return predict.WithMaxBatch(k) }

// WithObservationNoise folds Gaussian observation noise into predictive
// variances, giving the law of a new observation rather than of the latent
// predictor.
func WithObservationNoise() PredictOption { return predict.WithObservationNoise() }

// NewPredictSnapshot freezes a fit result into an immutable read-only
// prediction engine: it copies the blocks of Σ = Q_c⁻¹ at the fitted mode
// that Fit left on the result (a result decoded from a checkpoint carries
// none, and Q_c is factorized and selectively inverted once, by the same
// routine), and every prediction afterwards is a small quadratic form over
// the kept blocks of Σ. The read path is lock-free and allocation-free:
// N goroutines may call PredictInto concurrently. Publish it through a
// PredictHandle to let refits swap in new snapshots without blocking
// in-flight readers.
func NewPredictSnapshot(m *Model, res *Result, opts ...PredictOption) (*PredictSnapshot, error) {
	return predict.NewSnapshot(m, res, opts...)
}

// NewPredictHandle publishes an initial snapshot behind an atomically
// swappable handle.
func NewPredictHandle(s *PredictSnapshot) *PredictHandle { return predict.NewHandle(s) }

// NewServer builds an empty-registry batch inference server; mount
// srv.Handler() on any HTTP listener.
func NewServer(opts ServeOptions) *Server { return serve.New(opts) }

// UniformMesh builds a structured triangulation of [0,w]×[0,h] with nx×ny
// vertices.
func UniformMesh(nx, ny int, w, h float64) *Mesh { return mesh.Uniform(nx, ny, w, h) }

// ModelOption customizes model construction (likelihood, prior family).
type ModelOption = model.Option

// Spatio-temporal prior families and model options.
var (
	// WithPoissonLikelihood switches the observation model to counts.
	WithPoissonLikelihood = model.WithLikelihood(model.LikPoisson)
	// WithDiffusionPrior selects the non-separable diffusion-based
	// spatio-temporal prior (the paper's reference [25] family) instead of
	// the separable AR(1) ⊗ Matérn default.
	WithDiffusionPrior = model.WithSTKind(model.STDiffusion)
)

// NewModel assembles a model over the mesh with nt time steps, nv response
// variables, and nr fixed effects per process.
func NewModel(m *Mesh, nt, nv, nr int, obs *Obs, opts ...ModelOption) (*Model, error) {
	b := spde.NewBuilder(m, nt)
	d := coreg.Dims{Nv: nv, Ns: b.Ns(), Nt: nt, Nr: nr}
	return model.New(b, d, obs, opts...)
}

// NewLambda builds a coregionalization matrix from per-process scales and
// coupling parameters (see coreg.NewLambda for the ordering convention).
func NewLambda(sigmas, lambdas []float64) (*Lambda, error) {
	return coreg.NewLambda(sigmas, lambdas)
}

// WeakPrior centers a wide Gaussian prior at the given working-scale point.
func WeakPrior(center []float64, sd float64) Prior { return inla.WeakPrior(center, sd) }

// DefaultFitOptions returns the standard INLA fit configuration.
func DefaultFitOptions() FitOptions { return inla.DefaultFitOptions() }

// Fit runs the complete INLA procedure: BFGS mode search (a Gaussian
// model's gradient exact from one Laplace step and a selected inversion, a
// count model's from parallel central differences), hyperparameter
// uncertainty via the Hessian at the mode, latent posterior via selected
// inversion.
func Fit(m *Model, prior Prior, theta0 []float64, opts FitOptions) (*Result, error) {
	return inla.Fit(m, prior, theta0, opts)
}

// FixedEffects extracts the fixed-effect posteriors from a fit result.
func FixedEffects(m *Model, r *Result) []FixedEffect { return inla.FixedEffects(m, r) }

// Likelihood kinds.
const (
	LikGaussian = model.LikGaussian
	LikPoisson  = model.LikPoisson
)

// HyperMarginals derives per-component hyperparameter marginal summaries
// (working-scale Gaussian, natural-scale log-normal) from a fit result with
// the Hessian stage enabled.
func HyperMarginals(m *Model, r *Result) []HyperMarginal {
	names, logs := inla.ThetaLayout(m.Dims.Nv, coreg.NumLambdas(m.Dims.Nv), m.Lik == model.LikGaussian)
	return inla.HyperMarginals(names, logs, r)
}

// RunCluster runs the INLA mode search — Fit's BFGS, for at most
// cfg.Iterations iterations — SPMD on the simulated distributed machine,
// S1 evaluation groups of S3 solvers with one time partition per rank, and
// returns the optimizer's result with virtual-time statistics (the
// scaling-experiment entry point).
func RunCluster(m *Model, prior Prior, theta0 []float64, cfg ClusterConfig) (*ClusterReport, error) {
	return inla.RunDistributed(m, prior, theta0, cfg)
}

// DefaultMachine models a tightly coupled accelerator fabric.
func DefaultMachine() MachineModel { return comm.DefaultMachine() }

// Generate builds a synthetic dataset by sampling the latent processes from
// their prior and adding Gaussian observation noise; ground truth is
// returned for verification.
func Generate(cfg GenConfig) (*Dataset, error) { return synth.Generate(cfg) }

// Elevation is the synthetic elevation covariate field used by the
// air-pollution examples.
func Elevation(p Point, width, height float64) float64 {
	return synth.Elevation(p, width, height)
}

// SamplePosterior draws n samples from the Gaussian approximation of the
// latent posterior p_G(x|θ,y) via the structured factor (x = μ + L⁻ᵀz).
// Samples power derived quantities such as exceedance probabilities over
// regulatory thresholds — the motivating use case of the paper's
// introduction.
func SamplePosterior(m *Model, theta []float64, n int, rng *rand.Rand) (mu []float64, samples [][]float64, err error) {
	return inla.SamplePosterior(m, theta, n, rng)
}

// Exceedance estimates P(η_response(point) > threshold | y) at each
// prediction point from posterior samples.
func Exceedance(m *Model, theta []float64, samples [][]float64,
	pts []Point, timeIdx []int, cov *Matrix, response int, threshold float64) ([]float64, error) {
	return inla.Exceedance(m, theta, samples, pts, timeIdx, cov, response, threshold)
}

// FactorizeBTA computes the block Cholesky factorization of a BTA matrix
// (the sequential POBTAF routine).
func FactorizeBTA(m *BTAMatrix) (*BTAFactor, error) { return bta.Factorize(m) }

// NewBTASolver builds a structured solver for the BTA shape at the given
// parallel-in-time width: partitions ≤ 1 yields the sequential Factor,
// larger widths the shared-memory ParallelFactor (clamped to what the time
// dimension supports). The solver is reusable across Refactorize calls and
// allocation-free after warmup.
func NewBTASolver(n, b, a, partitions int) (BTASolver, error) {
	return bta.NewSolver(n, b, a, partitions)
}

// NewParallelBTAFactor allocates a parallel-in-time BTA factorization over
// the given number of partitions of the time dimension.
func NewParallelBTAFactor(n, b, a, partitions int) (*ParallelBTAFactor, error) {
	return bta.NewParallelFactor(n, b, a, partitions)
}

// SetSchedWorkers overrides the worker count of the process-wide
// work-stealing task executor that solver phases and evaluation batches
// run on (0 restores the GOMAXPROCS default). Call at process startup —
// the -sched-workers surface of the dalia commands.
func SetSchedWorkers(n int) { sched.SetSharedWorkers(n) }

// NewBTAMatrix allocates a zeroed BTA matrix with n diagonal blocks of size
// b and arrow width a.
func NewBTAMatrix(n, b, a int) *BTAMatrix { return bta.NewMatrix(n, b, a) }

// NewDenseMatrix allocates a zeroed dense matrix (covariates, etc.).
func NewDenseMatrix(r, c int) *Matrix { return dense.New(r, c) }
