// Package predict turns a finished INLA fit into a reusable posterior
// prediction engine: given the fitted hyperparameter mode, the factorized
// conditional precision Q_c at that mode, and the latent posterior mean, it
// computes posterior predictive means and variances of any response at
// arbitrary new space-time locations — the downscaling/serving operation
// the paper's fitted models exist to provide.
//
// For a query (point p, time t, response k, covariates c) the linear
// predictor is η = φᵀx with the sparse cross-projection row
//
//	φ = Σ_j Λ[k,j]·( Σ_v w_v·e_{j,t,node_v} + Σ_r c_r·e_{j,fixed_r} )
//
// where w are the barycentric basis weights of p in the SPDE mesh. Under
// the Gaussian posterior x ~ N(μ, Q_c⁻¹), the predictive law is
//
//	η ~ N(φᵀμ, φᵀ·Q_c⁻¹·φ),  φᵀQ_c⁻¹φ = ‖L⁻¹φ‖².
//
// Queries are batched: a whole batch of φ columns is half-solved through
// the mode factor in one BLAS-3 multi-RHS sweep (bta.MultiSolve), and every
// per-batch buffer comes from a pooled scratch arena, so the steady-state
// prediction path performs zero heap allocations — the same fixed-memory
// discipline the INLA mode search established for fitting.
//
// The package offers two engines over the same core:
//
//   - Predictor — the general engine. Sequential factor by default
//     (lock-free concurrent solves), or the parallel-in-time backend via
//     WithSolverPartitions for single-flight callers that want each solve
//     spread across cores. Concurrent use of the parallel backend is a
//     caller bug and fails with ErrConcurrentParallel.
//   - Snapshot — the replicated-serving engine. An immutable predictor over
//     the sequential factor whose read path takes no lock at all; N readers
//     query one Snapshot concurrently with per-goroutine pooled scratch,
//     and a Handle swaps refitted Snapshots in atomically without blocking
//     in-flight reads.
package predict

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/model"
)

// ErrConcurrentParallel reports concurrent PredictInto calls on a Predictor
// bound to the parallel-in-time backend. That backend shares per-partition
// solver scratch across calls, so it is strictly single-flight; instead of
// quietly serializing callers behind a mutex (hiding the misconfiguration
// as latency), the engine fails fast. Replicated serving reads from a
// Snapshot, whose path is lock-free by construction.
var ErrConcurrentParallel = errors.New(
	"predict: concurrent PredictInto on the parallel-in-time backend (single-flight only); serve replicated reads from a Snapshot")

// ErrUnsupportedLikelihood reports a model whose likelihood the prediction
// engines cannot serve: the mode factorization they are built on weights the
// observations by the Gaussian noise precisions τ_y, which count models do
// not have.
var ErrUnsupportedLikelihood = errors.New("predict: only Gaussian-likelihood models can be served")

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

// config collects the option state shared by Predictor and Snapshot
// construction.
type config struct {
	maxBatch      int
	includeNoise  bool
	partitions    int
	partitionsSet bool
}

// Option customizes a Predictor or a Snapshot.
type Option func(*config)

// WithMaxBatch sets the number of queries coalesced into one multi-RHS
// solve (default 64). Larger batches amortize the triangular sweeps better;
// the scratch arena grows linearly with it.
func WithMaxBatch(k int) Option { return func(c *config) { c.maxBatch = k } }

// WithObservationNoise adds the Gaussian observation noise 1/τ_k to every
// predictive variance, turning the latent-predictor law into the posterior
// predictive law of a new observation.
func WithObservationNoise() Option { return func(c *config) { c.includeNoise = true } }

// WithSolverPartitions sets the parallel-in-time width of the mode
// factorization and its solves: ≤ 0 schedules it from the machine's spare
// cores (inla.PlanBatch at width 1), ≥ 1 forces that width. Without this
// option the predictor stays on the sequential factor, preserving lock-free
// concurrent PredictInto across caller-owned workers. The parallel backend
// is single-flight: concurrent PredictInto fails with ErrConcurrentParallel.
// NewSnapshot rejects this option — a Snapshot is always the lock-free
// sequential factor.
//
// The parallel backend's partition sweeps run as tasks on the shared
// work-stealing executor (internal/sched), so a predictor's half solves
// interleave with concurrently running fits' work on the same cores; the
// single-flight contract above is unchanged.
func WithSolverPartitions(p int) Option {
	return func(c *config) {
		c.partitions = p
		c.partitionsSet = true
	}
}

// engine is the shared prediction core: the fitted model, the decoded mode,
// the latent posterior mean, and the batch policy. It fills φ columns and
// reads variances back; the owning type decides how the half solve runs
// (lock-free sequential vs single-flight parallel).
type engine struct {
	m     *model.Model
	theta *model.Theta
	mu    []float64 // latent posterior mean, BTA ordering

	maxBatch     int
	includeNoise bool
}

// batchScratch is one worker's arena: the multi-RHS workspace whose columns
// hold the φ rows and, after the half solve, L⁻¹φ.
type batchScratch struct {
	ms *bta.MultiSolve
}

// newEngine validates the shared inputs and copies the latent mean out of
// the result so the engine stays valid however the result is used
// afterwards.
func newEngine(m *model.Model, res *inla.Result, c *config) (engine, error) {
	if len(res.Mu) != m.Dims.Total() {
		return engine{}, fmt.Errorf("predict: latent mean length %d, want %d", len(res.Mu), m.Dims.Total())
	}
	if c.maxBatch < 1 {
		return engine{}, fmt.Errorf("predict: max batch %d < 1", c.maxBatch)
	}
	if m.Lik != model.LikGaussian {
		return engine{}, fmt.Errorf("%w (got %v)", ErrUnsupportedLikelihood, m.Lik)
	}
	return engine{
		m:            m,
		mu:           append([]float64(nil), res.Mu...),
		maxBatch:     c.maxBatch,
		includeNoise: c.includeNoise,
	}, nil
}

// fillBatch zeroes the narrowed workspace, assembles one φ column per query
// and accumulates the predictive means against μ during the fill.
func (e *engine) fillBatch(ms *bta.MultiSolve, qs []Query, means []float64) error {
	d := e.m.Dims
	lc := e.theta.Lambda.CoregView()
	msh := e.m.Builder.Mesh
	per := d.PerProcess()
	rhs := ms.RHS
	rhs.Zero()

	for col, q := range qs {
		if q.T < 0 || q.T >= d.Nt {
			return fmt.Errorf("predict: query %d: time index %d outside [0,%d)", col, q.T, d.Nt)
		}
		if q.Response < 0 || q.Response >= d.Nv {
			return fmt.Errorf("predict: query %d: response %d outside [0,%d)", col, q.Response, d.Nv)
		}
		if q.Covariates != nil && len(q.Covariates) != d.Nr {
			return fmt.Errorf("predict: query %d: %d covariates, want %d", col, len(q.Covariates), d.Nr)
		}
		ti, bc, err := msh.Locate(q.Point)
		if err != nil {
			return fmt.Errorf("predict: query %d: %w", col, err)
		}
		tri := msh.Tri[ti]
		var mean float64
		for j := 0; j <= q.Response; j++ {
			f := lc.At(q.Response, j)
			if f == 0 {
				continue
			}
			base := j * per
			for v := 0; v < 3; v++ {
				if bc[v] == 0 {
					continue
				}
				idx := e.m.BTAIndex(base + q.T*d.Ns + tri[v])
				w := f * bc[v]
				rhs.Set(idx, col, rhs.At(idx, col)+w)
				mean += w * e.mu[idx]
			}
			for r := 0; r < d.Nr && q.Covariates != nil; r++ {
				c := q.Covariates[r]
				if c == 0 {
					continue
				}
				idx := e.m.BTAIndex(base + d.Ns*d.Nt + r)
				w := f * c
				rhs.Set(idx, col, rhs.At(idx, col)+w)
				mean += w * e.mu[idx]
			}
		}
		means[col] = mean
	}
	return nil
}

// readVariances reads predictive variances back as the half-solved columns'
// squared norms (nonnegative by construction, and invariant to the
// backend's elimination ordering), folding in observation noise when the
// engine is configured for it.
func (e *engine) readVariances(ms *bta.MultiSolve, qs []Query, vars []float64) {
	for i := range qs {
		vars[i] = 0
	}
	rhs := ms.RHS
	dim := ms.Dim()
	for r := 0; r < dim; r++ {
		row := rhs.Row(r)
		for i := range qs {
			vars[i] += row[i] * row[i]
		}
	}
	if e.includeNoise {
		for i, q := range qs {
			vars[i] += 1 / e.theta.TauY[q.Response]
		}
	}
}

// newScratch builds one worker's multi-RHS arena at the engine's coalescing
// width.
func (e *engine) newScratch() *batchScratch {
	n, b, a := e.m.Dims.BTAShape()
	return &batchScratch{ms: bta.NewMultiSolve(n, b, a, e.maxBatch)}
}

// checkOut validates the caller-provided output slices.
func (e *engine) checkOut(qs []Query, means, vars []float64) error {
	if len(means) < len(qs) || len(vars) < len(qs) {
		return fmt.Errorf("predict: output length %d/%d for %d queries", len(means), len(vars), len(qs))
	}
	return nil
}

// Predictor is a goroutine-safe posterior prediction engine bound to one
// fitted model. Construction factorizes Q_c at the mode once; every
// subsequent batch reuses that factor. By default the factor is the
// sequential chain, whose solves are lock-free — callers may fan
// PredictInto out across their own worker goroutines, the contract this
// engine has always had.
//
// WithSolverPartitions switches to the parallel-in-time backend: the mode
// factorization and every solve run across goroutine partitions, which is
// what a single-flight caller wants for latency. The parallel backend
// shares per-partition scratch across calls, so it is strictly
// single-flight: a second concurrent PredictInto fails with
// ErrConcurrentParallel instead of quietly serializing. Replicated serving
// reads from a Snapshot instead.
type Predictor struct {
	engine
	fc    bta.Solver
	seqFc bool        // fc is the sequential Factor: no concurrency guard needed
	busy  atomic.Bool // single-flight guard for the parallel backend

	scratch sync.Pool // *batchScratch
}

// New builds a Predictor from a fitted result: the mode θ* is re-decoded,
// Q_c(θ*) is assembled and factorized (inla.ModeSolver, parallel-in-time
// when the width-1 scheduling plan finds spare cores), and the latent mean
// is copied out of the result so the predictor stays valid however the
// result is used afterwards.
func New(m *model.Model, res *inla.Result, opts ...Option) (*Predictor, error) {
	c := config{maxBatch: 64}
	for _, o := range opts {
		o(&c)
	}
	e, err := newEngine(m, res, &c)
	if err != nil {
		return nil, err
	}
	partitions := 1 // default: sequential, lock-free concurrent solves
	if c.partitionsSet {
		partitions = c.partitions
		if partitions <= 0 {
			// A prediction solve is one evaluation wide: spend the spare
			// cores inside the factorization, like the narrow INLA batches.
			partitions = inla.PlanBatch(1, 0, m.Dims.Nt, false).Partitions
		}
	}
	t, fc, err := inla.ModeSolver(m, res.Theta, partitions)
	if err != nil {
		return nil, err
	}
	p := &Predictor{engine: e, fc: fc}
	p.theta = t
	_, p.seqFc = fc.(*bta.Factor)
	return p, nil
}

// Theta returns the decoded hyperparameter configuration the predictor is
// bound to.
func (p *Predictor) Theta() *model.Theta { return p.theta }

// MaxBatch returns the multi-RHS coalescing width.
func (p *Predictor) MaxBatch() int { return p.maxBatch }

func (p *Predictor) getScratch() *batchScratch {
	if ws, ok := p.scratch.Get().(*batchScratch); ok {
		return ws
	}
	return p.newScratch()
}

// Predict computes posterior predictive means and variances for the
// queries, allocating the result slices. See PredictInto for the
// allocation-free variant services use.
func (p *Predictor) Predict(qs []Query) (means, vars []float64, err error) {
	means = make([]float64, len(qs))
	vars = make([]float64, len(qs))
	if err := p.PredictInto(qs, means, vars); err != nil {
		return nil, nil, err
	}
	return means, vars, nil
}

// PredictInto computes posterior predictive means and variances into the
// caller-provided slices (len(qs) each). Queries are processed in coalesced
// batches of up to MaxBatch columns per triangular sweep; after the pooled
// scratch warms up, the path performs zero heap allocations. On the
// parallel backend a concurrent call fails with ErrConcurrentParallel.
func (p *Predictor) PredictInto(qs []Query, means, vars []float64) error {
	if err := p.checkOut(qs, means, vars); err != nil {
		return err
	}
	if !p.seqFc {
		// The parallel backend's per-partition scratch is shared across
		// calls: admit exactly one flight, fail the rest fast.
		if !p.busy.CompareAndSwap(false, true) {
			return ErrConcurrentParallel
		}
		defer p.busy.Store(false)
	}
	ws := p.getScratch()
	defer p.scratch.Put(ws)
	for lo := 0; lo < len(qs); lo += p.maxBatch {
		hi := lo + p.maxBatch
		if hi > len(qs) {
			hi = len(qs)
		}
		if err := p.predictBatch(ws, qs[lo:hi], means[lo:hi], vars[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// predictBatch fills one φ column per query, half-solves all columns at
// once, and reads the variances back as column squared norms.
func (p *Predictor) predictBatch(ws *batchScratch, qs []Query, means, vars []float64) error {
	// Narrow the workspace to the batch width: a partially filled batch
	// sweeps only the columns it uses.
	ms := ws.ms.Narrow(len(qs))
	if err := p.fillBatch(ms, qs, means); err != nil {
		return err
	}
	// One BLAS-3 half solve for the whole batch: columns become L̃⁻¹φ.
	p.fc.ForwardSolveMultiInto(ms)
	p.readVariances(ms, qs, vars)
	return nil
}
