package predict

import (
	"fmt"
	"sync/atomic"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
)

// Snapshot is an immutable, read-only posterior prediction engine: the
// latent posterior mean and the blocks of Σ = Q_c(θ*)⁻¹ a projection row can
// reach, frozen into a value that any number of goroutines query
// concurrently with zero locking. Nothing in it changes after construction
// and a prediction writes only to the caller's output slices, so the read
// path is lock-free and allocation-free by construction.
//
// Snapshots are what concurrent serving wants: N request handlers hammer
// one Snapshot's PredictInto concurrently, and a refit publishes a new Snapshot
// through a Handle swap without blocking in-flight readers (readers that
// loaded the old snapshot finish against it; it then drains to the garbage
// collector with no goroutines to wind down).
type Snapshot struct {
	m     *model.Model
	theta *model.Theta
	mu    []float64 // latent posterior mean, BTA ordering

	// Σ on the support of a projection row: per time step the b×b diagonal
	// block and the a×b arrow block (nil without fixed effects), and the
	// a×a tip. The sub-diagonal blocks of the selected inverse are not kept.
	diag, arrow []*dense.Matrix
	tip         *dense.Matrix

	// Where process j's entries sit in the BTA ordering, read off m.BTAIndex
	// once: node v is entry nodeOff[j]+v of its time block, fixed effect r
	// entry fixedOff[j]+r of the arrow.
	nodeOff, fixedOff []int

	maxBatch     int
	includeNoise bool
}

// NewSnapshot freezes a fitted result into an immutable read-only
// predictor: the mode θ* is re-decoded, and the latent mean and the blocks
// of Σ a projection row reads are copied out of the result, so the snapshot
// stays valid however the result is used afterwards. A result without Σ —
// decoded from a checkpoint, or built by hand — gets it from
// inla.ModeSigma, the sequential selected inversion Fit itself ran, so a
// snapshot rebuilt from a stored result answers with the same bits as the
// one frozen at fit time.
func NewSnapshot(m *model.Model, res *inla.Result, opts ...Option) (*Snapshot, error) {
	c := config{maxBatch: 64}
	for _, o := range opts {
		o(&c)
	}
	if len(res.Mu) != m.Dims.Total() {
		return nil, fmt.Errorf("predict: latent mean length %d, want %d", len(res.Mu), m.Dims.Total())
	}
	n, b, a := m.Dims.BTAShape()
	if sig := res.Sigma; sig != nil && (sig.N != n || sig.B != b || sig.A != a ||
		len(sig.Diag) != n || a > 0 && (len(sig.Arrow) != n || sig.Tip == nil)) {
		return nil, fmt.Errorf("predict: Σ of BTA shape (%d, %d, %d) with %d diagonal blocks, want (%d, %d, %d)",
			sig.N, sig.B, sig.A, len(sig.Diag), n, b, a)
	}
	if c.maxBatch < 1 {
		return nil, fmt.Errorf("predict: max batch %d < 1", c.maxBatch)
	}
	if c.includeNoise && m.Lik != model.LikGaussian {
		return nil, fmt.Errorf("%w (got %v)", ErrUnsupportedLikelihood, m.Lik)
	}
	t, sig, err := frozenSigma(m, res)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		m: m, theta: t, mu: append([]float64(nil), res.Mu...),
		diag: sig.Diag, arrow: sig.Arrow, tip: sig.Tip,
		nodeOff: make([]int, m.Dims.Nv), fixedOff: make([]int, m.Dims.Nv),
		maxBatch: c.maxBatch, includeNoise: c.includeNoise,
	}
	for j := range s.nodeOff {
		s.nodeOff[j] = m.BTAIndex(j * m.Dims.PerProcess())
		if m.Dims.Nr > 0 {
			s.fixedOff[j] = m.BTAIndex(j*m.Dims.PerProcess()+m.Dims.Ns*m.Dims.Nt) - n*b
		}
	}
	return s, nil
}

// frozenSigma decodes θ* and returns the blocks of Σ a snapshot keeps, in
// storage nothing else holds: a copy of the result's Σ, or inla.ModeSigma's
// fresh one when the result carries none.
func frozenSigma(m *model.Model, res *inla.Result) (*model.Theta, *bta.Matrix, error) {
	src := res.Sigma
	if src == nil {
		return inla.ModeSigma(m, res.Theta)
	}
	t, err := m.DecodeTheta(res.Theta)
	if err != nil {
		return nil, nil, err
	}
	sig := &bta.Matrix{N: src.N, B: src.B, A: src.A,
		Diag: make([]*dense.Matrix, len(src.Diag)), Arrow: make([]*dense.Matrix, len(src.Arrow))}
	for i, blk := range src.Diag {
		sig.Diag[i] = blk.Clone()
	}
	for i, blk := range src.Arrow {
		sig.Arrow[i] = blk.Clone()
	}
	if src.Tip != nil {
		sig.Tip = src.Tip.Clone()
	}
	return t, sig, nil
}

// Theta returns the decoded hyperparameter configuration the snapshot is
// frozen at.
func (s *Snapshot) Theta() *model.Theta { return s.theta }

// MaxBatch returns the WithMaxBatch value; nothing in the snapshot reads
// it.
func (s *Snapshot) MaxBatch() int { return s.maxBatch }

// Predict computes posterior predictive means and variances for the
// queries, allocating the result slices. See PredictInto for the
// allocation-free variant services use.
func (s *Snapshot) Predict(qs []Query) (means, vars []float64, err error) {
	means = make([]float64, len(qs))
	vars = make([]float64, len(qs))
	if err := s.PredictInto(qs, means, vars); err != nil {
		return nil, nil, err
	}
	return means, vars, nil
}

// PredictInto computes posterior predictive means and variances into the
// caller-provided slices (len(qs) each). The path acquires no lock and
// performs no heap allocation: any number of goroutines may call it
// concurrently.
func (s *Snapshot) PredictInto(qs []Query, means, vars []float64) error {
	if len(means) < len(qs) || len(vars) < len(qs) {
		return fmt.Errorf("predict: output length %d/%d for %d queries", len(means), len(vars), len(qs))
	}
	for i := range qs {
		var err error
		if means[i], vars[i], err = s.predictOne(&qs[i]); err != nil {
			return fmt.Errorf("predict: query %d: %w", i, err)
		}
	}
	return nil
}

// predictOne answers one query: mean = φᵀμ and variance = φᵀΣφ with φ =
// Σ_j Λ[k,j]·φ_j, φ_j the row of process j alone, expanded over process
// pairs with Σ's symmetry: Σ_j Λ_kj²·φ_jᵀΣφ_j + 2 Σ_{i<j} Λ_kj Λ_ki·φ_jᵀΣφ_i.
func (s *Snapshot) predictOne(q *Query) (mean, variance float64, err error) {
	d := s.m.Dims
	if q.T < 0 || q.T >= d.Nt {
		return 0, 0, fmt.Errorf("time index %d outside [0,%d)", q.T, d.Nt)
	}
	if q.Response < 0 || q.Response >= d.Nv {
		return 0, 0, fmt.Errorf("response %d outside [0,%d)", q.Response, d.Nv)
	}
	if q.Covariates != nil && len(q.Covariates) != d.Nr {
		return 0, 0, fmt.Errorf("%d covariates, want %d", len(q.Covariates), d.Nr)
	}
	msh := s.m.Builder.Mesh
	ti, bc, err := msh.Locate(q.Point)
	if err != nil {
		return 0, 0, err
	}
	tri := msh.Tri[ti]
	lc := s.theta.Lambda.CoregView()
	// μ over the row's support: time block q.T and the arrow.
	n, b, _ := d.BTAShape()
	field, fixed := s.mu[q.T*b:(q.T+1)*b], s.mu[n*b:]

	for j := 0; j <= q.Response; j++ {
		f := lc.At(q.Response, j)
		if f == 0 {
			continue
		}
		for v := 0; v < 3; v++ {
			if bc[v] != 0 {
				mean += f * bc[v] * field[s.nodeOff[j]+tri[v]]
			}
		}
		for r, c := range q.Covariates {
			if c != 0 {
				mean += f * c * fixed[s.fixedOff[j]+r]
			}
		}
		variance += f * f * s.pairForm(q, j, j, &tri, &bc)
		for k := 0; k < j; k++ {
			if g := lc.At(q.Response, k); g != 0 {
				variance += 2 * f * g * s.pairForm(q, j, k, &tri, &bc)
			}
		}
	}
	if s.includeNoise {
		variance += 1 / s.theta.TauY[q.Response]
	}
	return mean, variance, nil
}

// pairForm returns φ_jᵀΣφ_k for the single-process rows of processes j and
// k at the query's location: the mesh-node weights bc on tri at time q.T and
// the covariates on the process's fixed effects, at the same block-local
// indices predictOne reads μ at.
func (s *Snapshot) pairForm(q *Query, j, k int, tri *[3]int, bc *[3]float64) float64 {
	nj, nk := s.nodeOff[j], s.nodeOff[k]
	dg := s.diag[q.T]
	var sum float64
	for v := 0; v < 3; v++ {
		row := dg.Row(nj + tri[v])
		for w := 0; w < 3; w++ {
			sum += bc[v] * bc[w] * row[nk+tri[w]]
		}
	}
	// No covariates — a nil or an empty slice, the latter being all a model
	// without fixed effects (whose Σ has no arrow blocks) accepts.
	if len(q.Covariates) == 0 {
		return sum
	}
	fj, fk := s.fixedOff[j], s.fixedOff[k]
	ar := s.arrow[q.T]
	for r, c := range q.Covariates {
		rowJ, rowK, tipJ := ar.Row(fj+r), ar.Row(fk+r), s.tip.Row(fj+r)
		for v := 0; v < 3; v++ {
			sum += c * bc[v] * (rowJ[nk+tri[v]] + rowK[nj+tri[v]])
		}
		for r2, c2 := range q.Covariates {
			sum += c * c2 * tipJ[fk+r2]
		}
	}
	return sum
}

// Handle is an atomically swappable reference to the current Snapshot of a
// model: the publication point between refits (writers) and request
// handlers (readers). Readers Load the current snapshot with one atomic
// pointer read and run an entire call against it; a refit Swaps the new
// snapshot in without blocking anyone — in-flight reads complete against
// the snapshot they loaded, and the old snapshot simply drains to the
// garbage collector (there are no goroutines to stop).
type Handle struct {
	p atomic.Pointer[Snapshot]
}

// NewHandle publishes an initial snapshot.
func NewHandle(s *Snapshot) *Handle {
	h := &Handle{}
	h.p.Store(s)
	return h
}

// Load returns the currently published snapshot.
func (h *Handle) Load() *Snapshot { return h.p.Load() }

// Swap publishes a new snapshot and returns the previous one. In-flight
// readers keep the snapshot they already loaded; new reads see the
// replacement.
func (h *Handle) Swap(s *Snapshot) *Snapshot { return h.p.Swap(s) }

// Predict answers against the currently published snapshot, allocating the
// result slices.
func (h *Handle) Predict(qs []Query) (means, vars []float64, err error) {
	return h.Load().Predict(qs)
}

// PredictInto answers against the currently published snapshot: one atomic
// load, then the snapshot's lock-free batched path. The entire call runs
// against a single snapshot — a concurrent Swap never tears a batch.
func (h *Handle) PredictInto(qs []Query, means, vars []float64) error {
	return h.Load().PredictInto(qs, means, vars)
}
