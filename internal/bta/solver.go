package bta

// Solver is the common surface of the structured BTA solver backends: the
// strictly sequential Factor (POBTAF/POBTAS/POBTASI over all n time blocks,
// the one-partition run of the partition cores) and the shared-memory
// parallel-in-time ParallelFactor (PPOBTAF/PPOBTAS/PPOBTASI over a
// time-domain partitioning run on goroutines). Everything
// the INLA pipeline needs from a factorization — refilling it per
// θ-evaluation, triangular solves, log-determinant, and selected
// inversion — goes through this interface, so the evaluation scheduler can
// pick the backend per batch shape without the callers knowing which one
// they got. (Multi-RHS solves exist on the sequential Factor only.) The
// INLA evaluations assemble Q_c straight into the solver's Workspace and
// factorize it there; Refactorize is the same factorization after a copy.
//
// All implementations are alloc-free after warmup on the factorize /
// Solve / LogDet / SelectedInversionInto cycle, and none is safe for
// concurrent use of the *same* instance (use one Solver per worker, exactly
// like Factor).
type Solver interface {
	// Workspace returns the matrix storage the solver factorizes in place:
	// writing Q into it and calling FactorizeWorkspace factorizes Q without
	// a copy. It holds the factor afterwards, so every position must be
	// rewritten before the next factorization.
	Workspace() *Matrix
	// FactorizeWorkspace recomputes the factorization from the Workspace's
	// contents. On error (non-SPD input) the factor contents are undefined
	// until the next successful factorization; the solver itself stays
	// reusable.
	FactorizeWorkspace() error
	// Refactorize copies m into the Workspace and runs FactorizeWorkspace;
	// m is not modified.
	Refactorize(m *Matrix) error
	// Dim returns the full system dimension n·b + a.
	Dim() int
	// LogDet returns log|A| of the last successfully factorized matrix.
	LogDet() float64
	// Solve solves A·x = rhs in place of rhs.
	Solve(rhs []float64)
	// SolveLT solves L̃ᵀ·x = x in place for the backend's own Cholesky
	// factor L̃ (GMRF sampling: x = L̃⁻ᵀz has covariance A⁻¹ for z ~ N(0,I),
	// whichever elimination ordering the backend uses).
	SolveLT(x []float64)
	// SelectedInversionInto computes the blocks of Σ = A⁻¹ on the BTA
	// pattern into caller-owned storage, without allocating after warmup.
	SelectedInversionInto(sig *Matrix) error
	// SelectedInversion is the allocating convenience wrapper.
	SelectedInversion() (*Matrix, error)
}

var (
	_ Solver = (*Factor)(nil)
	_ Solver = (*ParallelFactor)(nil)
)

// NewSolver builds a solver backend for the BTA shape: the sequential
// Factor for partitions ≤ 1, the shared-memory parallel-in-time
// ParallelFactor otherwise. partitions is clamped to
// MaxUsefulPartitions(n) rather than rejected, so callers can pass a core
// budget directly — a budget the time dimension cannot absorb degrades to
// fewer partitions, ultimately to the sequential chain, never to a
// partitioning slower than it.
func NewSolver(n, b, a, partitions int) (Solver, error) {
	if mx := MaxUsefulPartitions(n); partitions > mx {
		partitions = mx
	}
	if partitions <= 1 {
		return NewFactor(n, b, a), nil
	}
	return NewParallelFactor(n, b, a, partitions)
}
