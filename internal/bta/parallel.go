package bta

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/sched"
)

// ParallelFactor is the shared-memory parallel-in-time BTA solver: the
// partitioned driver with every partition owned and no communicator. The nt
// diagonal blocks are split into P contiguous partitions (PartitionBlocks);
// Refactorize eliminates every partition's interior blocks concurrently
// (two-sided for non-first partitions), then factorizes the 2P−2-block
// reduced boundary system sequentially with the one-partition Factor, as
// DistFactor does on rank 0. Solves and the selected inversion follow the
// same interior-parallel / sequential-reduced structure. All partitions
// share the factor's block storage and the reduced system is assembled by
// plain block copies; every operation of the Solver surface is
// allocation-free after warmup.
//
// A ParallelFactor is not safe for concurrent use of the same instance
// (exactly like Factor); different instances may run concurrently.
type ParallelFactor struct {
	partFactor
	ws      *Matrix  // P > 1: factor block storage, the Workspace
	mem     LocalBTA // ws as the one slice over every block
	sigView LocalBTA // the caller's Σ output viewed as one slice
}

// NewParallelFactor allocates a parallel-in-time factor for the BTA shape
// (n, b, a) over p partitions (Partitions' split) on the shared executor.
// p = 1 degenerates to the sequential POBTAF chain behind the same
// interface. Partition counts the time dimension cannot support
// (n < 2p−2) are an error; MaxPartitions gives the bound.
func NewParallelFactor(n, b, a, p int) (*ParallelFactor, error) {
	parts, err := Partitions(n, max(p, 1))
	if err != nil {
		return nil, err
	}
	return newParallelFactor(n, b, a, parts, nil)
}

// newParallelFactor builds the shared-memory factor over the partition
// list parts, its partition phases on ex (nil = sched.Shared()).
func newParallelFactor(n, b, a int, parts []Partition, ex *sched.Executor) (*ParallelFactor, error) {
	f := &ParallelFactor{}
	if err := f.init(n, b, a, parts, 0, len(parts), ex); err != nil {
		return nil, err
	}
	if f.P > 1 { // P == 1 factorizes in the sequential factor's own storage
		f.ws = NewMatrix(n, b, a)
		f.mem = wholeSlice(f.ws)
	}
	return f, nil
}

// wholeSlice views a full matrix as the one-rank slice over all its blocks.
func wholeSlice(m *Matrix) LocalBTA {
	return LocalBTA{Part: Partition{Lo: 0, Hi: m.N - 1}, NGlobal: m.N, B: m.B, A: m.A,
		Diag: m.Diag, Lower: m.Lower, Arrow: m.Arrow, Tip: m.Tip}
}

// Dim returns the full system dimension.
func (f *ParallelFactor) Dim() int { return f.N*f.B + f.A }

// Refactorize copies m into the Workspace and recomputes the parallel
// factorization there (FactorizeWorkspace). m is not modified. On error
// the factor contents are undefined until the next successful
// factorization.
func (f *ParallelFactor) Refactorize(m *Matrix) error {
	if f.N != m.N || f.B != m.B || f.A != m.A {
		return fmt.Errorf("bta: refactorize shape mismatch: parallel factor (n=%d,b=%d,a=%d), matrix (n=%d,b=%d,a=%d)",
			f.N, f.B, f.A, m.N, m.B, m.A)
	}
	f.Workspace().CopyFrom(m)
	return f.FactorizeWorkspace()
}

// Workspace returns the factor's block storage as a BTA matrix (the
// sequential factor's at P = 1); see Solver.
func (f *ParallelFactor) Workspace() *Matrix {
	if f.P == 1 {
		return f.seq.Workspace()
	}
	return f.ws
}

// FactorizeWorkspace runs the PPOBTAF sweep over the matrix held in the
// Workspace, in place: the driver's caller-refilled-store route, which
// DistFactor takes with its rank's slice.
func (f *ParallelFactor) FactorizeWorkspace() error {
	if f.P == 1 {
		err := f.seq.FactorizeWorkspace()
		if err == nil {
			f.logDet = f.seq.LogDet()
		}
		return err
	}
	return f.refactorize(nil, &f.mem)
}

// LogDet returns log|A|: interior Cholesky diagonals plus the reduced
// factor's log-determinant.
func (f *ParallelFactor) LogDet() float64 { return f.logDet }

// Solve solves A·x = rhs in place of rhs (the PPOBTAS sweeps in shared
// memory): parallel forward elimination over the partition interiors, the
// reduced solve over the boundaries, parallel backward substitution.
func (f *ParallelFactor) Solve(rhs []float64) {
	if len(rhs) < f.Dim() {
		panic(fmt.Sprintf("bta: solve rhs length %d < %d", len(rhs), f.Dim()))
	}
	f.solve(nil, rhs)
}

// SolveLT solves L̃ᵀ·x = x in place for the parallel factor's own Cholesky
// ordering (interiors first, boundaries last). For z ~ N(0, I) the result
// has covariance A⁻¹ — i.i.d. Gaussian vectors are invariant under the
// implicit symmetric permutation — so GMRF sampling works identically
// through either backend.
func (f *ParallelFactor) SolveLT(x []float64) {
	if len(x) < f.Dim() {
		panic(fmt.Sprintf("bta: SolveLT length %d < %d", len(x), f.Dim()))
	}
	if f.P == 1 {
		f.seq.SolveLT(x)
		return
	}
	f.gatherRhs(x, false)
	f.redF.SolveLT(f.redRhs)
	f.scatterRhs(x)
	f.x = x
	f.runPhase(nil, phaseBwd)
	f.x = nil
}

// SelectedInversion computes Σ = A⁻¹ on the BTA pattern into fresh storage.
func (f *ParallelFactor) SelectedInversion() (*Matrix, error) {
	sig := NewMatrix(f.N, f.B, f.A)
	if err := f.SelectedInversionInto(sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// SelectedInversionInto is the shared-memory PPOBTASI: selected inversion
// of the reduced boundary system first, then every partition installs its
// boundary blocks and runs its backward recursion over the interiors
// concurrently. Alloc-free after warmup.
func (f *ParallelFactor) SelectedInversionInto(sig *Matrix) error {
	if sig.N != f.N || sig.B != f.B || sig.A != f.A {
		return fmt.Errorf("bta: selinv output BTA(n=%d,b=%d,a=%d), factor (n=%d,b=%d,a=%d)",
			sig.N, sig.B, sig.A, f.N, f.B, f.A)
	}
	f.sigView = wholeSlice(sig)
	return f.selinv(nil, &f.sigView)
}
