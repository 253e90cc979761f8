package bta

import "github.com/dalia-hpc/dalia/internal/sched"

// reducedCrossover is the smallest reduced-system block count worth
// re-entering the partition machinery on. Below it (P < 5 partitions, so a
// reduced system of fewer than 8 blocks) the sequential POBTAF chain beats
// a nested gang, and the engine takes the sequential path bit for bit.
const reducedCrossover = 8

// nestedReducedWidth returns the partition count a nested gang over an
// nr-block reduced system should run at (0 = don't nest).
func nestedReducedWidth(nr int) int {
	if nr < reducedCrossover {
		return 0
	}
	// nr/4 is MaxUsefulPartitions' diminishing-returns policy; once past
	// the crossover a gang of at least 2 always beats the sequential sweep
	// the caller would otherwise idle through.
	p := nr / 4
	if p < 2 {
		p = 2
	}
	if mx := MaxPartitions(nr); p > mx {
		p = mx
	}
	return p
}

// reducedEngine factorizes and solves the reduced boundary system of the
// partitioned driver, either sequentially in place of the assembled storage or
// through one nested ParallelFactor when the system is wide enough
// (reducedCrossover) to deserve its own partition gang. All storage —
// including the nested factor — is built once at construction, so repeated
// cycles stay allocation-free.
type reducedEngine struct {
	seqF   *Factor         // factor view over the assembled storage (sequential mode)
	nested *ParallelFactor // non-nil when the engine nests
}

// newReducedEngine builds the engine for the reduced system assembled into
// red. The sequential mode factorizes red's blocks in place (seqF is a
// factor view over that same storage); the nested mode copies red into the
// nested factor's own storage on every Refactorize, leaving red intact as
// the assembly staging area. The nested gang runs on ex, the parent's
// executor (nil = sched.Shared()), so a factor pinned to a private executor
// stays on it one level down. nest = false (the nested factor's own engine)
// keeps the engine sequential whatever its size: nesting is one level deep.
func newReducedEngine(red *Matrix, ex *sched.Executor, nest bool) (*reducedEngine, error) {
	e := &reducedEngine{seqF: newFactor(red)}
	if p := nestedReducedWidth(red.N); nest && p > 0 {
		nested, err := newParallelFactor(red.N, red.B, red.A, ParallelOptions{Partitions: p, Executor: ex}, false)
		if err != nil {
			return nil, err
		}
		e.nested = nested
	}
	return e, nil
}

// factorize computes the reduced factorization from the fully assembled
// system in red. Sequential mode consumes red's blocks as the factor
// storage; nested mode reads them into the nested factor.
func (e *reducedEngine) factorize(red *Matrix) error {
	if e.nested != nil {
		return e.nested.Refactorize(red)
	}
	return e.seqF.factorize()
}

// logDet returns the reduced factor's log-determinant contribution.
func (e *reducedEngine) logDet() float64 {
	if e.nested != nil {
		return e.nested.LogDet()
	}
	return e.seqF.LogDet()
}

// solve solves the reduced system in place of rhs.
func (e *reducedEngine) solve(rhs []float64) {
	if e.nested != nil {
		e.nested.Solve(rhs)
		return
	}
	e.seqF.Solve(rhs)
}

// solveLT applies the backend's L̃⁻ᵀ to x in place (the GMRF-sampling
// primitive; each nesting level contributes its own symmetric permutation,
// under which i.i.d. Gaussian inputs are invariant).
func (e *reducedEngine) solveLT(x []float64) {
	if e.nested != nil {
		e.nested.SolveLT(x)
		return
	}
	e.seqF.SolveLT(x)
}

// selinvInto computes the reduced selected inverse on the BTA pattern.
func (e *reducedEngine) selinvInto(sig *Matrix) error {
	if e.nested != nil {
		return e.nested.SelectedInversionInto(sig)
	}
	return e.seqF.SelectedInversionInto(sig)
}
