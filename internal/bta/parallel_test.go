package bta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sched"
)

// equivTol is the agreement tolerance between the sequential and parallel
// backends demanded by the acceptance criteria.
const equivTol = 1e-10

// seqParallelPair factorizes the same matrix through both backends.
func seqParallelPair(t *testing.T, m *Matrix, p int) (*Factor, *ParallelFactor) {
	t.Helper()
	seq, err := Factorize(m)
	if err != nil {
		t.Fatalf("sequential factorization: %v", err)
	}
	pf, err := NewParallelFactor(m.N, m.B, m.A, p)
	if err != nil {
		t.Fatalf("NewParallelFactor(p=%d): %v", p, err)
	}
	if err := pf.Refactorize(m); err != nil {
		t.Fatalf("parallel refactorize (p=%d): %v", p, err)
	}
	return seq, pf
}

// TestParallelFactorMatchesSequential sweeps the acceptance grid: partition
// counts {1,2,3,5}, odd block counts, and arrowhead sizes {0,1,4}, checking
// Solve, LogDet and SelectedInversion agreement to 1e-10.
func TestParallelFactorMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, p := range []int{1, 2, 3, 5} {
		for _, a := range []int{0, 1, 4} {
			for _, n := range []int{9, 11} {
				b := 3
				m := randBTA(rng, n, b, a)
				seq, pf := seqParallelPair(t, m, p)

				// LogDet.
				if d := math.Abs(seq.LogDet() - pf.LogDet()); d > equivTol*(1+math.Abs(seq.LogDet())) {
					t.Fatalf("p=%d a=%d n=%d: LogDet %v vs %v", p, a, n, pf.LogDet(), seq.LogDet())
				}

				// Solve.
				rhs0 := randVec(rng, m.Dim())
				want := append([]float64(nil), rhs0...)
				seq.Solve(want)
				got := append([]float64(nil), rhs0...)
				pf.Solve(got)
				for i := range got {
					if math.Abs(got[i]-want[i]) > equivTol {
						t.Fatalf("p=%d a=%d n=%d: Solve[%d] = %v want %v", p, a, n, i, got[i], want[i])
					}
				}

				// SelectedInversion, every block on the pattern.
				wantSig, err := seq.SelectedInversion()
				if err != nil {
					t.Fatal(err)
				}
				gotSig, err := pf.SelectedInversion()
				if err != nil {
					t.Fatalf("p=%d a=%d n=%d: parallel selinv: %v", p, a, n, err)
				}
				for i := 0; i < n; i++ {
					if !gotSig.Diag[i].Equal(wantSig.Diag[i], equivTol) {
						t.Fatalf("p=%d a=%d n=%d: Σ diag block %d mismatch", p, a, n, i)
					}
					if i < n-1 && !gotSig.Lower[i].Equal(wantSig.Lower[i], equivTol) {
						t.Fatalf("p=%d a=%d n=%d: Σ lower block %d mismatch", p, a, n, i)
					}
					if a > 0 && !gotSig.Arrow[i].Equal(wantSig.Arrow[i], equivTol) {
						t.Fatalf("p=%d a=%d n=%d: Σ arrow block %d mismatch", p, a, n, i)
					}
				}
				if a > 0 && !gotSig.Tip.Equal(wantSig.Tip, equivTol) {
					t.Fatalf("p=%d a=%d n=%d: Σ tip mismatch", p, a, n)
				}
			}
		}
	}
}

// TestParallelFactorTinyShapes exercises the degenerate partitionings:
// size-1 first/last partitions and size-2 (interior-free) middle partitions.
func TestParallelFactorTinyShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct{ n, p, a int }{
		{2, 2, 1}, {3, 2, 0}, {4, 3, 2}, {5, 3, 1}, {6, 4, 2}, {8, 5, 1},
	} {
		m := randBTA(rng, tc.n, 2, tc.a)
		seq, pf := seqParallelPair(t, m, tc.p)
		rhs0 := randVec(rng, m.Dim())
		want := append([]float64(nil), rhs0...)
		seq.Solve(want)
		got := append([]float64(nil), rhs0...)
		pf.Solve(got)
		for i := range got {
			if math.Abs(got[i]-want[i]) > equivTol {
				t.Fatalf("%+v: Solve[%d] = %v want %v", tc, i, got[i], want[i])
			}
		}
		wantSig, err := seq.SelectedInversion()
		if err != nil {
			t.Fatal(err)
		}
		gotSig, err := pf.SelectedInversion()
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !gotSig.ToDense().Equal(wantSig.ToDense(), equivTol) {
			t.Fatalf("%+v: selected inverse mismatch", tc)
		}
	}
}

// TestParallelSolveLTCovariance verifies the sampling contract: applying
// SolveLT to every unit vector and summing the outer products must
// reproduce A⁻¹ for any elimination ordering, since Σ_i (L̃⁻ᵀe_i)(L̃⁻ᵀe_i)ᵀ
// = L̃⁻ᵀL̃⁻¹ up to the factor's implicit symmetric permutation.
func TestParallelSolveLTCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := randBTA(rng, 5, 2, 1)
	_, pf := seqParallelPair(t, m, 3)
	dim := m.Dim()
	cov := dense.New(dim, dim)
	x := make([]float64, dim)
	for i := 0; i < dim; i++ {
		for j := range x {
			x[j] = 0
		}
		x[i] = 1
		pf.SolveLT(x)
		for r := 0; r < dim; r++ {
			for c := 0; c < dim; c++ {
				cov.Set(r, c, cov.At(r, c)+x[r]*x[c])
			}
		}
	}
	inv, err := dense.Inverse(m.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Equal(inv, 1e-8) {
		t.Fatal("SolveLT outer-product sum does not reproduce A⁻¹")
	}
}

// TestParallelRefactorizeReuse: refilling the same parallel factor from
// different matrices must not leak state between factorizations.
func TestParallelRefactorizeReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pf, err := NewParallelFactor(9, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		m := randBTA(rng, 9, 3, 2)
		seq, err := Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.Refactorize(m); err != nil {
			t.Fatal(err)
		}
		rhs0 := randVec(rng, m.Dim())
		want := append([]float64(nil), rhs0...)
		seq.Solve(want)
		got := append([]float64(nil), rhs0...)
		pf.Solve(got)
		for i := range got {
			if math.Abs(got[i]-want[i]) > equivTol {
				t.Fatalf("trial %d: Solve[%d] = %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestParallelFactorNonSPDRecovery: a failed (infeasible-θ) factorization
// must surface an error, keep all preallocated scratch, and leave the
// factor fully usable — and still exact — on the next successful
// Refactorize, through many failure/success cycles.
func TestParallelFactorNonSPDRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	good := randBTA(rng, 9, 3, 2)
	// Indefinite in a middle partition's interior: partition elimination
	// fails mid-sweep with fill blocks in flight.
	bad := good.Clone()
	bad.Diag[4].Set(0, 0, -5)
	// Indefinite only in the arrowhead: every partition elimination
	// succeeds and the failure surfaces in the reduced boundary system.
	badTip := good.Clone()
	badTip.Tip.Set(0, 0, -5)

	pf, err := NewParallelFactor(9, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Factorize(good)
	if err != nil {
		t.Fatal(err)
	}
	wantSig, err := seq.SelectedInversion()
	if err != nil {
		t.Fatal(err)
	}
	chainLens := make([]int, len(pf.ps))
	for r, ps := range pf.ps {
		chainLens[r] = len(ps.chain)
	}
	for cycle := 0; cycle < 4; cycle++ {
		if err := pf.Refactorize(bad); err == nil {
			t.Fatal("non-SPD interior must fail to factorize")
		}
		if err := pf.Refactorize(badTip); err == nil {
			t.Fatal("non-SPD reduced system must fail to factorize")
		}
		if err := pf.Refactorize(good); err != nil {
			t.Fatalf("cycle %d: recovery refactorize: %v", cycle, err)
		}
		gotSig, err := pf.SelectedInversion()
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if !gotSig.ToDense().Equal(wantSig.ToDense(), equivTol) {
			t.Fatalf("cycle %d: selected inverse drifted after failures", cycle)
		}
		// The preallocated fill chains must neither grow nor leak across
		// failure cycles.
		for r, ps := range pf.ps {
			if len(ps.chain) != chainLens[r] {
				t.Fatalf("cycle %d: partition %d chain length changed %d → %d",
					cycle, r, chainLens[r], len(ps.chain))
			}
			if ps.chainUsed > len(ps.chain) {
				t.Fatalf("cycle %d: partition %d chain overrun", cycle, r)
			}
		}
	}
}

// TestParallelFactorAllocFree pins the acceptance criterion: after warmup,
// a full Refactorize + Solve + LogDet + SelectedInversionInto cycle — one
// INLA θ-evaluation plus posterior extraction — performs zero heap
// allocations, goroutine fan-out included.
func TestParallelFactorAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(47))
	m := randBTA(rng, 12, 16, 3)
	pf, err := NewParallelFactor(12, 16, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sig := NewMatrix(12, 16, 3)
	rhs0 := randVec(rng, m.Dim())
	rhs := make([]float64, m.Dim())
	// Warm-up: factor, solve, selected inversion.
	if err := pf.Refactorize(m); err != nil {
		t.Fatal(err)
	}
	copy(rhs, rhs0)
	pf.Solve(rhs)
	if err := pf.SelectedInversionInto(sig); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := pf.Refactorize(m); err != nil {
			t.Fatal(err)
		}
		copy(rhs, rhs0)
		pf.Solve(rhs)
		_ = pf.LogDet()
		if err := pf.SelectedInversionInto(sig); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("parallel solver cycle allocates %.1f objects per run in steady state, want 0", allocs)
	}
}

// TestNewSolverClampsPartitions: the Solver constructor clamps an
// oversized core budget to the useful width instead of failing — down to
// the sequential backend when the time dimension is too shallow for
// partitioning to pay at all.
func TestNewSolverClampsPartitions(t *testing.T) {
	// 16 blocks absorb at most 16/4 = 4 useful partitions.
	s, err := NewSolver(16, 2, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	pf, ok := s.(*ParallelFactor)
	if !ok {
		t.Fatalf("expected a ParallelFactor, got %T", s)
	}
	if pf.P != MaxUsefulPartitions(16) {
		t.Fatalf("partitions %d, want the useful bound %d", pf.P, MaxUsefulPartitions(16))
	}
	// 4 blocks over 64 requested partitions would be all boundaries and no
	// interiors — strictly slower than sequential, so it degrades to the
	// sequential chain.
	s, err = NewSolver(4, 2, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Factor); !ok {
		t.Fatalf("expected the sequential Factor for an unpartitionable shape, got %T", s)
	}
	s, err = NewSolver(16, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Factor); !ok {
		t.Fatalf("expected the sequential Factor for p=1, got %T", s)
	}
}

// TestParallelFactorDeterministicAcrossExecutorWidths: the shared-memory
// factor's partition phases give the same bits on an 8-worker executor,
// where partition tasks run on different workers and steal, as on a
// zero-worker one, where the caller alone runs every task — the factor,
// the log-determinant, a solve and every Σ block, at P = 3 and at P = 5
// (an 8-block reduced system) over nt = 20, with one and two arrow
// columns. Tip deltas fold in partition order and every other write set is
// disjoint, so the arithmetic does not depend on which goroutine ran a
// task.
func TestParallelFactorDeterministicAcrossExecutorWidths(t *testing.T) {
	serial, wide := sched.New(0), sched.New(8)
	defer serial.Close()
	defer wide.Close()
	const n, b = 20, 3
	rng := rand.New(rand.NewSource(31))
	for _, a := range []int{1, 2} {
		m := randBTA(rng, n, b, a)
		rhs := randVec(rng, m.Dim())
		for _, p := range []int{3, 5} {
			parts, err := Partitions(n, p)
			if err != nil {
				t.Fatal(err)
			}
			type run struct {
				f   *ParallelFactor
				x   []float64
				sig *Matrix
			}
			on := func(ex *sched.Executor) run {
				f, err := newParallelFactor(n, b, a, parts, ex)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Refactorize(m); err != nil {
					t.Fatalf("a=%d P=%d: %v", a, p, err)
				}
				r := run{f: f, x: append([]float64(nil), rhs...), sig: NewMatrix(n, b, a)}
				f.Solve(r.x)
				if err := f.SelectedInversionInto(r.sig); err != nil {
					t.Fatalf("a=%d P=%d: %v", a, p, err)
				}
				return r
			}
			want, got := on(serial), on(wide)
			label := fmt.Sprintf("a=%d P=%d", a, p)
			if err := sameMatrix(label+" factor", got.f.Workspace(), want.f.Workspace()); err != nil {
				t.Fatal(err)
			}
			if got.f.LogDet() != want.f.LogDet() {
				t.Fatalf("%s: logdet %v on 8 workers, %v on 0", label, got.f.LogDet(), want.f.LogDet())
			}
			for i := range want.x {
				if got.x[i] != want.x[i] {
					t.Fatalf("%s: solve[%d] = %v on 8 workers, %v on 0", label, i, got.x[i], want.x[i])
				}
			}
			if err := sameMatrix(label+" Σ", got.sig, want.sig); err != nil {
				t.Fatal(err)
			}
		}
	}
}
