package bta

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// TestReducedEngineGrid sweeps the partitioned factor against the
// sequential backend: partitions {2,3,4,5,6,11} × arrowhead {0,1,4} at an odd
// block count, checking LogDet, Solve and SelectedInversion to 1e-10. The
// reduced system grows from 2 blocks (P = 2) to 20 (P = 11); every one is
// factorized by the one-partition Factor over the assembled storage.
func TestReducedEngineGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const n, b = 25, 2
	for _, a := range []int{0, 1, 4} {
		m := randBTA(rng, n, b, a)
		seq, err := Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		rhs0 := randVec(rng, m.Dim())
		want := append([]float64(nil), rhs0...)
		seq.Solve(want)
		wantSig, err := seq.SelectedInversion()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 3, 4, 5, 6, 11} {
			pf, err := NewParallelFactor(n, b, a, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := pf.Refactorize(m); err != nil {
				t.Fatalf("a=%d p=%d: %v", a, p, err)
			}
			if d := math.Abs(pf.LogDet() - seq.LogDet()); d > equivTol*(1+math.Abs(seq.LogDet())) {
				t.Fatalf("a=%d p=%d: LogDet %v want %v", a, p, pf.LogDet(), seq.LogDet())
			}
			got := append([]float64(nil), rhs0...)
			pf.Solve(got)
			for i := range got {
				if math.Abs(got[i]-want[i]) > equivTol {
					t.Fatalf("a=%d p=%d: Solve[%d] = %v want %v", a, p, i, got[i], want[i])
				}
			}
			gotSig, err := pf.SelectedInversion()
			if err != nil {
				t.Fatalf("a=%d p=%d: selinv: %v", a, p, err)
			}
			if !gotSig.ToDense().Equal(wantSig.ToDense(), equivTol) {
				t.Fatalf("a=%d p=%d: selected inverse mismatch", a, p)
			}
		}
	}
}

// TestReducedEngineNonSPDRecovery: failure/recovery cycles at P = 4 and
// P = 5 (reduced systems of 6 and 8 blocks) — both an interior
// failure (mid-elimination with fill blocks in flight) and a reduced-system
// failure (all partitions succeed, the reduced factorization hits the
// indefinite tip) must surface errors, keep the construction-time fill
// chains, and leave the factor exact afterwards.
func TestReducedEngineNonSPDRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	good := randBTA(rng, 23, 3, 2)
	bad := good.Clone()
	bad.Diag[11].Set(0, 0, -5)
	badTip := good.Clone()
	badTip.Tip.Set(0, 0, -5)

	seq, err := Factorize(good)
	if err != nil {
		t.Fatal(err)
	}
	wantSig, err := seq.SelectedInversion()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, 5} {
		pf, err := NewParallelFactor(23, 3, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		chainLens := make([]int, len(pf.ps))
		for r, ps := range pf.ps {
			chainLens[r] = len(ps.chain)
		}
		for cycle := 0; cycle < 3; cycle++ {
			if err := pf.Refactorize(bad); err == nil {
				t.Fatalf("P=%d: non-SPD interior must fail", p)
			}
			if err := pf.Refactorize(badTip); err == nil {
				t.Fatalf("P=%d: non-SPD tip must fail", p)
			}
			if err := pf.Refactorize(good); err != nil {
				t.Fatalf("P=%d cycle %d: recovery: %v", p, cycle, err)
			}
			gotSig, err := pf.SelectedInversion()
			if err != nil {
				t.Fatalf("P=%d cycle %d: %v", p, cycle, err)
			}
			if !gotSig.ToDense().Equal(wantSig.ToDense(), equivTol) {
				t.Fatalf("P=%d cycle %d: selected inverse drifted after failures", p, cycle)
			}
			for r, ps := range pf.ps {
				if len(ps.chain) != chainLens[r] || ps.chainUsed > len(ps.chain) {
					t.Fatalf("P=%d cycle %d: partition %d chain %d → %d (used %d)",
						p, cycle, r, chainLens[r], len(ps.chain), ps.chainUsed)
				}
			}
		}
	}
}

// TestReducedEngineAllocFree extends the zero-allocation pin to the reduced
// system at P = 4 and P = 5: its factor draws everything from
// construction-time storage, and a failed factorization in the warm-up
// cannot poison the scratch into reallocating.
func TestReducedEngineAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode alloc counts are meaningless")
	}
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(85))
	const n, b, a = 24, 8, 3
	m := randBTA(rng, n, b, a)
	bad := m.Clone()
	bad.Diag[11].Set(0, 0, -5)
	badTip := m.Clone()
	badTip.Tip.Set(0, 0, -5)
	rhs0 := randVec(rng, m.Dim())
	for _, p := range []int{4, 5} {
		pf, err := NewParallelFactor(n, b, a, p)
		if err != nil {
			t.Fatal(err)
		}
		sig := NewMatrix(n, b, a)
		rhs := make([]float64, m.Dim())
		if pf.Refactorize(bad) == nil || pf.Refactorize(badTip) == nil {
			t.Fatalf("P=%d: non-SPD input must fail", p)
		}
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
			t.Fatalf("P=%d: cycle allocates %.1f objects per run, want 0", p, allocs)
		}
	}
}
