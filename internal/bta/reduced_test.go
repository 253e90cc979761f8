package bta

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sched"
)

// TestReducedEngineGrid sweeps the reduced-system engine against the
// sequential backend: partitions {2,3,4,5,6,11} × arrowhead {0,1,4} at an odd
// block count, checking LogDet, Solve and SelectedInversion to 1e-10. P ≤ 4
// solves the reduced system sequentially, P ≥ 5 on the nested gang (reduced
// size 2P−2 ≥ 8), and P = 11 gives the nested gang five partitions of its
// own.
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

// TestReducedRecursionActuallyNests pins the one nesting rule: the reduced
// system runs on a nested gang iff it has at least reducedCrossover blocks
// (2P−2 ≥ 8, i.e. P ≥ 5), and the nested factor never nests again.
func TestReducedRecursionActuallyNests(t *testing.T) {
	for p := 1; p <= 11; p++ {
		pf, err := NewParallelFactor(40, 2, 1, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pf.eng != nil && pf.eng.nested != nil, 2*p-2 >= reducedCrossover; got != want {
			t.Fatalf("P=%d (reduced size %d): nesting = %v, want %v", p, 2*p-2, got, want)
		}
	}
	// P=11 → 20 reduced blocks → a nested gang of 5, whose own reduced system
	// has 8 blocks and would nest again if the rule applied recursively.
	pf, err := NewParallelFactor(40, 2, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if nested := pf.eng.nested; nested.P != 5 || nested.eng.nested != nil {
		t.Fatalf("nested gang: P=%d nesting=%v, want P=5 solving its reduced system sequentially",
			nested.P, nested.eng.nested != nil)
	}
}

// TestNestedReducedEngineInheritsExecutor: a factor pinned to a private
// executor keeps its nested reduced gang on that executor instead of leaking
// it onto sched.Shared(), and — the executor having no workers — the caller
// alone completes every DAG of both levels.
func TestNestedReducedEngineInheritsExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n, b, a = 25, 2, 1
	m := randBTA(rng, n, b, a)
	seq, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	ex := sched.New(0)
	defer ex.Close()
	pf, err := NewParallelFactorOpts(n, b, a, ParallelOptions{Partitions: 5, Executor: ex})
	if err != nil {
		t.Fatal(err)
	}
	if pf.eng.nested == nil {
		t.Fatal("P=5 must nest")
	}
	if pf.ex != ex || pf.eng.nested.ex != ex {
		t.Fatal("nested gang runs on a different executor than its parent")
	}
	if err := pf.Refactorize(m); err != nil {
		t.Fatal(err)
	}
	want := randVec(rng, m.Dim())
	got := append([]float64(nil), want...)
	seq.Solve(want)
	pf.Solve(got)
	for i := range got {
		if math.Abs(got[i]-want[i]) > equivTol {
			t.Fatalf("Solve[%d] = %v want %v", i, got[i], want[i])
		}
	}
	wantSig, err := seq.SelectedInversion()
	if err != nil {
		t.Fatal(err)
	}
	gotSig := NewMatrix(n, b, a)
	if err := pf.SelectedInversionInto(gotSig); err != nil {
		t.Fatal(err)
	}
	if !gotSig.ToDense().Equal(wantSig.ToDense(), equivTol) {
		t.Fatal("selected inverse mismatch")
	}
}

// TestReducedEngineNonSPDRecovery: failure/recovery cycles through the
// sequential (P=4) and nested (P=5) reduced engines — both an interior
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

// TestReducedEngineAllocFree extends the zero-allocation pin to both reduced
// engines: the sequential one (P=4) and the nested gang (P=5) draw
// everything from construction-time storage, and a failed factorization in
// the warm-up cannot poison the scratch into reallocating.
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
