package bta

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sched"
)

// TestReducedEngineGrid sweeps the recursive/pipelined reduced-system
// engine against the sequential backend: partitions {2,3,5,6} × recursion
// depth {0,1,2} × pipelined on/off × arrowhead {0,1,4} at an odd block
// count, checking LogDet, Solve and SelectedInversion to 1e-10. P ≥ 5 with
// a lowered crossover actually exercises the nested gang (reduced size
// 2P−2 ≥ 8); smaller P proves the crossover degrades to the sequential
// kernel without breaking anything.
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
		for _, p := range []int{2, 3, 5, 6} {
			for _, depth := range []int{0, 1, 2} {
				for _, pipe := range []bool{false, true} {
					pf, err := NewParallelFactorOpts(n, b, a, ParallelOptions{
						Partitions: p,
						Reduced:    ReducedOptions{Depth: depth, Pipeline: pipe},
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := pf.Refactorize(m); err != nil {
						t.Fatalf("a=%d p=%d depth=%d pipe=%v: %v", a, p, depth, pipe, err)
					}
					if d := math.Abs(pf.LogDet() - seq.LogDet()); d > equivTol*(1+math.Abs(seq.LogDet())) {
						t.Fatalf("a=%d p=%d depth=%d pipe=%v: LogDet %v want %v",
							a, p, depth, pipe, pf.LogDet(), seq.LogDet())
					}
					got := append([]float64(nil), rhs0...)
					pf.Solve(got)
					for i := range got {
						if math.Abs(got[i]-want[i]) > equivTol {
							t.Fatalf("a=%d p=%d depth=%d pipe=%v: Solve[%d] = %v want %v",
								a, p, depth, pipe, i, got[i], want[i])
						}
					}
					gotSig, err := pf.SelectedInversion()
					if err != nil {
						t.Fatalf("a=%d p=%d depth=%d pipe=%v: selinv: %v", a, p, depth, pipe, err)
					}
					if !gotSig.ToDense().Equal(wantSig.ToDense(), equivTol) {
						t.Fatalf("a=%d p=%d depth=%d pipe=%v: selected inverse mismatch", a, p, depth, pipe)
					}
				}
			}
		}
	}
}

// TestReducedRecursionActuallyNests pins that the recursion plumbing does
// engage where it should: at P ≥ 5 (reduced size ≥ DefaultReducedCrossover)
// with depth ≥ 1 the engine runs a nested gang, while small P and depth 0
// stay sequential.
func TestReducedRecursionActuallyNests(t *testing.T) {
	mk := func(p, depth, crossover int) *ParallelFactor {
		pf, err := NewParallelFactorOpts(40, 2, 1, ParallelOptions{
			Partitions: p,
			Reduced:    ReducedOptions{Depth: depth, Crossover: crossover},
		})
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}
	if !mk(5, 1, 0).ReducedRecursing() {
		t.Fatal("P=5 depth=1 must nest (reduced size 8 ≥ default crossover)")
	}
	if mk(5, 0, 0).ReducedRecursing() {
		t.Fatal("depth=0 must never nest")
	}
	if mk(4, 1, 0).ReducedRecursing() {
		t.Fatal("P=4 (reduced size 6) is below the default crossover")
	}
	if !mk(4, 1, 4).ReducedRecursing() {
		t.Fatal("a lowered crossover must let P=4 nest")
	}
}

// TestNestedReducedEngineInheritsExecutor: a factor pinned to a private
// executor keeps its recursive reduced gang on that executor instead of
// leaking it onto sched.Shared(), and — the executor having no workers — the
// caller alone completes every DAG of both levels.
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
	for _, pipe := range []bool{false, true} {
		pf, err := NewParallelFactorOpts(n, b, a, ParallelOptions{
			Partitions: 5,
			Reduced:    ReducedOptions{Depth: 1, Pipeline: pipe},
			Executor:   ex,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !pf.ReducedRecursing() {
			t.Fatal("P=5 depth=1 must nest")
		}
		if pf.ex != ex || pf.eng.nested.ex != ex {
			t.Fatalf("pipe=%v: nested gang runs on a different executor than its parent", pipe)
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
				t.Fatalf("pipe=%v: Solve[%d] = %v want %v", pipe, i, got[i], want[i])
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
			t.Fatalf("pipe=%v: selected inverse mismatch", pipe)
		}
	}
}

// TestReducedCrossoverBitForBit is the crossover acceptance: below the
// recursion crossover the reduced system must take the sequential path bit
// for bit — a factor built with a deep recursion budget and one built with
// depth 0 produce identical bits for every output when P is small.
func TestReducedCrossoverBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	m := randBTA(rng, 13, 3, 2)
	rhs0 := randVec(rng, m.Dim())

	run := func(depth int) (ld float64, x []float64, sig *Matrix) {
		// P = 3 → reduced size 4 < DefaultReducedCrossover: depth must not
		// change the code path.
		pf, err := NewParallelFactorOpts(13, 3, 2, ParallelOptions{
			Partitions: 3,
			Reduced:    ReducedOptions{Depth: depth},
		})
		if err != nil {
			t.Fatal(err)
		}
		if pf.ReducedRecursing() {
			t.Fatal("small-P factor must not recurse")
		}
		if err := pf.Refactorize(m); err != nil {
			t.Fatal(err)
		}
		x = append([]float64(nil), rhs0...)
		pf.Solve(x)
		sig, err = pf.SelectedInversion()
		if err != nil {
			t.Fatal(err)
		}
		return pf.LogDet(), x, sig
	}
	ld0, x0, sig0 := run(0)
	ld2, x2, sig2 := run(2)
	if ld0 != ld2 {
		t.Fatalf("LogDet differs below the crossover: %v vs %v", ld0, ld2)
	}
	for i := range x0 {
		if x0[i] != x2[i] {
			t.Fatalf("Solve[%d] differs below the crossover: %v vs %v", i, x0[i], x2[i])
		}
	}
	if !sig0.ToDense().Equal(sig2.ToDense(), 0) {
		t.Fatal("selected inverse differs below the crossover")
	}
}

// TestReducedPipelineDeterministic: the pipelined handoff must be a pure
// function of the input — repeated refactorizations produce identical bits
// even though partition completion order varies run to run (the frontier
// ties every floating-point operation to the install order, not the
// delivery order).
func TestReducedPipelineDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	m := randBTA(rng, 27, 3, 2)
	rhs0 := randVec(rng, m.Dim())
	pf, err := NewParallelFactorOpts(27, 3, 2, ParallelOptions{
		Partitions: 6,
		Reduced:    ReducedOptions{Pipeline: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var firstLd float64
	var firstX []float64
	for trial := 0; trial < 5; trial++ {
		if err := pf.Refactorize(m); err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), rhs0...)
		pf.Solve(x)
		if trial == 0 {
			firstLd, firstX = pf.LogDet(), x
			continue
		}
		if pf.LogDet() != firstLd {
			t.Fatalf("trial %d: LogDet drifted: %v vs %v", trial, pf.LogDet(), firstLd)
		}
		for i := range x {
			if x[i] != firstX[i] {
				t.Fatalf("trial %d: Solve[%d] drifted", trial, i)
			}
		}
	}
}

// TestReducedEngineNonSPDRecovery: failure/recovery cycles through the
// recursive and pipelined paths — both an interior failure (mid-elimination
// with fill blocks in flight) and a reduced-system failure (all partitions
// succeed, the nested/streamed reduced factorization hits the indefinite
// tip) must surface errors and leave the factor exact afterwards.
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
	for _, opt := range []ReducedOptions{
		{Depth: 1, Crossover: 4},
		{Pipeline: true},
		{Depth: 1, Crossover: 4, Pipeline: true},
	} {
		pf, err := NewParallelFactorOpts(23, 3, 2, ParallelOptions{Partitions: 5, Reduced: opt})
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 3; cycle++ {
			if err := pf.Refactorize(bad); err == nil {
				t.Fatalf("%+v: non-SPD interior must fail", opt)
			}
			if err := pf.Refactorize(badTip); err == nil {
				t.Fatalf("%+v: non-SPD tip must fail", opt)
			}
			if err := pf.Refactorize(good); err != nil {
				t.Fatalf("%+v cycle %d: recovery: %v", opt, cycle, err)
			}
			gotSig, err := pf.SelectedInversion()
			if err != nil {
				t.Fatalf("%+v cycle %d: %v", opt, cycle, err)
			}
			if !gotSig.ToDense().Equal(wantSig.ToDense(), equivTol) {
				t.Fatalf("%+v cycle %d: selected inverse drifted after failures", opt, cycle)
			}
		}
	}
}

// TestReducedEngineAllocFree extends the zero-allocation pin to the new
// modes: recursion and the pipelined handoff draw everything — nested gang
// included — from construction-time storage.
func TestReducedEngineAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode alloc counts are meaningless")
	}
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(85))
	const n, b, a = 24, 8, 3
	m := randBTA(rng, n, b, a)
	rhs0 := randVec(rng, m.Dim())
	for _, opt := range []ReducedOptions{
		{Depth: 1, Crossover: 4},
		{Pipeline: true},
		{Depth: 1, Crossover: 4, Pipeline: true},
	} {
		pf, err := NewParallelFactorOpts(n, b, a, ParallelOptions{Partitions: 5, Reduced: opt})
		if err != nil {
			t.Fatal(err)
		}
		sig := NewMatrix(n, b, a)
		rhs := make([]float64, m.Dim())
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
			t.Fatalf("%+v: cycle allocates %.1f objects per run, want 0", opt, allocs)
		}
	}
}

// TestReducedEnginePipelinedRecoveryAllocFree extends the non-SPD recovery
// pin to the recursive pipelined engine (depth ≥ 1 + pipeline on): the
// failure/recovery cycles must keep the construction-time storage exactly
// (fill chains neither grow nor leak), and once warmed through failures a
// recovered Refactorize + SelectedInversionInto cycle is allocation-free —
// a failed factorization cannot poison the scratch into reallocating.
func TestReducedEnginePipelinedRecoveryAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode alloc counts are meaningless")
	}
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(86))
	const n, b, a = 23, 3, 2
	good := randBTA(rng, n, b, a)
	bad := good.Clone()
	bad.Diag[11].Set(0, 0, -5)
	badTip := good.Clone()
	badTip.Tip.Set(0, 0, -5)

	pf, err := NewParallelFactorOpts(n, b, a, ParallelOptions{
		Partitions: 5,
		Reduced:    ReducedOptions{Depth: 1, Crossover: 4, Pipeline: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sig := NewMatrix(n, b, a)
	chainLens := make([]int, len(pf.ps))
	for r, ps := range pf.ps {
		chainLens[r] = len(ps.chain)
	}
	for cycle := 0; cycle < 3; cycle++ {
		if err := pf.Refactorize(bad); err == nil {
			t.Fatal("non-SPD interior must fail to factorize")
		}
		if err := pf.Refactorize(badTip); err == nil {
			t.Fatal("non-SPD reduced system must fail to factorize")
		}
		if err := pf.Refactorize(good); err != nil {
			t.Fatalf("cycle %d: recovery refactorize: %v", cycle, err)
		}
		if err := pf.SelectedInversionInto(sig); err != nil {
			t.Fatal(err)
		}
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
	allocs := testing.AllocsPerRun(10, func() {
		if err := pf.Refactorize(good); err != nil {
			t.Fatal(err)
		}
		if err := pf.SelectedInversionInto(sig); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("recovered cycle allocates %.1f objects per run, want 0", allocs)
	}
}
