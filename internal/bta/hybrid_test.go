package bta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// hybridResult gathers one hybrid run's outputs on the caller side.
type hybridResult struct {
	logDet  float64
	x       []float64
	sigDiag []float64
	sigLows []*dense.Matrix
	sigTip  *dense.Matrix
	err     error
}

// hybridRank is one rank's persistent slice and factor, reusable across
// runHybrid cycles.
type hybridRank struct {
	local *LocalBTA
	f     *DistFactor
}

// runHybrid factorizes, solves, and selected-inverts g over world ranks ×
// perRank partitions each. ranks, when non-nil, carries every rank's slice
// and factor across calls (built on first use) instead of fresh ones.
func runHybrid(t *testing.T, g *Matrix, world, perRank int, rhs []float64, ranks []hybridRank) hybridResult {
	t.Helper()
	parts, err := PartitionBlocks(g.N, world*perRank, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ranks == nil {
		ranks = make([]hybridRank, world)
	}
	n, b, a := g.N, g.B, g.A
	res := hybridResult{
		x:       make([]float64, n*b+a),
		sigDiag: make([]float64, n*b+a),
		sigLows: make([]*dense.Matrix, n-1),
	}
	var mu chanMutex = make(chan struct{}, 1)
	fail := func(err error) {
		mu.Lock()
		res.err = err
		mu.Unlock()
	}
	if err := runWorld(world, func(c *comm.Comm) {
		hr := &ranks[c.Rank()]
		if hr.f == nil {
			var err error
			if hr.local, err = NewLocalBTA(parts, UniformStreams(world, perRank), c.Rank(), n, b, a); err != nil {
				fail(err)
				return
			}
			if hr.f, err = NewDistFactor(hr.local); err != nil {
				fail(err)
				return
			}
		}
		local, f := hr.local, hr.f
		local.FillFrom(g)
		if err := PPOBTAF(c, f, local); err != nil {
			fail(err)
			return
		}
		span := local.Part
		rhsLocal := append([]float64(nil), rhs[span.Lo*b:(span.Hi+1)*b]...)
		var rhsTip []float64
		if a > 0 {
			rhsTip = rhs[n*b:]
		}
		xLocal, xTip, err := PPOBTAS(c, f, rhsLocal, rhsTip)
		if err != nil {
			fail(err)
			return
		}
		sig, err := PPOBTASI(c, f)
		if err != nil {
			fail(err)
			return
		}
		mu.Lock()
		res.logDet = f.LogDet()
		copy(res.x[span.Lo*b:], xLocal)
		if a > 0 && xTip != nil {
			copy(res.x[n*b:], xTip)
		}
		copy(res.sigDiag[span.Lo*b:], sig.DiagVec())
		if a > 0 && sig.Tip != nil {
			res.sigTip = sig.Tip.Clone()
			for k := 0; k < a; k++ {
				res.sigDiag[n*b+k] = sig.Tip.At(k, k)
			}
		}
		for i, l := range sig.Lower {
			res.sigLows[span.Lo+i] = l.Clone()
		}
		if sig.TopCoupling != nil {
			res.sigLows[span.Lo-1] = sig.TopCoupling.Clone()
		}
		mu.Unlock()
	}); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

// TestHybridEquivalenceGrid is the backend acceptance grid: dist (hybrid
// ranks × partitions) vs sequential vs shared-memory parallel
// selected-inversion diagonals, couplings and solves agree to 1e-10 across
// world sizes {1,2,4} × partitions-per-rank {1,2,3} × arrowhead {0,1,4} at
// an odd time dimension, the shared-memory twins up to total width 12.
func TestHybridEquivalenceGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const nt = 23 // odd, and ≥ 2·(4·3)−2 so every grid point partitions
	for _, a := range []int{0, 1, 4} {
		g := randBTA(rng, nt, 2, a)
		rhs := randVec(rng, g.Dim())

		seq, err := Factorize(g)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), rhs...)
		seq.Solve(want)
		wantLd := seq.LogDet()
		wantSig, err := seq.SelectedInversion()
		if err != nil {
			t.Fatal(err)
		}
		wantDiag := wantSig.DiagVec()

		for _, world := range []int{1, 2, 4} {
			for _, perRank := range []int{1, 2, 3} {
				label := fmt.Sprintf("a=%d world=%d q=%d", a, world, perRank)
				res := runHybrid(t, g, world, perRank, rhs, nil)
				if res.err != nil {
					t.Fatalf("%s: %v", label, res.err)
				}
				if d := math.Abs(res.logDet - wantLd); d > equivTol*(1+math.Abs(wantLd)) {
					t.Fatalf("%s: logdet %v want %v", label, res.logDet, wantLd)
				}
				for i := range want {
					if math.Abs(res.x[i]-want[i]) > equivTol {
						t.Fatalf("%s: solve[%d] = %v want %v", label, i, res.x[i], want[i])
					}
				}
				for i := range wantDiag {
					if math.Abs(res.sigDiag[i]-wantDiag[i]) > equivTol*(1+math.Abs(wantDiag[i])) {
						t.Fatalf("%s: selinv diag[%d] = %v want %v", label, i, res.sigDiag[i], wantDiag[i])
					}
				}
				for k := 0; k < g.N-1; k++ {
					if res.sigLows[k] == nil {
						t.Fatalf("%s: missing Σ lower block %d", label, k)
					}
					if !res.sigLows[k].Equal(wantSig.Lower[k], equivTol) {
						t.Fatalf("%s: Σ lower block %d mismatch", label, k)
					}
				}
				if a > 0 && !res.sigTip.Equal(wantSig.Tip, equivTol) {
					t.Fatalf("%s: Σ tip mismatch", label)
				}

				// The shared-memory parallel backend over the same
				// total width must agree too — all backends drive the
				// same partition cores.
				pf, err := NewParallelFactor(nt, 2, a, world*perRank)
				if err != nil {
					t.Fatal(err)
				}
				if err := pf.Refactorize(g); err != nil {
					t.Fatal(err)
				}
				got := append([]float64(nil), rhs...)
				pf.Solve(got)
				for i := range want {
					if math.Abs(got[i]-want[i]) > equivTol {
						t.Fatalf("%s: parallel solve[%d] mismatch", label, i)
					}
				}
			}
		}
	}
}

// TestHybridUnequalStreams: a topology whose stream counts differ across
// nodes (2 streams on rank 0, 1 on rank 1) must agree with the sequential
// backend — the global partition indexing follows the recorded layout, not
// a uniform ranks × perRank grid.
func TestHybridUnequalStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, a := range []int{0, 2} {
		g := randBTA(rng, 17, 2, a)
		rhs := randVec(rng, g.Dim())
		seq, err := Factorize(g)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), rhs...)
		seq.Solve(want)
		wantSig, err := seq.SelectedInversion()
		if err != nil {
			t.Fatal(err)
		}
		wantDiag := wantSig.DiagVec()

		counts := []int{2, 1}
		parts, err := HybridPartition(g.N, counts, defaultLoadBalance)
		if err != nil {
			t.Fatal(err)
		}
		n, b := g.N, g.B
		gotX := make([]float64, g.Dim())
		gotDiag := make([]float64, g.Dim())
		var mu chanMutex = make(chan struct{}, 1)
		var runErr error
		if err := runWorld(2, func(c *comm.Comm) {
			f, err := distFactorize(c, g, parts, counts)
			if err != nil {
				mu.Lock()
				runErr = err
				mu.Unlock()
				return
			}
			span := f.span
			rhsLocal := append([]float64(nil), rhs[span.Lo*b:(span.Hi+1)*b]...)
			var rhsTip []float64
			if a > 0 {
				rhsTip = rhs[n*b:]
			}
			xLocal, xTip, err := PPOBTAS(c, f, rhsLocal, rhsTip)
			if err == nil {
				var sig *LocalBTA
				sig, err = PPOBTASI(c, f)
				if err == nil {
					mu.Lock()
					copy(gotX[span.Lo*b:], xLocal)
					copy(gotDiag[span.Lo*b:], sig.DiagVec())
					if a > 0 {
						copy(gotX[n*b:], xTip)
						for k := 0; k < a; k++ {
							gotDiag[n*b+k] = sig.Tip.At(k, k)
						}
					}
					mu.Unlock()
				}
			}
			if err != nil {
				mu.Lock()
				runErr = err
				mu.Unlock()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if runErr != nil {
			t.Fatalf("a=%d: %v", a, runErr)
		}
		for i := range want {
			if math.Abs(gotX[i]-want[i]) > equivTol {
				t.Fatalf("a=%d: solve[%d] = %v want %v", a, i, gotX[i], want[i])
			}
		}
		for i := range wantDiag {
			if math.Abs(gotDiag[i]-wantDiag[i]) > equivTol*(1+math.Abs(wantDiag[i])) {
				t.Fatalf("a=%d: selinv diag[%d] = %v want %v", a, i, gotDiag[i], wantDiag[i])
			}
		}
	}
}

// TestHybridTopologyBitForBit: with no arrowhead the hybrid path performs
// the identical floating-point operations for every (ranks, partitions)
// split of the same total width — the per-partition elimination, solve and
// sweep are the same partition-relative cores either way, and only message
// boundaries move. 1 rank × 4 partitions, 2 × 2 and 4 × 1 must therefore
// agree bit for bit.
func TestHybridTopologyBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g := randBTA(rng, 12, 3, 0)
	rhs := randVec(rng, g.Dim())

	ref := runHybrid(t, g, 4, 1, rhs, nil)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	for _, tc := range []struct{ world, q int }{{1, 4}, {2, 2}} {
		res := runHybrid(t, g, tc.world, tc.q, rhs, nil)
		if res.err != nil {
			t.Fatalf("%+v: %v", tc, res.err)
		}
		// The log-determinant's collective reduction groups its partial sums
		// by rank, so moving a partition boundary between ranks regroups the
		// sum (ulp-level shift) — everything else is bitwise identical.
		if d := math.Abs(res.logDet - ref.logDet); d > 1e-12*math.Abs(ref.logDet) {
			t.Fatalf("%+v: logdet %v != flat %v", tc, res.logDet, ref.logDet)
		}
		for i := range ref.x {
			if res.x[i] != ref.x[i] {
				t.Fatalf("%+v: solve[%d] %v != flat %v", tc, i, res.x[i], ref.x[i])
			}
		}
		for i := range ref.sigDiag {
			if res.sigDiag[i] != ref.sigDiag[i] {
				t.Fatalf("%+v: selinv diag[%d] %v != flat %v", tc, i, res.sigDiag[i], ref.sigDiag[i])
			}
		}
	}
}

// TestHybridScratchReuseStable: repeated refill/factorize/solve/selinv
// cycles on the same persistent factors must reproduce the first cycle's
// results exactly — the fill chains, accumulators, solve buffers and Σ
// storage carry no state between iterations.
func TestHybridScratchReuseStable(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := randBTA(rng, 11, 3, 2)
	rhs := randVec(rng, g.Dim())
	ranks := make([]hybridRank, 2)

	var first hybridResult
	for cycle := 0; cycle < 4; cycle++ {
		res := runHybrid(t, g, 2, 2, rhs, ranks)
		if res.err != nil {
			t.Fatalf("cycle %d: %v", cycle, res.err)
		}
		if cycle == 0 {
			first = res
			continue
		}
		for i := range first.x {
			if res.x[i] != first.x[i] {
				t.Fatalf("cycle %d: solve[%d] drifted", cycle, i)
			}
		}
		for i := range first.sigDiag {
			if res.sigDiag[i] != first.sigDiag[i] {
				t.Fatalf("cycle %d: selinv diag[%d] drifted", cycle, i)
			}
		}
	}
}

// distCycleAllocs measures the steady-state allocations of one full
// distributed cycle on persistent factors (refill + PPOBTAF + PPOBTAS +
// PPOBTASI) over 2 ranks.
func distCycleAllocs(t *testing.T, nt int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(74 + nt)))
	g := randBTA(rng, nt, 3, 2)
	parts, err := PartitionBlocks(nt, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := randVec(rng, g.Dim())
	locals := make([]*LocalBTA, 2)
	facs := make([]*DistFactor, 2)
	rhsLocals := make([][]float64, 2)
	for r, p := range parts {
		if locals[r], err = NewLocalBTA(parts, UniformStreams(2, 1), r, g.N, g.B, g.A); err != nil {
			t.Fatal(err)
		}
		if facs[r], err = NewDistFactor(locals[r]); err != nil {
			t.Fatal(err)
		}
		rhsLocals[r] = append([]float64(nil), rhs[p.Lo*g.B:(p.Hi+1)*g.B]...)
	}
	cycle := func() {
		if err := runWorld(2, func(c *comm.Comm) {
			r := c.Rank()
			locals[r].FillFrom(g)
			if err := PPOBTAF(c, facs[r], locals[r]); err != nil {
				panic(err)
			}
			rl := rhsLocals[r]
			copy(rl, rhs[parts[r].Lo*g.B:(parts[r].Hi+1)*g.B])
			var rhsTip []float64
			if g.A > 0 {
				rhsTip = rhs[g.N*g.B:]
			}
			if _, _, err := PPOBTAS(c, facs[r], rl, rhsTip); err != nil {
				panic(err)
			}
			if _, err := PPOBTASI(c, facs[r]); err != nil {
				panic(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the lazily sized storage (message staging, Σ output).
	cycle()
	cycle()
	return testing.AllocsPerRun(5, cycle)
}

// TestDistPerStepAllocFree pins the distributed path's allocation
// behaviour: the remaining allocations per cycle belong to the message
// layer and the simulator (O(ranks) per cycle), so the count must not grow
// with the number of interior blocks.
func TestDistPerStepAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode alloc counts are meaningless")
	}
	small := distCycleAllocs(t, 10)
	large := distCycleAllocs(t, 34)
	if large > small+6 {
		t.Fatalf("allocations grow with nt: %.1f at nt=10 vs %.1f at nt=34", small, large)
	}
}
