package bta

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// equivTol is the agreement tolerance between the sequential and the
// partitioned factor demanded by the acceptance criteria.
const equivTol = 1e-10

// matchesSequential factorizes, solves and selected-inverts g over one rank
// per partition of parts and reports the first of the log-determinant, the
// solve and the Σ blocks that differs from the sequential factor's by more
// than equivTol.
func matchesSequential(g *Matrix, parts []Partition, rhs []float64) error {
	seq, err := Factorize(g)
	if err != nil {
		return err
	}
	res := runParts(g, parts, rhs, nil)
	if res.err != nil {
		return res.err
	}
	if d := math.Abs(res.logDet - seq.LogDet()); d > equivTol*(1+math.Abs(seq.LogDet())) {
		return fmt.Errorf("logdet %v want %v", res.logDet, seq.LogDet())
	}
	want := append([]float64(nil), rhs...)
	seq.Solve(want)
	for i := range want {
		if math.Abs(res.x[i]-want[i]) > equivTol {
			return fmt.Errorf("solve[%d] = %v want %v", i, res.x[i], want[i])
		}
	}
	wantSig, err := seq.SelectedInversion()
	if err != nil {
		return err
	}
	if !res.sig.ToDense().Equal(wantSig.ToDense(), equivTol) {
		return fmt.Errorf("selected inverse mismatch")
	}
	return nil
}

// TestParallelFactorMatchesSequential sweeps the acceptance grid of the
// partitioned factor, one rank per partition of Partitions' split:
// partition counts {1,2,3,5}, odd block counts and arrowhead sizes {0,1,4},
// checking Solve, LogDet and every Σ block to 1e-10.
func TestParallelFactorMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, p := range []int{1, 2, 3, 5} {
		for _, a := range []int{0, 1, 4} {
			for _, n := range []int{9, 11} {
				m := randBTA(rng, n, 3, a)
				parts, err := Partitions(n, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := matchesSequential(m, parts, randVec(rng, m.Dim())); err != nil {
					t.Fatalf("p=%d a=%d n=%d: %v", p, a, n, err)
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
		parts, err := Partitions(tc.n, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if err := matchesSequential(m, parts, randVec(rng, m.Dim())); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

// TestReducedEngineGrid sweeps the reduced boundary system: partitions
// {2,3,4,5,6,11} × arrowhead {0,1,4} at an odd block count, checking
// LogDet, Solve and SelectedInversion to 1e-10. The reduced system grows
// from 2 blocks (P = 2) to 20 (P = 11); every one is factorized by the
// one-partition Factor over the assembled storage.
func TestReducedEngineGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const n, b = 25, 2
	for _, a := range []int{0, 1, 4} {
		m := randBTA(rng, n, b, a)
		rhs := randVec(rng, m.Dim())
		for _, p := range []int{2, 3, 4, 5, 6, 11} {
			parts, err := Partitions(n, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := matchesSequential(m, parts, rhs); err != nil {
				t.Fatalf("a=%d p=%d: %v", a, p, err)
			}
		}
	}
}

// TestParallelRefactorizeReuse: refilling the same ranks from different
// matrices must not leak state between factorizations.
func TestParallelRefactorizeReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	parts, err := Partitions(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]distRank, len(parts))
	for trial := 0; trial < 3; trial++ {
		m := randBTA(rng, 9, 3, 2)
		seq, err := Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		rhs := randVec(rng, m.Dim())
		res := runParts(m, parts, rhs, ranks)
		if res.err != nil {
			t.Fatalf("trial %d: %v", trial, res.err)
		}
		want := append([]float64(nil), rhs...)
		seq.Solve(want)
		for i := range want {
			if math.Abs(res.x[i]-want[i]) > equivTol {
				t.Fatalf("trial %d: Solve[%d] = %v want %v", trial, i, res.x[i], want[i])
			}
		}
	}
}

// newRanks builds every rank's slice and factor over parts for the shape
// of g.
func newRanks(t *testing.T, g *Matrix, parts []Partition) []distRank {
	t.Helper()
	ranks := make([]distRank, len(parts))
	for r := range parts {
		var err error
		if ranks[r].local, err = NewLocalBTA(parts, r, g.N, g.B, g.A); err != nil {
			t.Fatal(err)
		}
		if ranks[r].f, err = NewDistFactor(ranks[r].local); err != nil {
			t.Fatal(err)
		}
	}
	return ranks
}

// failEveryRank refills the ranks' slices from m, runs PPOBTAF and reports
// unless it failed on every rank.
func failEveryRank(ranks []distRank, m *Matrix) error {
	failed := make([]bool, len(ranks))
	if err := runWorld(len(ranks), func(c *comm.Comm) {
		dr := &ranks[c.Rank()]
		dr.local.FillFrom(m)
		failed[c.Rank()] = PPOBTAF(c, dr.f, dr.local) != nil
	}); err != nil {
		return err
	}
	if slices.Contains(failed, false) {
		return fmt.Errorf("PPOBTAF failed on ranks %v, want every rank", failed)
	}
	return nil
}

// checkNonSPDRecovery runs failure/recovery cycles on persistent ranks over
// Partitions(good.N, p): an indefinite block badBlock (elimination fails
// mid-sweep with fill blocks in flight, or, on a boundary block, the
// reduced factorization) and an indefinite tip (every elimination succeeds
// and the reduced factorization fails) must fail on every rank, keep the
// construction-time fill chains, and leave the ranks exact on the next
// matrix.
func checkNonSPDRecovery(t *testing.T, good *Matrix, badBlock, p, cycles int) {
	t.Helper()
	bad := good.Clone()
	bad.Diag[badBlock].Set(0, 0, -5)
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
	parts, err := Partitions(good.N, p)
	if err != nil {
		t.Fatal(err)
	}
	ranks := newRanks(t, good, parts)
	chainLens := make([]int, p)
	for r, dr := range ranks {
		chainLens[r] = len(dr.f.chain)
	}
	rhs := make([]float64, good.Dim())
	for cycle := 0; cycle < cycles; cycle++ {
		for name, m := range map[string]*Matrix{"interior": bad, "tip": badTip} {
			if err := failEveryRank(ranks, m); err != nil {
				t.Fatalf("P=%d cycle %d: non-SPD %s: %v", p, cycle, name, err)
			}
		}
		res := runParts(good, parts, rhs, ranks)
		if res.err != nil {
			t.Fatalf("P=%d cycle %d: recovery: %v", p, cycle, res.err)
		}
		if !res.sig.ToDense().Equal(wantSig.ToDense(), equivTol) {
			t.Fatalf("P=%d cycle %d: selected inverse drifted after failures", p, cycle)
		}
		for r, dr := range ranks {
			if len(dr.f.chain) != chainLens[r] || dr.f.chainUsed > len(dr.f.chain) {
				t.Fatalf("P=%d cycle %d: rank %d chain %d → %d (used %d)",
					p, cycle, r, chainLens[r], len(dr.f.chain), dr.f.chainUsed)
			}
		}
	}
}

// TestParallelFactorNonSPDRecovery: failure/recovery cycles over three
// ranks, the indefinite block inside the middle partition.
func TestParallelFactorNonSPDRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	checkNonSPDRecovery(t, randBTA(rng, 9, 3, 2), 4, 3, 4)
}

// TestReducedEngineNonSPDRecovery: failure/recovery cycles at P = 4 and
// P = 5, reduced systems of 6 and 8 blocks.
func TestReducedEngineNonSPDRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	good := randBTA(rng, 23, 3, 2)
	for _, p := range []int{4, 5} {
		checkNonSPDRecovery(t, good, 11, p, 3)
	}
}

// TestParallelFactorStandIn pins the stand-in the benchmark's
// bta.parallel2_* rows time: its Refactorize gives the sequential
// log-determinant to 1e-12 relative at p = 2 and p = MaxPartitions(n), a
// non-SPD matrix fails on every rank without hanging, and a second
// Refactorize of the same matrix reproduces the first bit for bit.
func TestParallelFactorStandIn(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const n, b, a = 11, 3, 2
	m := randBTA(rng, n, b, a)
	bad := m.Clone()
	bad.Diag[n/2].Set(0, 0, -5)
	seq, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, MaxPartitions(n)} {
		pf, err := NewParallelFactor(n, b, a, p)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- pf.Refactorize(bad) }()
		select {
		case err := <-done:
			var joined interface{ Unwrap() []error }
			if !errors.As(err, &joined) || len(joined.Unwrap()) != p {
				t.Fatalf("p=%d: non-SPD Refactorize returned %v, want an error from each of the %d ranks", p, err, p)
			}
		case <-time.After(time.Minute):
			t.Fatalf("p=%d: non-SPD Refactorize hangs", p)
		}
		snapshot := func() []*dense.Matrix {
			var out []*dense.Matrix
			for _, l := range pf.locals {
				for _, blocks := range [][]*dense.Matrix{l.Diag, l.Lower, l.Arrow} {
					for _, blk := range blocks {
						out = append(out, blk.Clone())
					}
				}
			}
			return out
		}
		if err := pf.Refactorize(m); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		first, firstLogDet := snapshot(), pf.LogDet()
		if d := math.Abs(firstLogDet - seq.LogDet()); d > 1e-12*math.Abs(seq.LogDet()) {
			t.Fatalf("p=%d: logdet %v want %v", p, firstLogDet, seq.LogDet())
		}
		if err := pf.Refactorize(m); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if pf.LogDet() != firstLogDet {
			t.Fatalf("p=%d: second logdet %v, first %v", p, pf.LogDet(), firstLogDet)
		}
		if err := sameBlocks(fmt.Sprintf("p=%d factor", p), snapshot(), first); err != nil {
			t.Fatal(err)
		}
	}
}
