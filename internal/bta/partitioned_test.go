package bta

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// TestNewLocalBTARejectsBadLayouts: a rank outside the partition list
// errors instead of slicing out of range — for every caller, since this is
// the only constructor.
func TestNewLocalBTARejectsBadLayouts(t *testing.T) {
	parts, err := PartitionBlocks(12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{-1, 4} {
		if l, err := NewLocalBTA(parts, rank, 12, 2, 1); err == nil {
			t.Errorf("rank %d: got slice over %+v, want an error", rank, l.Part)
		}
		if _, err := LocalSlice(NewMatrix(12, 2, 1), parts, rank); err == nil {
			t.Errorf("rank %d: LocalSlice accepted it", rank)
		}
	}
	l, err := NewLocalBTA(parts, 2, 12, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Part != parts[2] || l.Tip != nil {
		t.Fatalf("rank 2 of 4 owns %+v (tip %v), want %+v without a tip", l.Part, l.Tip, parts[2])
	}
	// A hand-built slice records no partition list and cannot seed a factor.
	if _, err := NewDistFactor(&LocalBTA{Part: parts[0], NGlobal: 12, B: 2, A: 1}); err == nil {
		t.Fatal("NewDistFactor accepted a slice built outside NewLocalBTA")
	}
}

// sameBlocks reports the first of two equally shaped block lists that
// differs in any bit.
func sameBlocks(name string, got, want []*dense.Matrix) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d blocks, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i], 0) {
			return fmt.Errorf("%s[%d] differs", name, i)
		}
	}
	return nil
}

// sameMatrix reports the first block of got that differs from want in any
// bit.
func sameMatrix(name string, got, want *Matrix) error {
	for _, err := range []error{
		sameBlocks(name+" diag", got.Diag, want.Diag),
		sameBlocks(name+" lower", got.Lower, want.Lower),
		sameBlocks(name+" arrow", got.Arrow, want.Arrow),
	} {
		if err != nil {
			return err
		}
	}
	if want.A > 0 && !got.Tip.Equal(want.Tip, 0) {
		return fmt.Errorf("%s tip differs", name)
	}
	return nil
}

// sameLocal reports the first block of the rank-local slice got that
// differs in any bit from the same block of want.
func sameLocal(name string, got, want *LocalBTA) error {
	for _, err := range []error{
		sameBlocks(name+" diag", got.Diag, want.Diag),
		sameBlocks(name+" lower", got.Lower, want.Lower),
		sameBlocks(name+" arrow", got.Arrow, want.Arrow),
	} {
		if err != nil {
			return err
		}
	}
	if got.TopCoupling != nil && !got.TopCoupling.Equal(want.TopCoupling, 0) {
		return fmt.Errorf("%s top coupling differs", name)
	}
	if got.Tip != nil && !got.Tip.Equal(want.Tip, 0) {
		return fmt.Errorf("%s tip differs", name)
	}
	return nil
}

// sameFactor reports the first factor block of the rank's driver got
// (storage gotStore) that differs in any bit from want's (storage
// wantStore): the consumed slice, the partition's fill chain and, on rank 0,
// the reduced factor — or over one partition the sequential factor's
// storage.
func sameFactor(got, want *partFactor, gotStore, wantStore *LocalBTA) error {
	if got.P == 1 {
		return sameMatrix("factor", got.seq.Workspace(), want.seq.Workspace())
	}
	if err := sameLocal("factor", gotStore, wantStore); err != nil {
		return err
	}
	if err := sameBlocks("fill chain", got.chain[:got.chainUsed], want.chain[:want.chainUsed]); err != nil {
		return err
	}
	if got.rank == 0 {
		return sameMatrix("reduced factor", got.red, want.red)
	}
	return nil
}

// sameInPlace factorizes good in s's Workspace, after a failed
// factorization of bad, and reports the first of the factor, the
// log-determinant, the solve, SolveLT and Σ that differs in any bit from
// ref, a factor that Refactorized good.
func sameInPlace(s, ref *Factor, bad, good *Matrix, rhs []float64) error {
	if err := s.Refactorize(bad); err == nil {
		return fmt.Errorf("accepted a non-SPD matrix")
	}
	s.Workspace().CopyFrom(good)
	if err := s.FactorizeWorkspace(); err != nil {
		return err
	}
	if err := sameMatrix("factor", s.Workspace(), ref.Workspace()); err != nil {
		return err
	}
	if s.LogDet() != ref.LogDet() {
		return fmt.Errorf("logdet %v, Refactorize %v", s.LogDet(), ref.LogDet())
	}
	x, want := append([]float64(nil), rhs...), append([]float64(nil), rhs...)
	s.Solve(x)
	ref.Solve(want)
	lt, wantLT := append([]float64(nil), rhs...), append([]float64(nil), rhs...)
	s.SolveLT(lt)
	ref.SolveLT(wantLT)
	for i := range x {
		if x[i] != want[i] || lt[i] != wantLT[i] {
			return fmt.Errorf("entry %d: solve %v / %v, SolveLT %v / %v (in place / Refactorize)", i, x[i], want[i], lt[i], wantLT[i])
		}
	}
	sig, err := s.SelectedInversion()
	if err != nil {
		return err
	}
	wantSig, err := ref.SelectedInversion()
	if err != nil {
		return err
	}
	return sameMatrix("Σ", sig, wantSig)
}

// TestOneDriverBitForBit: the partitioned driver carries no state from one
// factorization into the next, so ranks that first failed on a non-SPD
// matrix give the bits of fresh ranks — every rank's factor blocks, fill
// chain and reduced factor, the log-determinant, the solve and every Σ
// block — at every partition count n = 13 supports (P ≤ 7, reduced systems
// up to 12 blocks), with and without an arrowhead, and with a size-2 middle
// partition. Over the single partition {0, n−1} the driver is the
// sequential Factor bit for bit, and the Factor's in-place entry
// (Workspace + FactorizeWorkspace) after a failed factorization gives
// Refactorize's bits.
func TestOneDriverBitForBit(t *testing.T) {
	const n, b = 13, 3
	rng := rand.New(rand.NewSource(77))
	lists := map[string][]Partition{
		"size-2 middle": {{0, 3}, {4, 5}, {6, 12}},
		"one partition": {{0, n - 1}},
	}
	for p := 2; p <= MaxPartitions(n); p++ {
		parts, err := Partitions(n, p)
		if err != nil {
			t.Fatal(err)
		}
		lists[fmt.Sprintf("P=%d", p)] = parts
	}
	for name, parts := range lists {
		for _, a := range []int{0, 2} {
			label := fmt.Sprintf("%s a=%d", name, a)
			good := randBTA(rng, n, b, a)
			bad := good.Clone()
			// inside partition 1 (interior or boundary), or the one partition
			bad.Diag[parts[min(1, len(parts)-1)].Lo+1].Set(0, 0, -50)
			rhs := randVec(rng, good.Dim())

			wantRanks := newRanks(t, good, parts)
			want := runParts(good, parts, rhs, wantRanks)
			gotRanks := newRanks(t, good, parts)
			if err := failEveryRank(gotRanks, bad); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := runParts(good, parts, rhs, gotRanks)
			if want.err != nil || got.err != nil {
				t.Fatalf("%s: %v, %v", label, want.err, got.err)
			}
			for r := range parts {
				g, w := gotRanks[r], wantRanks[r]
				if err := sameFactor(&g.f.partFactor, &w.f.partFactor, g.local, w.local); err != nil {
					t.Errorf("%s rank %d: %v", label, r, err)
				}
			}
			if got.logDet != want.logDet || !slices.Equal(got.x, want.x) {
				t.Errorf("%s: logdet %v or solve differs from fresh ranks' (logdet %v)", label, got.logDet, want.logDet)
			}
			if err := sameMatrix("Σ", got.sig, want.sig); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			if len(parts) > 1 {
				continue
			}
			sf := NewFactor(n, b, a)
			if err := sf.Refactorize(good); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := sameInPlace(NewFactor(n, b, a), sf, bad, good, rhs); err != nil {
				t.Errorf("%s: in-place sequential factor: %v", label, err)
			}
			x := append([]float64(nil), rhs...)
			sf.Solve(x)
			if sf.LogDet() != got.logDet || !slices.Equal(x, got.x) {
				t.Errorf("%s: logdet %v or solve differs from the sequential factor's (logdet %v)", label, got.logDet, sf.LogDet())
			}
			sig, err := sf.SelectedInversion()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := sameMatrix("Σ", got.sig, sig); err != nil {
				t.Errorf("%s: sequential vs distributed: %v", label, err)
			}
		}
	}
}
