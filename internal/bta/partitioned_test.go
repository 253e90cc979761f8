package bta

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/comm"
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

// sameSlice reports the first block of the rank-local slice l that differs
// in any bit from the block at the same global position of want.
func sameSlice(name string, l *LocalBTA, want *Matrix) error {
	lo, hi := l.Part.Lo, l.Part.Hi
	if err := sameBlocks(name+" diag", l.Diag, want.Diag[lo:hi+1]); err != nil {
		return err
	}
	if err := sameBlocks(name+" lower", l.Lower, want.Lower[lo:hi]); err != nil {
		return err
	}
	if want.A > 0 {
		if err := sameBlocks(name+" arrow", l.Arrow, want.Arrow[lo:hi+1]); err != nil {
			return err
		}
	}
	if lo > 0 && !l.TopCoupling.Equal(want.Lower[lo-1], 0) {
		return fmt.Errorf("%s top coupling differs", name)
	}
	if l.Tip != nil && !l.Tip.Equal(want.Tip, 0) {
		return fmt.Errorf("%s tip differs", name)
	}
	return nil
}

// sameFactor reports the first factor block of rank df.rank of the
// distributed driver df (storage dfStore) that differs in any bit from the
// shared-memory driver pf (storage pfStore): the rank's slice of the
// consumed block storage, its partition's fill chain and, on rank 0, the
// reduced factor — or over one partition the sequential factor's storage.
func sameFactor(pf, df *partFactor, pfStore, dfStore *LocalBTA) error {
	if pf.P == 1 {
		seqStore := func(f *Factor) Matrix {
			return Matrix{N: f.N, B: f.B, A: f.A, Diag: f.Diag, Lower: f.Lower, Arrow: f.Arrow, Tip: f.Tip}
		}
		pw, dw := seqStore(pf.seq), seqStore(df.seq)
		return sameMatrix("factor", &dw, &pw)
	}
	pw := pfStore.whole()
	if err := sameSlice("factor", dfStore, &pw); err != nil {
		return err
	}
	ps, dps := pf.ps[df.rank], df.ps[0]
	if err := sameBlocks(fmt.Sprintf("partition %d fill chain", df.rank),
		dps.chain[:dps.chainUsed], ps.chain[:ps.chainUsed]); err != nil {
		return err
	}
	if df.rank == 0 {
		return sameMatrix("reduced factor", df.red, pf.red)
	}
	return nil
}

// sameInPlace factorizes good in s's Workspace, after a failed
// factorization of bad, and reports the first of the factor, the
// log-determinant, the solve, SolveLT and Σ that differs in any bit from
// ref, a solver that Refactorized good.
func sameInPlace(s, ref Solver, bad, good *Matrix, rhs []float64) error {
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

// TestOneDriverBitForBit is the contract of "one driver": the shared-memory
// factor and a distributed factor over P ranks, one partition each, run
// the same code with and without a communicator, so every rank's factor
// blocks, the log-determinant, the solve and every Σ block agree bit for
// bit with the shared-memory ones — at every partition count n = 13
// supports (P ≤ 7, reduced systems up to 12 blocks), with and without an
// arrowhead, with a size-2 middle partition, and after a failed (non-SPD)
// factorization. Over the single partition {0, n−1} both are the
// sequential Factor, bit for bit. One more column holds the in-place entry
// (Workspace + FactorizeWorkspace) of the shared-memory factor at every
// list, and of the sequential Factor at one partition, to Refactorize bit
// for bit.
func TestOneDriverBitForBit(t *testing.T) {
	const n, b = 13, 3
	rng := rand.New(rand.NewSource(77))
	lists := map[string][]Partition{
		"size-2 middle": {{0, 3}, {4, 5}, {6, 12}},
		"one partition": {{0, n - 1}},
	}
	for p := 2; p <= MaxPartitions(n); p++ {
		parts, err := Partitions(n, p) // NewParallelFactor's split
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

			pf, err := newParallelFactor(n, b, a, parts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := pf.Refactorize(bad); err == nil {
				t.Fatalf("%s: shared-memory factor accepted a non-SPD matrix", label)
			}
			if err := pf.Refactorize(good); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := append([]float64(nil), rhs...)
			pf.Solve(want)
			wantSig, err := pf.SelectedInversion()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// The in-place entry over storage a failed factorization left
			// dirty gives Refactorize's bits.
			ip, err := newParallelFactor(n, b, a, parts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameInPlace(ip, pf, bad, good, rhs); err != nil {
				t.Errorf("%s: in-place shared-memory factor: %v", label, err)
			}
			if len(parts) == 1 {
				if err := sameInPlace(NewFactor(n, b, a), pf.seq, bad, good, rhs); err != nil {
					t.Errorf("%s: in-place sequential factor: %v", label, err)
				}
				sf := NewFactor(n, b, a)
				if err := sf.Refactorize(bad); err == nil {
					t.Fatalf("%s: sequential factor accepted a non-SPD matrix", label)
				}
				if err := sf.Refactorize(good); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if sf.LogDet() != pf.LogDet() {
					t.Errorf("%s: logdet %v, sequential %v", label, pf.LogDet(), sf.LogDet())
				}
				x := append([]float64(nil), rhs...)
				sf.Solve(x)
				lt, sflt := append([]float64(nil), rhs...), append([]float64(nil), rhs...)
				pf.SolveLT(lt)
				sf.SolveLT(sflt)
				for i := range x {
					if x[i] != want[i] || lt[i] != sflt[i] {
						t.Fatalf("%s: entry %d: solve %v / %v, SolveLT %v / %v (sequential / shared-memory)",
							label, i, x[i], want[i], sflt[i], lt[i])
					}
				}
				sig, err := sf.SelectedInversion()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := sameMatrix("Σ", wantSig, sig); err != nil {
					t.Errorf("%s: sequential vs shared-memory: %v", label, err)
				}
			}

			if err := runWorld(len(parts), func(c *comm.Comm) {
				label := fmt.Sprintf("%s rank %d", label, c.Rank())
				local, err := LocalSlice(bad, parts, c.Rank())
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				df, err := NewDistFactor(local)
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				if err := PPOBTAF(c, df, local); err == nil {
					t.Errorf("%s: distributed factor accepted a non-SPD matrix", label)
					return
				}
				local.FillFrom(good)
				if err := PPOBTAF(c, df, local); err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				if err := sameFactor(&pf.partFactor, &df.partFactor, &pf.mem, local); err != nil {
					t.Errorf("%s: %v", label, err)
				}
				if got := df.LogDet(); got != pf.LogDet() {
					t.Errorf("%s: logdet %v, shared-memory %v", label, got, pf.LogDet())
				}
				lo, hi := local.Part.Lo*b, (local.Part.Hi+1)*b
				x, xTip, err := PPOBTAS(c, df, rhs[lo:hi], rhs[n*b:])
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				got := append(append([]float64(nil), x...), xTip...)
				wantLocal := append(append([]float64(nil), want[lo:hi]...), want[n*b:]...)
				for i := range wantLocal {
					if got[i] != wantLocal[i] {
						t.Errorf("%s: local solve[%d] = %v, shared-memory %v", label, i, got[i], wantLocal[i])
						return
					}
				}
				sig, err := PPOBTASI(c, df)
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				if err := sameSlice("Σ", sig, wantSig); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
	}
}
