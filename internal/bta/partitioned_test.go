package bta

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// TestNewLocalBTARejectsBadLayouts: a stream layout that does not match the
// partition list, or a rank outside it, errors instead of slicing out of
// range — for every caller, since this is the only constructor.
func TestNewLocalBTARejectsBadLayouts(t *testing.T) {
	parts, err := PartitionBlocks(12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		streams []int
		rank    int
	}{
		{"layout wider than the partition list", UniformStreams(3, 2), 2},
		{"layout narrower than the partition list", UniformStreams(2, 1), 0},
		{"stream count < 1", []int{3, 0, 1}, 0},
		{"negative rank", UniformStreams(2, 2), -1},
		{"rank past the layout", UniformStreams(2, 2), 2},
	} {
		if l, err := NewLocalBTA(parts, tc.streams, tc.rank, 12, 2, 1); err == nil {
			t.Errorf("%s: got slice over %+v, want an error", tc.name, l.Part)
		}
		if _, err := LocalSlice(NewMatrix(12, 2, 1), parts, tc.streams, tc.rank); err == nil {
			t.Errorf("%s: LocalSlice accepted the layout", tc.name)
		}
	}
	l, err := NewLocalBTA(parts, UniformStreams(2, 2), 1, 12, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Partition{Lo: parts[2].Lo, Hi: parts[3].Hi}); l.Part != want || len(l.Sub) != 2 {
		t.Fatalf("rank 1 of 2×2 owns %+v %+v, want span %+v", l.Part, l.Sub, want)
	}
	// A hand-built slice whose layout disagrees with itself cannot seed a factor.
	l.Streams = []int{3, 1}
	if _, err := NewDistFactor(l); err == nil {
		t.Fatal("NewDistFactor accepted a rank owning 2 partitions under a layout recording 1")
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

// sameFactor reports the first factor block of the shared-memory driver pf
// (storage pfStore) that differs in any bit from the distributed driver df
// (storage dfStore): the consumed block storage, the fill chains and the
// reduced factor, or over one partition the sequential factor's storage.
func sameFactor(pf, df *partFactor, pfStore, dfStore *LocalBTA) error {
	pw, dw := pfStore.whole(), dfStore.whole()
	if pf.P == 1 {
		seqStore := func(f *Factor) Matrix {
			return Matrix{N: f.N, B: f.B, A: f.A, Diag: f.Diag, Lower: f.Lower, Arrow: f.Arrow, Tip: f.Tip}
		}
		pw, dw = seqStore(pf.seq), seqStore(df.seq)
	}
	if err := sameMatrix("factor", &pw, &dw); err != nil {
		return err
	}
	for j, ps := range pf.ps {
		if err := sameBlocks(fmt.Sprintf("partition %d fill chain", ps.global),
			ps.chain[:ps.chainUsed], df.ps[j].chain[:df.ps[j].chainUsed]); err != nil {
			return err
		}
	}
	if pf.P > 1 {
		if err := sameMatrix("reduced factor", pf.red, df.red); err != nil {
			return err
		}
	}
	return nil
}

// TestOneDriverBitForBit is the contract of "one driver": the shared-memory
// factor and a one-rank distributed factor over the same partition list are
// the same code with and without a communicator, so the factor, the
// log-determinant, the solve and every Σ block agree bit for bit — at every
// partition count n = 13 supports (P ≤ 7, reduced systems up to 12 blocks),
// with and without an arrowhead, with a size-2 middle partition, and after
// a failed (non-SPD) factorization. Over the single partition {0, n−1} both
// are the sequential Factor, bit for bit.
func TestOneDriverBitForBit(t *testing.T) {
	const n, b = 13, 3
	rng := rand.New(rand.NewSource(77))
	lists := map[string][]Partition{
		"size-2 middle": {{0, 3}, {4, 5}, {6, 12}},
		"one partition": {{0, n - 1}},
	}
	for p := 2; p <= MaxPartitions(n); p++ {
		// NewParallelFactor's split: load-balanced, else even.
		parts, err := PartitionBlocks(n, p, defaultLoadBalance)
		if err != nil {
			if parts, err = PartitionBlocks(n, p, 1); err != nil {
				t.Fatal(err)
			}
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
			streams := []int{len(parts)}

			pf := &ParallelFactor{}
			if err := pf.init(n, b, a, parts, streams, 0, nil); err != nil {
				t.Fatal(err)
			}
			pf.mem = wholeSlice(NewMatrix(n, b, a))
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
			if len(parts) == 1 {
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

			if err := runWorld(1, func(c *comm.Comm) {
				local, err := LocalSlice(bad, parts, streams, 0)
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
				x, xTip, err := PPOBTAS(c, df, rhs[:n*b], rhs[n*b:])
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				for i, v := range append(append([]float64(nil), x...), xTip...) {
					if v != want[i] {
						t.Errorf("%s: solve[%d] = %v, shared-memory %v", label, i, v, want[i])
						return
					}
				}
				sig, err := PPOBTASI(c, df)
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				got := sig.whole()
				if err := sameMatrix("Σ", &got, wantSig); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
	}
}
