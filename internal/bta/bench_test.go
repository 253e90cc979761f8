package bta

import (
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// TestRefactorizeMatchesFactorize: the workspace-reusing path must produce
// the same factor as the allocating one.
func TestRefactorizeMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randBTA(rng, 5, 24, 3)
	want, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFactor(5, 24, 3)
	// Run twice to confirm refills do not depend on prior contents.
	for pass := 0; pass < 2; pass++ {
		if err := f.Refactorize(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m.N; i++ {
		if !f.Diag[i].Equal(want.Diag[i], 1e-12) {
			t.Fatalf("diag block %d differs", i)
		}
		if i < m.N-1 && !f.Lower[i].Equal(want.Lower[i], 1e-12) {
			t.Fatalf("lower block %d differs", i)
		}
		if m.A > 0 && !f.Arrow[i].Equal(want.Arrow[i], 1e-12) {
			t.Fatalf("arrow block %d differs", i)
		}
	}
	if m.A > 0 && !f.Tip.Equal(want.Tip, 1e-12) {
		t.Fatal("tip differs")
	}
}

// TestRefactorizeShapeMismatch: refilling a factor of a different shape is
// an error, not a corruption.
func TestRefactorizeShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randBTA(rng, 4, 8, 2)
	f := NewFactor(4, 8, 3)
	if err := f.Refactorize(m); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

// allocShapes are the (n, b, a) shapes the zero-allocation pins run at: a
// generic one and the two benchmark block sizes, b=60 with a 3-row arrow
// (fit_tri_gauss) and b=144 with a 2-row arrow (fit_uni_gauss). All of them
// route every block operation through the packed kernels and their pools.
var allocShapes = [][3]int{{4, 96, 4}, {8, 60, 3}, {4, 144, 2}}

// allocWidths are the kernel widths the pins run at: serial, and fanned
// out as fits run at GOMAXPROCS (every Trsm and Gemm of ≥ 128 rows splits).
var allocWidths = []int{1, 4}

// TestRefactorizeSolveZeroAlloc is the acceptance gate of the
// zero-allocation hot path: after warm-up, a full factorization + Solve +
// SolveLT + LogDet cycle — one INLA θ-evaluation's worth of solver work —
// touches no fresh heap, at every kernel width, through Refactorize and
// through the in-place entry (the matrix written into the Workspace, then
// FactorizeWorkspace).
func TestRefactorizeSolveZeroAlloc(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(13))
	for _, w := range allocWidths {
		for _, sh := range allocShapes {
			n, b, a := sh[0], sh[1], sh[2]
			m := randBTA(rng, n, b, a)
			f := NewFactor(n, b, a)
			rhs0 := randVec(rng, m.Dim())
			rhs := make([]float64, m.Dim())
			prev := dense.SetMaxWorkers(w)
			for _, inPlace := range []bool{false, true} {
				cycle := func() {
					if inPlace {
						f.Workspace().CopyFrom(m)
						if err := f.FactorizeWorkspace(); err != nil {
							t.Fatal(err)
						}
					} else if err := f.Refactorize(m); err != nil {
						t.Fatal(err)
					}
					copy(rhs, rhs0)
					f.Solve(rhs)
					f.SolveLT(rhs)
					_ = f.LogDet()
				}
				cycle() // warm-up: fills the factor storage and the dense packing pools
				if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
					t.Fatalf("width %d n=%d b=%d a=%d in place %v: factorize+Solve+SolveLT cycle allocates %.1f objects per run in steady state, want 0",
						w, n, b, a, inPlace, allocs)
				}
			}
			dense.SetMaxWorkers(prev)
		}
	}
}

// TestSelectedInversionIntoZeroAlloc: the sequential selected inversion —
// one dense.Invert step per block and one for the tip, every packed panel
// drawn from the dense pools — allocates nothing once the pools are warm,
// at every kernel width.
func TestSelectedInversionIntoZeroAlloc(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(15))
	for _, w := range allocWidths {
		for _, sh := range allocShapes {
			n, b, a := sh[0], sh[1], sh[2]
			f, err := Factorize(randBTA(rng, n, b, a))
			if err != nil {
				t.Fatal(err)
			}
			sig := NewMatrix(n, b, a)
			prev := dense.SetMaxWorkers(w)
			if err := f.SelectedInversionInto(sig); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := f.SelectedInversionInto(sig); err != nil {
					t.Fatal(err)
				}
			})
			dense.SetMaxWorkers(prev)
			if allocs != 0 {
				t.Fatalf("width %d n=%d b=%d a=%d: SelectedInversionInto allocates %.1f objects per run in steady state, want 0", w, n, b, a, allocs)
			}
		}
	}
}

// benchPOBTAF measures the sequential factorization wall-time at a
// paper-like shape, with and without workspace reuse.
func benchPOBTAF(b *testing.B, reuse bool) {
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(14))
	m := randBTA(rng, 16, 128, 8)
	f := NewFactor(16, 128, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reuse {
			if err := f.Refactorize(m); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := Factorize(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPOBTAFRefactorize(b *testing.B) { benchPOBTAF(b, true) }
func BenchmarkPOBTAFFactorize(b *testing.B)   { benchPOBTAF(b, false) }
