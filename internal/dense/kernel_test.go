package dense

import (
	"math"
	"math/rand"
	"testing"
)

// TestMicroKernelMatchesGo cross-checks the active micro-kernel (assembly
// on capable amd64 CPUs) against the portable Go kernel on random packed
// panels, including k == 0 and odd k (the unrolled tail path).
func TestMicroKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{0, 1, 2, 3, 7, 16, 33, 255, 256} {
		a := make([]float64, k*MR)
		b := make([]float64, k*NR)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ldc := NR + 3 // non-trivial stride
		want := make([]float64, MR*ldc)
		got := make([]float64, MR*ldc)
		for i := range want {
			v := rng.NormFloat64()
			want[i] = v
			got[i] = v
		}
		ukernelGo(k, a, b, want, ldc)
		ukernel(k, a, b, got, ldc)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("k=%d: kernel mismatch at %d: got %g want %g", k, i, got[i], want[i])
			}
		}
	}
}

// TestPackedMoves checks the packs against their definitions, bit for bit,
// at widths that leave 0…3 columns past the vector groups, on strided
// operands: transposeRows8 both ways, yp[p·NR + r] = b[r, p], and the
// four-row panel of packPanelsA, panel[p·MR + r] = alpha·a[r, p].
func TestPackedMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 60, 143, 144} {
		stride := n + 3
		b := make([]float64, (NR-1)*stride+n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		yp := make([]float64, n*NR)
		transposeRows8(yp, b, stride, n, false)
		for p := 0; p < n; p++ {
			for r := 0; r < NR; r++ {
				if yp[p*NR+r] != b[r*stride+p] {
					t.Fatalf("n=%d: packed (%d,%d) is %v, want %v", n, p, r, yp[p*NR+r], b[r*stride+p])
				}
			}
		}
		back := make([]float64, len(b))
		for i := range back {
			back[i] = -1
		}
		transposeRows8(yp, back, stride, n, true)
		for i, v := range back {
			want := b[i]
			if i%stride >= n {
				want = -1 // the gap between rows is never written
			}
			if v != want {
				t.Fatalf("n=%d: unpacked element %d is %v, want %v", n, i, v, want)
			}
		}
		panel := make([]float64, n*MR)
		packPanelsA(panel, NoTrans, b, stride, 1, 0, MR, n, -1.5)
		for p := 0; p < n; p++ {
			for r := 0; r < MR; r++ {
				if want := -1.5 * b[(1+r)*stride+p]; panel[p*MR+r] != want {
					t.Fatalf("n=%d: A panel (%d,%d) is %v, want %v", n, p, r, panel[p*MR+r], want)
				}
			}
		}
	}
}

func benchGemm(b *testing.B, n int, naive bool) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(1))
	x := New(n, n)
	y := New(n, n)
	c := New(n, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			GemmNaive(NoTrans, NoTrans, 1, x, y, 0, c)
		} else {
			Gemm(NoTrans, NoTrans, 1, x, y, 0, c)
		}
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGemm64(b *testing.B)        { benchGemm(b, 64, false) }
func BenchmarkGemm256(b *testing.B)       { benchGemm(b, 256, false) }
func BenchmarkGemm1024(b *testing.B)      { benchGemm(b, 1024, false) }
func BenchmarkGemmNaive64(b *testing.B)   { benchGemm(b, 64, true) }
func BenchmarkGemmNaive256(b *testing.B)  { benchGemm(b, 256, true) }
func BenchmarkGemmNaive1024(b *testing.B) { benchGemm(b, 1024, true) }

func benchPotrf(b *testing.B, n int) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(2))
	g := New(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	spd := New(n, n)
	Syrk(NoTrans, 1, g, 0, spd)
	spd.MirrorLowerToUpper()
	spd.AddDiag(float64(n))
	w := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.CopyFrom(spd)
		if err := Potrf(w); err != nil {
			b.Fatal(err)
		}
	}
	flops := float64(n) * float64(n) * float64(n) / 3
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkPotrf256(b *testing.B)  { benchPotrf(b, 256) }
func BenchmarkPotrf1024(b *testing.B) { benchPotrf(b, 1024) }

// TestGemmZeroAllocSteadyState: after warm-up, repeated Gemm calls on the
// packed path recycle all packing buffers through the pools, serially and
// fanned out (kernel widths 1 and 4).
func TestGemmZeroAllocSteadyState(t *testing.T) {
	if RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	n := 192
	x := New(n, n)
	y := New(n, n)
	c := New(n, n)
	for i := range x.Data {
		x.Data[i] = float64(i % 13)
		y.Data[i] = float64(i % 11)
	}
	for _, w := range []int{1, 4} {
		prev := SetMaxWorkers(w)
		Gemm(NoTrans, NoTrans, 1, x, y, 0, c) // warm the pools
		allocs := testing.AllocsPerRun(20, func() {
			Gemm(NoTrans, Trans, 1, x, y, 0.5, c)
		})
		SetMaxWorkers(prev)
		if allocs != 0 {
			t.Fatalf("width %d: packed Gemm allocates %.1f objects per call in steady state, want 0", w, allocs)
		}
	}
}
