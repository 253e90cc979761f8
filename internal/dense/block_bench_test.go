package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

// blockSizes are the BTA block sizes the kernels run at in this repository:
// b = nv·ns from a 16-node single-process mesh up to 192, with the benchmark
// workloads' b = 60 (fit_tri_gauss) and b = 144 (fit_uni_gauss) among them.
var blockSizes = []int{16, 32, 60, 90, 128, 144, 192}

// blockKernel is one BLAS-3 routine of a BTA elimination step at n×n: flops
// counts its floating-point operations, setup builds the operands once and
// returns the timed call (which restores its in-place operand first, so
// every iteration sees the same input).
type blockKernel struct {
	name  string
	flops func(n float64) float64
	setup func(rng *rand.Rand, n int) func()
}

var blockKernels = []blockKernel{
	{"gemm", func(n float64) float64 { return 2 * n * n * n }, func(rng *rand.Rand, n int) func() {
		x, y, c := randMat(rng, n, n), randMat(rng, n, n), New(n, n)
		return func() { Gemm(NoTrans, NoTrans, 1, x, y, 0, c) }
	}},
	{"syrk", func(n float64) float64 { return n * n * n }, func(rng *rand.Rand, n int) func() {
		x, c := randMat(rng, n, n), New(n, n)
		return func() { Syrk(NoTrans, 1, x, 0, c) }
	}},
	{"trsm", func(n float64) float64 { return n * n * n }, func(rng *rand.Rand, n int) func() {
		l, _ := Chol(randSPD(rng, n))
		y, z := randMat(rng, n, n), New(n, n)
		return func() {
			z.CopyFrom(y)
			Trsm(Right, Trans, l, z)
		}
	}},
	{"potrf", func(n float64) float64 { return n * n * n / 3 }, func(rng *rand.Rand, n int) func() {
		spd, w := randSPD(rng, n), New(n, n)
		return func() {
			w.CopyFrom(spd)
			if err := Potrf(w); err != nil {
				panic(err)
			}
		}
	}},
	{"trtri", func(n float64) float64 { return n * n * n / 3 }, func(rng *rand.Rand, n int) func() {
		l, _ := Chol(randSPD(rng, n))
		w := New(n, n)
		return func() {
			w.CopyFrom(l)
			if err := Trtri(w); err != nil {
				panic(err)
			}
		}
	}},
}

// stepShapes are the (b, a) shapes of the step kernel: the two benchmark
// block shapes, fit_tri_gauss and fit_uni_gauss.
var stepShapes = [][2]int{{60, 3}, {144, 2}}

// stepFlops counts one elimination step of a one-sided partition with a
// next block and an arrowhead, at the kernels' rates above: Potrf, the two
// coupling Trsm, the Syrk onto the next diagonal block, the arrow Gemm and
// the Syrk onto the tip.
func stepFlops(b, a float64) float64 {
	return b*b*b/3 + b*b*b + a*b*b + b*b*b + 2*a*b*b + a*a*b
}

// setupStep returns one elimination step at (b, a) as Eliminate runs it in
// the sequential factorization, restoring its operands first.
func setupStep(rng *rand.Rand, b, a int) func() {
	src := newStepCase(rng, b, a, false, true)
	sc := src.clone()
	return func() {
		sc.a.CopyFrom(src.a)
		for i := range sc.g {
			if sc.g[i] != nil {
				sc.g[i].CopyFrom(src.g[i])
			}
			for j := range sc.s[i] {
				if sc.s[i][j] != nil {
					sc.s[i][j].CopyFrom(src.s[i][j])
				}
			}
		}
		if err := Eliminate(sc.a, sc.g, sc.s); err != nil {
			panic(err)
		}
	}
}

// invertFlops counts one selected-inversion step (Invert) of a one-sided
// partition with a next block and an arrowhead, at the rates above: L⁻¹
// and L⁻ᵀ·L⁻¹ over their triangles, the two coupling solves, the products
// onto Σ_{k+1,k} and Σ_{a,k}, and the lower-triangle update of Σ_kk.
func invertFlops(b, a float64) float64 {
	return 2*b*b*b/3 + b*b*b + a*b*b + 2*b*b*b + 2*a*b*b + 2*a*b*b + 2*a*a*b + b*b*b + a*b*b
}

// setupInvert returns one selected-inversion step at (b, a) as the
// sequential selected inversion runs it. Invert leaves its inputs as they
// were, so nothing is restored between runs.
func setupInvert(rng *rand.Rand, b, a int) func() {
	ic := newInvertCase(rng, b, a, false, true)
	return func() {
		if err := ic.invert(); err != nil {
			panic(err)
		}
	}
}

// BenchmarkBlock reports the single-worker GFLOP/s of Gemm, Syrk,
// Trsm(Right, Trans), Potrf and Trtri at the BTA block sizes, and of one
// elimination step (Eliminate) and one selected-inversion step (Invert)
// at the benchmark block shapes:
//
//	go test ./internal/dense -run '^$' -bench Block -benchtime 2000x
func BenchmarkBlock(b *testing.B) {
	bench := func(name string, flops float64, setup func(*rand.Rand) func(), seed int64) {
		b.Run(name, func(b *testing.B) {
			prev := SetMaxWorkers(1)
			defer SetMaxWorkers(prev)
			run := setup(rand.New(rand.NewSource(seed)))
			run() // warm the packing pools
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
	for _, k := range blockKernels {
		for _, n := range blockSizes {
			bench(fmt.Sprintf("%s/n=%d", k.name, n), k.flops(float64(n)),
				func(rng *rand.Rand) func() { return k.setup(rng, n) }, int64(n))
		}
	}
	for _, sh := range stepShapes {
		bench(fmt.Sprintf("step/n=%d/a=%d", sh[0], sh[1]), stepFlops(float64(sh[0]), float64(sh[1])),
			func(rng *rand.Rand) func() { return setupStep(rng, sh[0], sh[1]) }, int64(sh[0]))
		bench(fmt.Sprintf("invert/n=%d/a=%d", sh[0], sh[1]), invertFlops(float64(sh[0]), float64(sh[1])),
			func(rng *rand.Rand) func() { return setupInvert(rng, sh[0], sh[1]) }, int64(sh[0]))
	}
}
