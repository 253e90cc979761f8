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

// BenchmarkBlock reports the single-worker GFLOP/s of Gemm, Syrk,
// Trsm(Right, Trans), Potrf and Trtri at the BTA block sizes:
//
//	go test ./internal/dense -run '^$' -bench Block -benchtime 2000x
func BenchmarkBlock(b *testing.B) {
	for _, k := range blockKernels {
		for _, n := range blockSizes {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				prev := SetMaxWorkers(1)
				defer SetMaxWorkers(prev)
				run := k.setup(rand.New(rand.NewSource(int64(n))), n)
				run() // warm the packing pools
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(k.flops(float64(n))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
