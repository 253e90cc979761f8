// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation section plus the ablation studies (X1–X5) and the
// headline GEMM rate. Each benchmark runs its experiment driver in quick
// mode (trimmed sweeps) and reports the headline quantities via
// b.ReportMetric; cmd/dalia-bench runs the full sweeps and prints the
// complete series. The recorded end-to-end benchmark is `go run
// ./benchmark`.
//
// Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
package dalia_test

import (
	"testing"

	"github.com/dalia-hpc/dalia/internal/bench"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// reportLast publishes the last point of the named series as a metric.
func reportLast(b *testing.B, fig *bench.Figure, series, unit string) {
	b.Helper()
	for _, s := range fig.Series {
		if s.Name == series && len(s.Y) > 0 {
			b.ReportMetric(s.Y[len(s.Y)-1], unit)
			return
		}
	}
}

// BenchmarkKernelGemm1024 reports the headline dense-engine number: packed
// register-tiled GEMM GFLOP/s at n=1024, single-threaded. The packed-vs-
// naive comparison sweep is BenchmarkGemm*/BenchmarkGemmNaive* in
// internal/dense/kernel_test.go.
func BenchmarkKernelGemm1024(b *testing.B) {
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	n := 1024
	x := dense.New(n, n)
	y := dense.New(n, n)
	c := dense.New(n, n)
	for i := range x.Data {
		x.Data[i] = float64(i%17) * 0.25
		y.Data[i] = float64(i%13) * 0.5
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.Gemm(dense.NoTrans, dense.NoTrans, 1, x, y, 0, c)
	}
	b.StopTimer()
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s-packed")
}

// BenchmarkFig4StrongScaling regenerates the strong-scaling comparison of
// Fig. 4 (DALIA vs INLA_DIST-like vs R-INLA-like, univariate MB1).
func BenchmarkFig4StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig4(true)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, fig, "DALIA", "s/iter-widest")
		reportLast(b, fig, "R-INLA-like", "s/iter-rinla")
	}
}

// BenchmarkFig5SolverWeakScaling regenerates the solver weak-scaling
// microbenchmark of Fig. 5 (PPOBTAF/PPOBTAS/PPOBTASI efficiency, MB2).
func BenchmarkFig5SolverWeakScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig5(true)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, fig, "factorization lb=1.0", "eff%-factor")
		reportLast(b, fig, "triangular solve lb=1.0", "eff%-solve")
	}
}

// BenchmarkFig6aWeakScalingTime regenerates the weak scaling through the
// time domain of Fig. 6a (trivariate WA1).
func BenchmarkFig6aWeakScalingTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig6a(true)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, fig, "DALIA", "s/iter-widest")
	}
}

// BenchmarkFig6bWeakScalingSpace regenerates the weak scaling through mesh
// refinement of Fig. 6b (trivariate WA2, memory-cap-driven S3).
func BenchmarkFig6bWeakScalingSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig6b(true)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, fig, "DALIA", "s/iter-finest")
	}
}

// BenchmarkFig7StrongScaling regenerates the application-level strong
// scaling of Fig. 7 (trivariate SA1, full three-layer scheme).
func BenchmarkFig7StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig7(true)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, fig, "DALIA", "s/iter-widest")
		reportLast(b, fig, "efficiency %", "eff%-widest")
	}
}

// BenchmarkTable4Datasets materializes every Table IV dataset configuration
// (model assembly + mapping construction for each).
func BenchmarkTable4Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := bench.Table4()
		if len(fig.Notes) == 0 {
			b.Fatal("empty dataset table")
		}
	}
}

// BenchmarkAppAirPollution regenerates the §VI application numbers
// (elevation effects, correlations, downscaling RMSE) on the synthetic
// CAMS-like dataset.
func BenchmarkAppAirPollution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.App(true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.DownscaleRMSE, "rmse-downscaled")
		b.ReportMetric(rep.CoarseRMSE, "rmse-coarse")
	}
}

// BenchmarkMappingSparseToDense is ablation X1: Model.Qc's per-class
// in-place assembly vs naive O(n·b²) densification (§IV-F).
func BenchmarkMappingSparseToDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationMapping(true)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, fig, "per-class assembly", "s-assembly")
		reportLast(b, fig, "naive densification", "s-naive")
	}
}

// BenchmarkAblationBTAvsSparse is ablation X3: the structured solver
// against the general sparse Cholesky on identical conditional precisions.
func BenchmarkAblationBTAvsSparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationBTAvsSparse(true)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, fig, "BTA (DALIA)", "s-bta")
		reportLast(b, fig, "general sparse (R-INLA-like)", "s-sparse")
	}
}

// BenchmarkAblationLoadBalance is ablation X5: the lb sweep of §V-C.
func BenchmarkAblationLoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.AblationLB(true)
		if err != nil {
			b.Fatal(err)
		}
		reportLast(b, fig, "factorization", "s-factor")
		reportLast(b, fig, "triangular solve", "s-solve")
	}
}
