package bench

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// KernelResult is one measured point of the dense-engine microbenchmark
// suite. GFlops is 0 for measurements where a flop rate is not meaningful.
type KernelResult struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	Seconds float64 `json:"seconds"`
	GFlops  float64 `json:"gflops,omitempty"`
	Speedup float64 `json:"speedup,omitempty"` // packed over naive, same size
}

// KernelBaseline is the serialized benchmark baseline (BENCH_<pr>.json)
// that lets later PRs compare their perf trajectory against this one.
type KernelBaseline struct {
	// GoMaxProcs is the machine's scheduler width (context for the file);
	// Workers is the dense-kernel parallelism the measurements ran at —
	// always 1, the single-threaded convention of GFLOP/s tables.
	GoMaxProcs int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	Results    []KernelResult `json:"results"`
}

// timeIt runs fn reps times and returns the best wall time in seconds
// (min-of-reps suppresses scheduler noise the way GFLOP/s tables expect).
func timeIt(reps int, fn func()) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		dt := time.Since(t0).Seconds()
		if r == 0 || dt < best {
			best = dt
		}
	}
	return best
}

// Kernels measures the tiled BLAS-3 engine single-threaded: GEMM GFLOP/s
// (packed vs the retained naive kernel) at n ∈ {64, 256, 1024}, blocked
// POTRF, and the BTA Refactorize hot path. quick trims repetitions, not
// sizes — the n=1024 point is the headline speedup number.
func Kernels(quick bool) *KernelBaseline {
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	reps := 3
	if quick {
		reps = 1
	}
	rng := rand.New(rand.NewSource(99))
	out := &KernelBaseline{GoMaxProcs: runtime.GOMAXPROCS(0), Workers: 1}

	for _, n := range []int{64, 256, 1024} {
		a := dense.New(n, n)
		b := dense.New(n, n)
		c := dense.New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		flops := 2 * float64(n) * float64(n) * float64(n)
		tPacked := timeIt(reps, func() { dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a, b, 0, c) })
		tNaive := timeIt(reps, func() { dense.GemmNaive(dense.NoTrans, dense.NoTrans, 1, a, b, 0, c) })
		out.Results = append(out.Results,
			KernelResult{Name: "gemm", N: n, Seconds: tPacked, GFlops: flops / tPacked / 1e9, Speedup: tNaive / tPacked},
			KernelResult{Name: "gemm-naive", N: n, Seconds: tNaive, GFlops: flops / tNaive / 1e9})
	}

	// Blocked Cholesky at n = 1024.
	{
		n := 1024
		g := dense.New(n, n)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		spd := dense.New(n, n)
		dense.Syrk(dense.NoTrans, 1, g, 0, spd)
		spd.MirrorLowerToUpper()
		spd.AddDiag(float64(n))
		w := dense.New(n, n)
		t := timeIt(reps, func() {
			w.CopyFrom(spd)
			if err := dense.Potrf(w); err != nil {
				panic(err)
			}
		})
		out.Results = append(out.Results,
			KernelResult{Name: "potrf", N: n, Seconds: t, GFlops: float64(n) * float64(n) * float64(n) / 3 / t / 1e9})
	}

	// BTA Refactorize + solve cycle (the INLA per-θ solver cost).
	{
		nBlocks, bs, as := 16, 128, 8
		m := randSPDBTA(rng, nBlocks, bs, as)
		f := bta.NewFactor(nBlocks, bs, as)
		rhs := make([]float64, m.Dim())
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		t := timeIt(reps, func() {
			if err := f.Refactorize(m); err != nil {
				panic(err)
			}
			f.Solve(rhs)
		})
		out.Results = append(out.Results,
			KernelResult{Name: "pobtaf-refactorize-solve", N: nBlocks * bs, Seconds: t})
	}
	return out
}

// randSPDBTA builds a diagonally dominant (hence SPD) random BTA matrix.
func randSPDBTA(rng *rand.Rand, n, b, a int) *bta.Matrix {
	m := bta.NewMatrix(n, b, a)
	fill := func(d *dense.Matrix) {
		for i := 0; i < d.Rows; i++ {
			row := d.Row(i)
			for j := range row {
				row[j] = rng.NormFloat64() * 0.05
			}
		}
	}
	for i := 0; i < n; i++ {
		fill(m.Diag[i])
		m.Diag[i].Symmetrize()
		m.Diag[i].AddDiag(float64(b))
		if i < n-1 {
			fill(m.Lower[i])
		}
		if a > 0 {
			fill(m.Arrow[i])
		}
	}
	if a > 0 {
		fill(m.Tip)
		m.Tip.Symmetrize()
		m.Tip.AddDiag(float64(b))
	}
	return m
}

// WriteBaseline serializes the kernel baseline as indented JSON.
func WriteBaseline(b *KernelBaseline, path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PrintKernels renders the baseline as an aligned text table.
func PrintKernels(b *KernelBaseline, w *os.File) {
	fig := NewFigure("kernels", "dense engine microbenchmarks (single-threaded)", "n", "GFLOP/s")
	series := map[string]*Series{}
	for _, r := range b.Results {
		s := series[r.Name]
		if s == nil {
			s = fig.AddSeries(r.Name)
			series[r.Name] = s
		}
		s.Add(float64(r.N), r.GFlops)
	}
	fig.Fprint(w)
}
