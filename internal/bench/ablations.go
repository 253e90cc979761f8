package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// AblationMapping (X1) compares Model.Qc — c(θ) and one block per class,
// assembled in place, the O(nnz) numeric-only construction of §IV-F —
// against the naive O(n·b²) densification across growing time horizons.
func AblationMapping(quick bool) (*Figure, error) {
	nts := []int{4, 8, 16, 32}
	if quick {
		nts = nts[:2]
	}
	fig := NewFigure("X1", "Q_c construction: per-class in-place assembly vs naive O(n·b²) densification", "time steps", "seconds")
	cached := fig.AddSeries("per-class assembly")
	naive := fig.AddSeries("naive densification")
	for _, nt := range nts {
		gen := synth.MB1().Gen
		gen.Nt = nt
		ds, err := synth.Generate(gen)
		if err != nil {
			return nil, err
		}
		t, err := ds.Model.DecodeTheta(ds.Theta0)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := ds.Model.Qc(t); err != nil {
			return nil, err
		}
		tc := time.Since(t0).Seconds()
		t1 := time.Now()
		if _, err := ds.Model.QcDensifyNaive(t); err != nil {
			return nil, err
		}
		tn := time.Since(t1).Seconds()
		cached.Add(float64(nt), tc)
		naive.Add(float64(nt), tn)
	}
	last := len(cached.Y) - 1
	fig.Note("naive/per-class ratio at the largest size: %.1f×", naive.Y[last]/cached.Y[last])
	return fig, nil
}

// AblationBTAvsSparse (X3) compares the structured BTA solver against the
// general sparse Cholesky (PARDISO stand-in) on the same Q_c: factorization
// + selected inversion, sweeping the spatial mesh size.
func AblationBTAvsSparse(quick bool) (*Figure, error) {
	type lvl struct{ nx, ny int }
	levels := []lvl{{4, 3}, {6, 5}, {9, 8}, {13, 10}}
	if quick {
		levels = levels[:2]
	}
	fig := NewFigure("X3", "Structured BTA solver vs general sparse Cholesky (factor + selected inversion)", "spatial nodes", "seconds")
	sBTA := fig.AddSeries("BTA (DALIA)")
	sSparse := fig.AddSeries("general sparse (R-INLA-like)")
	for _, lv := range levels {
		gen := synth.MB1().Gen
		gen.MeshNx, gen.MeshNy = lv.nx, lv.ny
		gen.Nt = 8
		ds, err := synth.Generate(gen)
		if err != nil {
			return nil, err
		}
		t, err := ds.Model.DecodeTheta(ds.Theta0)
		if err != nil {
			return nil, err
		}
		qcB, err := ds.Model.Qc(t)
		if err != nil {
			return nil, err
		}
		qcS := ds.Model.QcCSR(t)
		ns := float64(ds.Model.Dims.Ns)

		t0 := time.Now()
		f, err := bta.Factorize(qcB)
		if err != nil {
			return nil, err
		}
		if _, err := f.SelectedInversion(); err != nil {
			return nil, err
		}
		sBTA.Add(ns, time.Since(t0).Seconds())

		t1 := time.Now()
		sf, err := sparse.CholFactorize(qcS, nil)
		if err != nil {
			return nil, err
		}
		sf.SelectedInverseDiag()
		sSparse.Add(ns, time.Since(t1).Seconds())
	}
	last := len(sBTA.Y) - 1
	fig.Note("sparse/BTA ratio at the largest size: %.1f× (general sparse pays fill-in and irregular access)", sSparse.Y[last]/sBTA.Y[last])
	return fig, nil
}

// AblationLB (X5) sweeps the load-balancing factor of the time-domain
// partitioning at a fixed rank count, separating the three solver routines
// (§V-C: factorization/selected inversion improve with lb ≈ 1.6, the
// triangular solve deteriorates).
func AblationLB(quick bool) (*Figure, error) {
	spec := synth.MB2()
	p := 4
	lbs := []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	if quick {
		lbs = []float64{1.0, 1.6}
	}
	fig := NewFigure("X5", fmt.Sprintf("Load-balance factor sweep at %d ranks (MB2-scaled)", p), "lb", "virtual seconds")
	sFac := fig.AddSeries("factorization")
	sSol := fig.AddSeries("triangular solve")
	sInv := fig.AddSeries("selected inversion")
	g, err := fig5Matrix(spec, p)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(99))
	rhs := make([]float64, g.Dim())
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	for _, lb := range lbs {
		parts, err := bta.PartitionBlocks(g.N, p, lb)
		if err != nil {
			continue
		}
		tFac, tSol, tInv, err := solverPhaseSeconds(g, parts, rhs)
		if err != nil {
			return nil, err
		}
		sFac.Add(lb, tFac)
		sSol.Add(lb, tSol)
		sInv.Add(lb, tInv)
	}
	return fig, nil
}
