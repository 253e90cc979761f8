package model

import (
	"fmt"
	"math"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// TestPriorClosedFormsMatchJointQp checks PriorLogDet and PriorQuad against
// the joint route they replace in the objective — the assembled Q_p,
// factorized by the BTA solver and, independently, by the general sparse
// Cholesky — over every shape the LMC identity has a term for: the
// coregional mixing (nv), the fixed-effect rows (nr) and both prior
// families.
func TestPriorClosedFormsMatchJointQp(t *testing.T) {
	const nt = 3
	for _, st := range []STKind{STSeparable, STDiffusion} {
		for nv := 1; nv <= 3; nv++ {
			for nr := 0; nr <= 2; nr++ {
				name := fmt.Sprintf("st=%d nv=%d nr=%d", st, nv, nr)
				m, th := testModelWith(t, nv, nt, nr, WithSTKind(st))
				qp, err := m.Qp(th)
				if err != nil {
					t.Fatal(err)
				}
				f, err := bta.Factorize(qp)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sf, err := sparse.CholFactorize(m.QpCSR(th), nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := m.PriorLogDet(th)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, want := range []float64{f.LogDet(), sf.LogDet()} {
					if math.Abs(got-want) > 1e-10*math.Abs(want) {
						t.Errorf("%s: PriorLogDet %v, factorized joint Q_p %v", name, got, want)
					}
				}

				x := make([]float64, m.Dims.Total())
				for i := range x {
					x[i] = math.Sin(0.7*float64(i)) + 0.1*float64(i%5)
				}
				qx := make([]float64, len(x))
				qp.MulVec(x, qx)
				want := dense.Dot(x, qx)
				gotQ := m.PriorQuad(th, x, make([]float64, m.Dims.PerProcess()))
				if math.Abs(gotQ-want) > 1e-12*math.Abs(want) {
					t.Errorf("%s: PriorQuad %v, xᵀ(Q_p·x) %v", name, gotQ, want)
				}
			}
		}
	}
}

// TestPriorSideAllocFree pins the cost model of an objective evaluation's
// prior side: once the Builder's workspace pool is warm, log det Q_p and
// xᵀQ_p·x allocate nothing (M = Λ_c⁻¹ is cached on the decoded Λ).
func TestPriorSideAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	for _, st := range []STKind{STSeparable, STDiffusion} {
		m, th := testModelWith(t, 3, 3, 2, WithSTKind(st))
		x := make([]float64, m.Dims.Total())
		for i := range x {
			x[i] = float64(i%11) - 5
		}
		scratch := make([]float64, m.Dims.PerProcess())
		run := func() {
			if _, err := m.PriorLogDet(th); err != nil {
				t.Fatal(err)
			}
			m.PriorQuad(th, x, scratch)
		}
		run() // warm the pool
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("st=%d: prior side allocates %.1f objects per evaluation, want 0", st, allocs)
		}
	}
}
