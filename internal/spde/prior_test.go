package spde

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// family pairs an assembly routine with its closed-form prior operations.
type family struct {
	name      string
	precision func(*Builder, Hyper) *sparse.CSR
	logDet    func(*Builder, Hyper) (float64, error)
	quad      func(*Builder, Hyper, []float64) float64
}

var families = []family{
	{"separable", (*Builder).Precision, (*Builder).LogDet, (*Builder).Quad},
	{"diffusion", (*Builder).DiffusionPrecision, (*Builder).DiffusionLogDet, (*Builder).DiffusionQuad},
}

// denseOracle returns log det Q by dense Cholesky and zᵀQz by an explicit
// sparse mat-vec of the assembled matrix.
func denseOracle(t *testing.T, q *sparse.CSR, z []float64) (logDet, quad float64) {
	t.Helper()
	l := q.ToDense()
	if err := dense.Potrf(l); err != nil {
		t.Fatalf("dense oracle: %v", err)
	}
	qz := make([]float64, len(z))
	q.MulVec(z, qz)
	return dense.LogDetFromChol(l), dense.Dot(z, qz)
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestPriorOpsMatchAssembledPrecision checks the four closed forms against
// the matrices Precision / DiffusionPrecision assemble. Any mis-transcribed
// term (a dropped log det C̃, T's boundary entries, the nt = 1 cases, the
// factor γΔt inside A) moves a result by far more than the tolerance.
func TestPriorOpsMatchAssembledPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, fam := range families {
		for _, nt := range []int{1, 2, 5} {
			for _, sc := range []struct {
				scale, tol float64
			}{
				{1, 1e-12},
				// On the km-scale mesh the entries of the diffusion matrix span
				// many orders of magnitude (C̃ ~ area, G ~ 1, f ~ 1/ρ_s⁴) and its
				// dense Cholesky — the oracle, not the closed form — loses
				// digits: 2e-11 at this size, towards 1e-8 as ns·nt grows.
				{100, 1e-8},
			} {
				b := NewBuilder(mesh.Uniform(5, 4, sc.scale, 0.8*sc.scale), nt)
				h := Hyper{RangeS: 0.4 * sc.scale, RangeT: 2.5, Sigma: 1.3}
				z := make([]float64, b.Dim())
				for i := range z {
					z[i] = rng.NormFloat64()
				}
				wantLD, wantQ := denseOracle(t, fam.precision(b, h), z)
				gotLD, err := fam.logDet(b, h)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s nt=%d scale=%g", fam.name, nt, sc.scale)
				if e := relErr(gotLD, wantLD); e > sc.tol {
					t.Errorf("%s: log det %v, dense Cholesky %v (rel %.2e)", name, gotLD, wantLD, e)
				}
				if e := relErr(fam.quad(b, h, z), wantQ); e > sc.tol {
					t.Errorf("%s: quad %v, explicit zᵀQz %v (rel %.2e)", name, fam.quad(b, h, z), wantQ, e)
				}
			}
		}
	}
}

// TestPriorLogDetRejectsNonSPD: a NaN hyperparameter must come back as an
// error (the evaluator quarantines the point), not as a NaN objective.
func TestPriorLogDetRejectsNonSPD(t *testing.T) {
	b := testBuilder(3)
	for _, fam := range families {
		if _, err := fam.logDet(b, Hyper{RangeS: math.NaN(), RangeT: 2, Sigma: 1}); err == nil {
			t.Errorf("%s: NaN range accepted", fam.name)
		}
	}
}

// TestPriorOpsConcurrentCallers: every evaluation of a batch shares one
// Builder, so the pooled Cholesky workspaces must give each caller private
// numeric storage. Run under -race.
func TestPriorOpsConcurrentCallers(t *testing.T) {
	b := testBuilder(3)
	z := make([]float64, b.Dim())
	for i := range z {
		z[i] = math.Sin(float64(i))
	}
	const callers, rounds = 8, 25
	hyper := func(g int) Hyper { return Hyper{RangeS: 20 + 5*float64(g), RangeT: 1.5 + float64(g), Sigma: 1} }
	for _, fam := range families {
		want := make([][2]float64, callers)
		for g := range want {
			ld, err := fam.logDet(b, hyper(g))
			if err != nil {
				t.Fatal(err)
			}
			want[g] = [2]float64{ld, fam.quad(b, hyper(g), z)}
		}
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					ld, err := fam.logDet(b, hyper(g))
					if err != nil {
						t.Error(err)
						return
					}
					if got := [2]float64{ld, fam.quad(b, hyper(g), z)}; got != want[g] {
						t.Errorf("%s caller %d round %d: %v, serial %v", fam.name, g, r, got, want[g])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
