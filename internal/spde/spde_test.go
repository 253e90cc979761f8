package spde

import (
	"math"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

func testBuilder(nt int) *Builder {
	return NewBuilder(mesh.Uniform(5, 4, 100, 80), nt)
}

func TestHyperConversions(t *testing.T) {
	if k := KappaFromRange(math.Sqrt(8)); math.Abs(k-1) > 1e-12 {
		t.Fatalf("kappa = %v, want 1", k)
	}
	// τ from κ, σ inverts the marginal variance formula.
	kappa, sigma := 0.7, 2.0
	tau := TauFromKappaSigma(kappa, sigma)
	back := 1 / (math.Sqrt(4*math.Pi) * kappa * tau)
	if math.Abs(back-sigma) > 1e-12 {
		t.Fatalf("sigma round trip %v want %v", back, sigma)
	}
	// AR coefficient: correlation 0.1 at lag ρ_t.
	a := ARCoeff(5)
	if math.Abs(math.Pow(a, 5)-0.1) > 1e-12 {
		t.Fatalf("a^5 = %v, want 0.1", math.Pow(a, 5))
	}
	if a <= 0 || a >= 1 {
		t.Fatalf("AR coefficient %v outside (0,1)", a)
	}
}

func TestARCoeffPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative temporal range must panic")
		}
	}()
	ARCoeff(-1)
}

func TestSpatialPrecisionSPD(t *testing.T) {
	b := testBuilder(1)
	q := b.SpatialPrecision(0.1, 1.0)
	if !q.IsSymmetric(1e-10) {
		t.Fatal("spatial precision not symmetric")
	}
	if _, err := sparse.CholFactorize(q, nil); err != nil {
		t.Fatalf("spatial precision not SPD: %v", err)
	}
}

func TestTemporalPrecisionMatchesAR1Covariance(t *testing.T) {
	// For the scalar AR(1), the precision implies covariance
	// Cov(x_s, x_t) = a^|s−t| / (1−a²); verify by dense inversion.
	const nt = 6
	a := 0.6
	q := TemporalPrecision(nt, a)
	inv, err := denseInverse(q)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nt; s++ {
		for u := 0; u < nt; u++ {
			want := math.Pow(a, math.Abs(float64(s-u))) / (1 - a*a)
			if math.Abs(inv.At(s, u)-want) > 1e-10 {
				t.Fatalf("cov(%d,%d) = %v want %v", s, u, inv.At(s, u), want)
			}
		}
	}
}

func TestTemporalPrecisionSingleStep(t *testing.T) {
	q := TemporalPrecision(1, 0.5)
	if q.Rows() != 1 || math.Abs(q.At(0, 0)-0.75) > 1e-12 {
		t.Fatalf("nt=1 precision %v, want 1−a² = 0.75", q.At(0, 0))
	}
}

func TestPrecisionIsBlockTridiagonal(t *testing.T) {
	b := testBuilder(4)
	q := b.Precision(Hyper{RangeS: 50, RangeT: 3, Sigma: 1})
	ns := b.Ns()
	if q.Rows() != 4*ns {
		t.Fatalf("dim %d want %d", q.Rows(), 4*ns)
	}
	// Verify block-tridiagonal: every entry within one block of the
	// diagonal in block coordinates.
	for i := 0; i < q.Rows(); i++ {
		bi := i / ns
		for p := q.RowPtr[i]; p < q.RowPtr[i+1]; p++ {
			bj := q.ColIdx[p] / ns
			if d := bi - bj; d < -1 || d > 1 {
				t.Fatalf("entry (%d,%d) outside block tridiagonal", i, q.ColIdx[p])
			}
		}
	}
	// And extractable into the bta.Matrix form without pattern violations.
	if _, err := bta.FromCSR(q, 4, ns, 0); err != nil {
		t.Fatalf("BTA extraction failed: %v", err)
	}
}

func TestPrecisionSPDAndLogDetConsistency(t *testing.T) {
	b := testBuilder(3)
	q := b.Precision(Hyper{RangeS: 40, RangeT: 2, Sigma: 1.5})
	f, err := sparse.CholFactorize(q, nil)
	if err != nil {
		t.Fatalf("ST precision not SPD: %v", err)
	}
	// Cross-check the log-determinant against the BTA factorization.
	m, err := bta.FromCSR(q, 3, b.Ns(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := bta.Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.LogDet()-bf.LogDet()) > 1e-6*math.Abs(f.LogDet()) {
		t.Fatalf("sparse logdet %v != BTA logdet %v", f.LogDet(), bf.LogDet())
	}
}

func TestPrecisionMarginalVarianceCalibration(t *testing.T) {
	// The stationary marginal variance of interior nodes should be close to
	// σ² (FEM boundary effects inflate edge nodes; check the median).
	b := NewBuilder(mesh.Uniform(9, 9, 200, 200), 6)
	sigma := 1.7
	q := b.Precision(Hyper{RangeS: 50, RangeT: 3, Sigma: sigma})
	f, err := sparse.CholFactorize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	vars := f.SelectedInverseDiag()
	med := median(vars)
	want := sigma * sigma
	if med < 0.3*want || med > 3*want {
		t.Fatalf("median marginal variance %v too far from σ² = %v", med, want)
	}
}

func TestKroneckerStructureMatchesManualAssembly(t *testing.T) {
	// Q = T ⊗ Qs: block (s,u) equals T[s,u]·Qs.
	b := testBuilder(3)
	kappa := KappaFromRange(60.0)
	a := ARCoeff(2.5)
	tau := TauFromKappaSigma(kappa, 1)
	q := b.PrecisionST(kappa, a, tau)
	qs := b.SpatialPrecision(kappa, tau)
	tm := TemporalPrecision(3, a)
	ns := b.Ns()
	for s := 0; s < 3; s++ {
		for u := 0; u < 3; u++ {
			tv := tm.At(s, u)
			for i := 0; i < ns; i++ {
				for p := qs.RowPtr[i]; p < qs.RowPtr[i+1]; p++ {
					j := qs.ColIdx[p]
					want := tv * qs.Val[p]
					got := q.At(s*ns+i, u*ns+j)
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("kron block (%d,%d) entry (%d,%d): %v want %v", s, u, i, j, got, want)
					}
				}
			}
		}
	}
}

func TestBuilderPanicsOnBadNt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nt=0 must panic")
		}
	}()
	testBuilder(0)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func denseInverse(q *sparse.CSR) (*dense.Matrix, error) {
	return dense.Inverse(q.ToDense())
}

// TestCoeffsDerivMatchesDifferences holds the closed-form derivatives of
// both families' block weights, with respect to log ρ_s and log ρ_t, to
// fourth-order central differences of the weights, at nt = 1, 2 and 5 and
// at short and long ranges.
func TestCoeffsDerivMatchesDifferences(t *testing.T) {
	type family struct {
		name   string
		coeffs func(*Builder, Hyper) BlockCoeffs
		deriv  func(*Builder, Hyper) (BlockCoeffs, BlockCoeffs)
	}
	families := []family{
		{"separable", (*Builder).SeparableCoeffs, (*Builder).SeparableCoeffsDeriv},
		{"diffusion", (*Builder).DiffusionCoeffs, (*Builder).DiffusionCoeffsDeriv},
	}
	for _, fam := range families {
		for _, nt := range []int{1, 2, 5} {
			b := testBuilder(nt)
			for _, h := range []Hyper{{RangeS: 15, RangeT: 2, Sigma: 1}, {RangeS: 120, RangeT: 7, Sigma: 1.3}} {
				dS, dT := fam.deriv(b, h)
				for k, want := range []BlockCoeffs{dS, dT} {
					at := func(s float64) BlockCoeffs {
						g := h
						if k == 0 {
							g.RangeS *= math.Exp(s)
						} else {
							g.RangeT *= math.Exp(s)
						}
						return fam.coeffs(b, g)
					}
					const e = 1e-3
					p1, m1, p2, m2 := at(e), at(-e), at(2*e), at(-2*e)
					for c := range want {
						for x := range want[c] {
							fd := (8*(p1[c][x]-m1[c][x]) - (p2[c][x] - m2[c][x])) / (12 * e)
							scale := math.Abs(at(0)[c][x]) + math.Abs(fd)
							if math.Abs(want[c][x]-fd) > 1e-8*scale {
								t.Fatalf("%s nt=%d %+v: d/dlog ρ[%d] of class %d term %d = %v, differences %v",
									fam.name, nt, h, k, c, x, want[c][x], fd)
							}
						}
					}
				}
			}
		}
	}
}
