package model

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// frobenius returns ⟨a, b⟩ and Σ|a_ij·b_ij|, the scale its rounding is
// relative to.
func frobenius(a, b *dense.Matrix) (dot, scale float64) {
	for i := 0; i < a.Rows; i++ {
		for j, x := range a.Row(i) {
			p := x * b.At(i, j)
			dot += p
			scale += math.Abs(p)
		}
	}
	return dot, scale
}

// dot is c(t)·S + W(t)·S_gram = ⟨Σ, Q_c(t)⟩ + μᵀQ_p(t)μ for the Σ and μ
// last contracted, and Σ of the absolute terms, the scale its rounding is
// relative to.
func (tb *QcTable) dot(t *Theta) (q, scale float64) {
	m := tb.m
	fw := m.getFill()
	defer m.fillPool.Put(fw)
	m.priorWeights(t, fw)
	noiseWInto(t, fw.w)
	for i, c := range fw.coef {
		for x := range c {
			p := c[x] * tb.s[i][x]
			q += p
			scale += math.Abs(p)
		}
	}
	for i, w := range fw.w {
		q += w * tb.gram[i]
		scale += math.Abs(w * tb.gram[i])
	}
	return q, scale
}

// TestQcTableMatchesDense is the contraction table's oracle: with Σ the
// dense inverse of Q_c and μ a random state, every entry S[pair, class,
// term] equals the dense Frobenius product of Σ + μμᵀ, and S_gram[pair]
// that of Σ, with the matrix the weight multiplies — assembled from a
// one-hot weight vector — to 1e-10 relative, and the table's dot product
// at another θ′ equals ⟨Σ, Q_c(θ′)⟩ + μᵀQ_p(θ′)μ, on the benchmark shapes
// and the tables' structural corners. The table of the selected inverse
// (bta POBTASI) agrees with the one of the dense inverse's blocks, and
// ⟨Q_c⁻¹, Q_c⟩ is the dimension.
func TestQcTableMatchesDense(t *testing.T) {
	for _, s := range append(append([]shape(nil), benchmarkShapes...), cornerShapes...) {
		s.lik = LikGaussian
		t.Run(s.name, func(t *testing.T) {
			m, th := s.build(t)
			n, b, a := m.Dims.BTAShape()
			qc, err := m.Qc(th)
			if err != nil {
				t.Fatal(err)
			}
			sigD, err := dense.Inverse(qc.ToDense())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			mu := make([]float64, qc.Dim())
			for i := range mu {
				mu[i] = rng.NormFloat64()
			}
			sigMu := sigD.Clone()
			for i := range mu {
				for j := range mu {
					sigMu.Set(i, j, sigMu.At(i, j)+mu[i]*mu[j])
				}
			}
			tb := m.NewQcTable()
			if err := tb.Contract(bta.FromDense(sigD, n, b, a), mu); err != nil {
				t.Fatal(err)
			}
			check := func(what string, got float64, with *dense.Matrix, basis *bta.Matrix) {
				t.Helper()
				want, scale := frobenius(with, basis.ToDense())
				if math.Abs(got-want) > 1e-10*scale {
					t.Fatalf("%s: table %v, dense %v (scale %v)", what, got, want, scale)
				}
			}
			fw := m.getFill()
			defer m.fillPool.Put(fw)
			basis := bta.NewMatrix(n, b, a)
			for i := range fw.coef {
				for x := range fw.coef[i] {
					clear(fw.coef)
					clear(fw.w)
					fw.coef[i][x] = 1
					m.fillPrior(fw, basis)
					check("S", tb.s[i][x], sigMu, basis)
				}
			}
			for i := range fw.w {
				clear(fw.coef)
				clear(fw.w)
				fw.w[i] = 1
				m.fillPrior(fw, basis)
				m.addData(fw, m.gram.Val, 0, basis)
				check("S_gram", tb.gram[i], sigD, basis)
			}
			th2 := shapeTheta(t, s.nv, 250, 0.3)
			qc2, err := m.Qc(th2)
			if err != nil {
				t.Fatal(err)
			}
			want, scale := frobenius(sigD, qc2.ToDense())
			quad := m.PriorQuad(th2, mu, make([]float64, m.Dims.PerProcess()))
			if got, _ := tb.dot(th2); math.Abs(got-want-quad) > 1e-10*(scale+math.Abs(quad)) {
				t.Fatalf("table dot %v, dense ⟨Σ, Q_c⟩ + μᵀQ_pμ %v", got, want+quad)
			}

			f, err := bta.Factorize(qc)
			if err != nil {
				t.Fatal(err)
			}
			sig, err := f.SelectedInversion()
			if err != nil {
				t.Fatal(err)
			}
			sel := m.NewQcTable()
			zero := make([]float64, qc.Dim())
			if err := sel.Contract(sig, zero); err != nil {
				t.Fatal(err)
			}
			if err := tb.Contract(bta.FromDense(sigD, n, b, a), zero); err != nil {
				t.Fatal(err)
			}
			got, _ := sel.dot(th)
			want, _ = tb.dot(th)
			if math.Abs(got-want) > 1e-10*math.Abs(want) {
				t.Fatalf("⟨Σ, Q_c⟩ from the selected inverse %v, from the dense inverse %v", got, want)
			}
			if dim := float64(qc.Dim()); math.Abs(want-dim) > 1e-8*dim {
				t.Fatalf("⟨Q_c⁻¹, Q_c⟩ = %v, want the dimension %v", want, dim)
			}
		})
	}
}

// TestQcTableGradMatchesDifferences holds Grad, the closed-form gradient
// of log ℓ(y|μ) + ½ log|Q_p| − ½(μᵀQ_pμ + ⟨Σ, Q_c⟩) at fixed μ and Σ, to
// fourth-order central differences of those terms — LogLik, PriorLogDet
// and the table's dot product — in every component of θ, on the benchmark
// shapes and the structural corners (λ = 0, nr = 0, nt = 1 and 2, both
// prior families), relative to the scale of the terms.
func TestQcTableGradMatchesDifferences(t *testing.T) {
	for _, s := range append(append([]shape(nil), benchmarkShapes...), cornerShapes...) {
		s.lik = LikGaussian
		t.Run(s.name, func(t *testing.T) {
			m, th := s.build(t)
			qc, err := m.Qc(th)
			if err != nil {
				t.Fatal(err)
			}
			f, err := bta.Factorize(qc)
			if err != nil {
				t.Fatal(err)
			}
			sig, err := f.SelectedInversion()
			if err != nil {
				t.Fatal(err)
			}
			mu := m.CondRHS(th)
			f.Solve(mu)
			tb := m.NewQcTable()
			if err := tb.Contract(sig, mu); err != nil {
				t.Fatal(err)
			}
			theta := m.EncodeTheta(th)
			grad := make([]float64, len(theta))
			obs := make([]float64, (m.Dims.Nv+1)*m.Obs.M())
			m.LogLikInto(th, mu, make([]float64, len(mu)), obs)
			if err := tb.Grad(th, theta, obs, grad); err != nil {
				t.Fatal(err)
			}
			at := func(i int, e float64) (float64, float64) {
				p := append([]float64(nil), theta...)
				p[i] += e
				tp, err := m.DecodeTheta(p)
				if err != nil {
					t.Fatal(err)
				}
				ld, err := m.PriorLogDet(tp)
				if err != nil {
					t.Fatal(err)
				}
				ll := m.LogLik(tp, mu)
				q, sc := tb.dot(tp)
				return ll + 0.5*ld - 0.5*q, sc + math.Abs(ll) + math.Abs(ld)
			}
			const e = 1e-3
			for i := range theta {
				p1, sc := at(i, e)
				m1, _ := at(i, -e)
				p2, _ := at(i, 2*e)
				m2, _ := at(i, -2*e)
				fd := (8*(p1-m1) - (p2 - m2)) / (12 * e)
				if math.Abs(grad[i]-fd) > 1e-7*sc {
					t.Fatalf("θ[%d]: closed form %v, differences %v (scale %v)", i, grad[i], fd, sc)
				}
			}
		})
	}
}

// TestQcTableGradAllocFree: once warm, contracting Σ and μ and taking the
// gradient allocate nothing.
func TestQcTableGradAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; alloc counts are meaningless")
	}
	m, th := benchmarkShapes[1].build(t)
	qc, err := m.Qc(th)
	if err != nil {
		t.Fatal(err)
	}
	theta := m.EncodeTheta(th)
	grad := make([]float64, len(theta))
	tb := m.NewQcTable()
	mu := make([]float64, qc.Dim())
	obs := make([]float64, (m.Dims.Nv+1)*m.Obs.M())
	m.LogLikInto(th, mu, make([]float64, len(mu)), obs)
	contract := testing.AllocsPerRun(20, func() {
		if err := tb.Contract(qc, mu); err != nil {
			t.Fatal(err)
		}
	})
	gr := testing.AllocsPerRun(20, func() {
		if err := tb.Grad(th, theta, obs, grad); err != nil {
			t.Fatal(err)
		}
	})
	if contract != 0 || gr != 0 {
		t.Fatalf("Contract allocates %.0f objects, Grad %.0f; want 0", contract, gr)
	}
}
