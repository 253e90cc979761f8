package model

import (
	"fmt"
	"math"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// fobjAt evaluates the θ-dependent part of the Gaussian objective with the
// given assembled Q_c: log ℓ(y|μ) + ½log det Q_p − ½μᵀQ_pμ − ½log det Q_c.
func fobjAt(t *testing.T, m *Model, th *Theta, qc *bta.Matrix) float64 {
	t.Helper()
	f, err := bta.Factorize(qc)
	if err != nil {
		t.Fatal(err)
	}
	mu := m.CondRHS(th)
	f.Solve(mu)
	ld, err := m.PriorLogDet(th)
	if err != nil {
		t.Fatal(err)
	}
	return m.LogLik(th, mu) + 0.5*ld - 0.5*m.PriorQuad(th, mu, make([]float64, m.Dims.PerProcess())) - 0.5*f.LogDet()
}

// TestTableFillMatchesCSRRoute is the parity grid of the numeric-only
// assembly against the CSR route it replaced (per-process precisions,
// JointPrecision, W-weighted Gram blocks, BTAMap): the same pattern, every
// BTA entry of Q_c within 1e-13 relative to its block row, also when
// refilled over another θ's values (so λ = 0 still writes its structural
// zeros), F within 1e-12·|F|, and Q_p and the CSR forms within 1e-13 — on
// the four benchmark shapes and the tables' structural corners.
func TestTableFillMatchesCSRRoute(t *testing.T) {
	for _, s := range append(append([]shape(nil), benchmarkShapes...), cornerShapes...) {
		s.lik = LikGaussian // the assembly does not depend on it; F does
		t.Run(s.name, func(t *testing.T) {
			m, th := s.build(t)
			oracle := m.oracleQcCSR(th)
			want := m.oracleBTA(t, oracle)
			got, err := m.Qc(th)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareBTA(got, want, 1e-13); err != nil {
				t.Fatalf("Q_c: %v", err)
			}
			// A workspace holding another θ's values is fully rewritten.
			ws, err := m.Qc(shapeTheta(t, s.nv, 250, 0.3))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.QcInto(th, ws); err != nil {
				t.Fatal(err)
			}
			if err := compareBTA(ws, want, 1e-13); err != nil {
				t.Fatalf("refill: %v", err)
			}

			fGot, fWant := fobjAt(t, m, th, got), fobjAt(t, m, th, want)
			if math.Abs(fGot-fWant) > 1e-12*math.Abs(fWant) {
				t.Fatalf("F = %v, CSR route %v", fGot, fWant)
			}

			if err := closeDense(m.QcCSR(th).ToDense(), oracle.ToDense(), 1e-13); err != nil {
				t.Fatalf("QcCSR: %v", err)
			}
			qp, err := m.Qp(th)
			if err != nil {
				t.Fatal(err)
			}
			oracleP := m.oracleQpCSR(th)
			if err := closeDense(qp.ToDense(), oracleP.PermuteSym(m.perm).ToDense(), 1e-13); err != nil {
				t.Fatalf("Q_p: %v", err)
			}
			if err := closeDense(m.QpCSR(th).ToDense(), oracleP.ToDense(), 1e-13); err != nil {
				t.Fatalf("QpCSR: %v", err)
			}
		})
	}
}

// TestExpandGramBlocksMatchesTriplets pins the fast sorted-CSR expansion
// against the straightforward triplet assembly it replaced.
func TestExpandGramBlocksMatchesTriplets(t *testing.T) {
	m, th := testModel(t, 3, 2)
	w := noiseW(th)
	fast := m.expandGramBlocks(func(i, j int) float64 { return w.At(i, j) }, m.gram)

	n := m.Dims.PerProcess()
	nv := m.Dims.Nv
	coo := sparse.NewCOO(nv*n, nv*n)
	g := m.gram
	for i := 0; i < nv; i++ {
		for j := 0; j < nv; j++ {
			c := w.At(i, j)
			for r := 0; r < n; r++ {
				for p := g.RowPtr[r]; p < g.RowPtr[r+1]; p++ {
					coo.Add(i*n+r, j*n+g.ColIdx[p], c*g.Val[p])
				}
			}
		}
	}
	slow := coo.ToCSR()
	if !sparse.SameStructure(fast, slow) {
		t.Fatal("fast expansion pattern differs from triplet assembly")
	}
	for p := range fast.Val {
		if math.Abs(fast.Val[p]-slow.Val[p]) > 1e-14 {
			t.Fatalf("value %d: %v vs %v", p, fast.Val[p], slow.Val[p])
		}
	}
}

// TestJointFastPathMatchesDense cross-checks the sorted-CSR joint assembly
// in coreg through the full model path: QpCSR must stay symmetric and SPD
// for several θ, including after repeated calls (no state corruption).
func TestJointFastPathStability(t *testing.T) {
	m, th := testModel(t, 3, 2)
	first := m.QpCSR(th)
	if !first.IsSymmetric(1e-9) {
		t.Fatal("fast joint assembly lost symmetry")
	}
	for trial := 0; trial < 3; trial++ {
		again := m.QpCSR(th)
		if !sparse.SameStructure(first, again) {
			t.Fatal("pattern changed across identical calls")
		}
		for p := range again.Val {
			if again.Val[p] != first.Val[p] {
				t.Fatal("values changed across identical calls")
			}
		}
	}
}

// TestWeightedGramMatchesDense checks Aᵀdiag(w)A against a dense reference
// and that its pattern matches the unweighted Gram kernel (the property the
// Poisson inner loop relies on for mapping reuse).
func TestWeightedGramMatchesDense(t *testing.T) {
	m, _ := testModel(t, 1, 2)
	mObs := m.Obs.M()
	w := make([]float64, mObs)
	for i := range w {
		w[i] = 0.5 + float64(i%7)
	}
	got := m.weightedGram(w)
	if !sparse.SameStructure(got, m.gram) {
		t.Fatal("weighted Gram pattern differs from the cached kernel")
	}
	ad := m.aDesign.ToDense()
	n := m.Dims.PerProcess()
	for i := 0; i < n; i += 5 {
		for j := 0; j < n; j += 7 {
			var want float64
			for o := 0; o < mObs; o++ {
				want += ad.At(o, i) * w[o] * ad.At(o, j)
			}
			if math.Abs(got.At(i, j)-want) > 1e-10*(1+math.Abs(want)) {
				t.Fatalf("weightedGram(%d,%d) = %v want %v", i, j, got.At(i, j), want)
			}
		}
	}
}

// TestNaiveDensifyMatchesCachedMapping: both Q_c construction paths must
// produce identical BTA matrices (the X1 ablation's correctness anchor).
func TestNaiveDensifyMatchesCachedMapping(t *testing.T) {
	m, th := testModel(t, 2, 3)
	fast, err := m.Qc(th)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := m.QcDensifyNaive(th)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.ToDense().Equal(naive.ToDense(), 1e-12) {
		t.Fatal("cached mapping and naive densification disagree")
	}
	fastP, err := m.Qp(th)
	if err != nil {
		t.Fatal(err)
	}
	naiveP, err := m.QpDensifyNaive(th)
	if err != nil {
		t.Fatal(err)
	}
	if !fastP.ToDense().Equal(naiveP.ToDense(), 1e-12) {
		t.Fatal("Q_p paths disagree")
	}
}

// Each rank of a distributed solver assembles its slice of Q_c in place
// through its View: at every rank of every width, QcInto over the View
// writes the slice's diagonal, lower and arrow blocks, its coupling to the
// previous rank and, on rank 0, the tip with the bits LocalSlice copies
// out of the global assembly. The slice is poisoned first, so a position
// the assembly skips fails the comparison.
func TestQcIntoSliceViewMatchesGlobal(t *testing.T) {
	for _, c := range []struct{ nv, nt, nr int }{{1, 8, 1}, {3, 8, 1}, {2, 6, 0}} {
		m, th := testModelWith(t, c.nv, c.nt, c.nr)
		g, err := m.Qc(th)
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= bta.MaxPartitions(c.nt); p++ {
			parts, err := bta.Partitions(c.nt, p)
			if err != nil {
				t.Fatal(err)
			}
			for rank := range parts {
				label := fmt.Sprintf("nv=%d nt=%d a=%d P=%d rank %d", c.nv, c.nt, g.A, p, rank)
				want, err := bta.LocalSlice(g, parts, rank)
				if err != nil {
					t.Fatal(err)
				}
				got, err := bta.NewLocalBTA(parts, rank, g.N, g.B, g.A)
				if err != nil {
					t.Fatal(err)
				}
				blocks := func(l *bta.LocalBTA) []*dense.Matrix {
					out := append(append(append([]*dense.Matrix{}, l.Diag...), l.Lower...), l.Arrow...)
					return append(out, l.TopCoupling, l.Tip)
				}
				for _, blk := range blocks(got) {
					if blk != nil {
						for i := range blk.Data {
							blk.Data[i] = math.NaN()
						}
					}
				}
				if err := m.QcInto(th, got.View); err != nil {
					t.Fatal(err)
				}
				wb, gb := blocks(want), blocks(got)
				if len(wb) != len(gb) {
					t.Fatalf("%s: %d blocks, LocalSlice %d", label, len(gb), len(wb))
				}
				for i := range wb {
					if (wb[i] == nil) != (gb[i] == nil) {
						t.Fatalf("%s: block %d present %v, LocalSlice %v", label, i, gb[i] != nil, wb[i] != nil)
					}
					if wb[i] == nil {
						continue
					}
					for k, v := range wb[i].Data {
						if math.Float64bits(gb[i].Data[k]) != math.Float64bits(v) {
							t.Fatalf("%s: block %d entry %d = %v, global assembly %v", label, i, k, gb[i].Data[k], v)
						}
					}
				}
			}
		}
	}
}

// countDataAt fills w.data with the count data term at a smooth latent
// state x, so the test needs no Newton loop.
func countDataAt(m *Model, th *Theta, w *NewtonWork) {
	for i := range w.x {
		w.x[i] = 0.3 * math.Sin(0.7*float64(i))
	}
	m.linPredInto(th, w.x, w.u, w.eta)
	for i, e := range w.eta {
		w.mu[i] = math.Exp(e)
	}
	m.countData(th, w.mu, w.obs, w.data)
}

// TestClassFillMatchesEntryOracle: Q_c, Q_p and the count model's Newton
// matrix assembled per block class equal the per-entry sums they replaced
// (entryFill) bit for bit, at every position, on the benchmark shapes and
// the tables' structural corners.
func TestClassFillMatchesEntryOracle(t *testing.T) {
	for _, s := range append(append([]shape(nil), benchmarkShapes...), cornerShapes...) {
		t.Run(s.name, func(t *testing.T) {
			m, th := s.build(t)
			got, err := m.Qc(th)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got, m.entryQc(th)); err != nil {
				t.Fatalf("Q_c: %v", err)
			}
			if got, err = m.Qp(th); err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got, m.entryQp(th)); err != nil {
				t.Fatalf("Q_p: %v", err)
			}
			n, b, a := m.Dims.BTAShape()
			w := m.NewNewtonWork()
			w.qp = got
			countDataAt(m, th, w)
			sys := btaNewton{m: m, t: th, f: bta.NewFactor(n, b, a), w: w}
			sys.assemble(w.eta)
			if err := sameBits(sys.f.Workspace(), m.entryCount(th, w.data)); err != nil {
				t.Fatalf("count Newton matrix: %v", err)
			}
		})
	}
}

// TestAssemblyRewritesDirtyWorkspace: QcInto, QpInto and the count Newton
// matrix written over a workspace that holds a factor or a selected
// inverse — the solver's own storage after a factorization — equal the
// assembled matrix bit for bit, the positions outside Q_c's pattern
// included.
func TestAssemblyRewritesDirtyWorkspace(t *testing.T) {
	for _, s := range []shape{benchmarkShapes[1], benchmarkShapes[2], cornerShapes[0]} {
		t.Run(s.name, func(t *testing.T) {
			m, th := s.build(t)
			qc, err := m.Qc(th)
			if err != nil {
				t.Fatal(err)
			}
			qp, err := m.Qp(th)
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
			// f's storage holds the factor of Q_c, sig holds Σ.
			if err := m.QcInto(th, f.Workspace()); err != nil {
				t.Fatal(err)
			}
			if err := sameBits(f.Workspace(), qc); err != nil {
				t.Fatalf("Q_c over a factor: %v", err)
			}
			if err := m.QpInto(th, sig); err != nil {
				t.Fatal(err)
			}
			if err := sameBits(sig, qp); err != nil {
				t.Fatalf("Q_p over Σ: %v", err)
			}

			if err := f.FactorizeWorkspace(); err != nil {
				t.Fatal(err)
			}
			w := m.NewNewtonWork()
			w.qp = qp
			countDataAt(m, th, w)
			sys := btaNewton{m: m, t: th, f: f, w: w}
			sys.assemble(w.eta)
			if err := sameBits(f.Workspace(), m.entryCount(th, w.data)); err != nil {
				t.Fatalf("count Newton matrix over a factor: %v", err)
			}
		})
	}
}
