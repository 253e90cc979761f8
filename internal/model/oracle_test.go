package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/spde"
)

// The general-sparse assembly route the coefficient tables replaced, kept
// as their parity oracle: each process's SPDE precision with the
// fixed-effect prior appended, the LMC joint precision
// (coreg.Lambda.JointPrecision), and the W-weighted Gram blocks, added as
// CSRs.

// processPrecision returns process k's prior precision (fixed effects
// appended with a vague prior), process-major local ordering.
func (m *Model) processPrecision(h spde.Hyper) *sparse.CSR {
	var qst *sparse.CSR
	if m.ST == STDiffusion {
		qst = m.Builder.DiffusionPrecision(h)
	} else {
		qst = m.Builder.Precision(h)
	}
	if m.Dims.Nr == 0 {
		return qst
	}
	n := m.Dims.PerProcess()
	coo := sparse.NewCOO(n, n)
	for i := 0; i < qst.Rows(); i++ {
		for p := qst.RowPtr[i]; p < qst.RowPtr[i+1]; p++ {
			coo.Add(i, qst.ColIdx[p], qst.Val[p])
		}
	}
	for r := 0; r < m.Dims.Nr; r++ {
		coo.Add(qst.Rows()+r, qst.Rows()+r, FixedEffectPriorPrecision)
	}
	return coo.ToCSR()
}

// oracleQpCSR assembles the joint prior precision through JointPrecision.
func (m *Model) oracleQpCSR(t *Theta) *sparse.CSR {
	qs := make([]*sparse.CSR, m.Dims.Nv)
	for k := range qs {
		qs[k] = m.processPrecision(t.Process[k])
	}
	joint, err := t.Lambda.JointPrecision(qs)
	if err != nil {
		panic(err)
	}
	return joint
}

// expandGramBlocks builds the nv×nv block matrix with block (i,j) =
// coef(i,j)·g, in canonical CSR order.
func (m *Model) expandGramBlocks(coef func(i, j int) float64, g *sparse.CSR) *sparse.CSR {
	n := m.Dims.PerProcess()
	nv := m.Dims.Nv
	total := nv * nv * g.NNZ()
	rowPtr := make([]int, nv*n+1)
	colIdx := make([]int, total)
	val := make([]float64, total)
	wp := 0
	for i := 0; i < nv; i++ {
		for r := 0; r < n; r++ {
			rowPtr[i*n+r] = wp
			lo, hi := g.RowPtr[r], g.RowPtr[r+1]
			for j := 0; j < nv; j++ {
				c := coef(i, j)
				for p := lo; p < hi; p++ {
					colIdx[wp] = j*n + g.ColIdx[p]
					val[wp] = c * g.Val[p]
					wp++
				}
			}
		}
	}
	rowPtr[nv*n] = wp
	return sparse.NewCSR(nv*n, nv*n, rowPtr, colIdx, val)
}

// noiseW returns W = Λᵀ·diag(τ_y)·Λ as a matrix.
func noiseW(t *Theta) *dense.Matrix {
	w := dense.New(t.Lambda.Nv, t.Lambda.Nv)
	noiseWInto(t, w.Data)
	return w
}

// oracleQcCSR is Q_p + Σ_ij W_ij·AᵀA through the CSR builders.
func (m *Model) oracleQcCSR(t *Theta) *sparse.CSR {
	w := noiseW(t)
	data := m.expandGramBlocks(func(i, j int) float64 { return w.At(i, j) }, m.gram)
	return sparse.Add(1, m.oracleQpCSR(t), 1, data)
}

// oracleBTA scatters a CSR on Q_c's pattern through the cached map.
func (m *Model) oracleBTA(t *testing.T, csr *sparse.CSR) *bta.Matrix {
	t.Helper()
	if !sparse.SameStructure(csr, m.QcCSR(m.anyTheta(t))) {
		t.Fatal("oracle CSR and the table pattern differ")
	}
	out, err := m.qcMap.Apply(csr.Val)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// anyTheta is a valid configuration; only its pattern is used.
func (m *Model) anyTheta(t *testing.T) *Theta {
	return shapeTheta(t, m.Dims.Nv, 100, 0.1)
}

// shapeTheta is a plausible configuration for nv processes on a domain of
// the given width, with coupling parameters scaled by lam (0 decouples).
func shapeTheta(t testing.TB, nv int, width, lam float64) *Theta {
	t.Helper()
	sig := make([]float64, nv)
	tau := make([]float64, nv)
	var hyp []spde.Hyper
	for k := 0; k < nv; k++ {
		sig[k] = 0.8 + 0.2*float64(k)
		tau[k] = 2 + float64(k)
		hyp = append(hyp, spde.Hyper{RangeS: width * (0.3 + 0.05*float64(k)), RangeT: 2 + float64(k), Sigma: 1})
	}
	lams := make([]float64, coreg.NumLambdas(nv))
	for i := range lams {
		lams[i] = lam * (3 - float64(i))
	}
	l, err := coreg.NewLambda(sig, lams)
	if err != nil {
		t.Fatal(err)
	}
	return &Theta{Process: hyp, Lambda: l, TauY: tau}
}

// shape is a model configuration of the parity grid.
type shape struct {
	name               string
	nv, nt, nr, nx, ny int
	perStep            int
	st                 STKind
	lik                LikelihoodKind
	lam                float64
	// rangeW scales the spatial ranges (ρ_s = 0.3·rangeW; 0 = the domain
	// width). The diffusion prior's Q_c has condition number growing like
	// (ρ_s/h)⁴: at ρ_s = 120 on these meshes a 1-ulp perturbation of its
	// entries moves F by 2e-8, so its shapes run at a range below the
	// mesh spacing h, where F is well-posed at 1e-12.
	rangeW float64
}

// benchmarkShapes mirrors the end-to-end benchmark's four workloads on a
// 400×300 domain; cornerShapes cover the tables' structural corners.
var benchmarkShapes = []shape{
	{name: "uni", nv: 1, nt: 4, nr: 2, nx: 12, ny: 12, perStep: 120, lam: 0.1},
	{name: "tri", nv: 3, nt: 8, nr: 1, nx: 5, ny: 4, perStep: 30, lam: 0.1},
	{name: "poisson", nv: 2, nt: 4, nr: 2, nx: 6, ny: 5, perStep: 40, lik: LikPoisson, lam: 0.1},
	{name: "serve", nv: 3, nt: 4, nr: 2, nx: 6, ny: 5, perStep: 20, lam: 0.1},
}

var cornerShapes = []shape{
	{name: "diffusion", nv: 2, nt: 4, nr: 2, nx: 6, ny: 5, perStep: 20, st: STDiffusion, lam: 0.1, rangeW: 30},
	{name: "diffusion-tri", nv: 3, nt: 3, nr: 1, nx: 5, ny: 4, perStep: 20, st: STDiffusion, lam: 0.1, rangeW: 30},
	{name: "nr=0", nv: 2, nt: 3, nr: 0, nx: 5, ny: 5, perStep: 20, lam: 0.1},
	{name: "nv=2", nv: 2, nt: 5, nr: 1, nx: 5, ny: 4, perStep: 20, lam: 0.1},
	{name: "lambda=0", nv: 3, nt: 4, nr: 2, nx: 5, ny: 4, perStep: 20, lam: 0},
	{name: "nt=1", nv: 2, nt: 1, nr: 1, nx: 5, ny: 4, perStep: 20, lam: 0.1},
	{name: "nt=2", nv: 2, nt: 2, nr: 2, nx: 5, ny: 4, perStep: 20, st: STDiffusion, lam: 0.1, rangeW: 30},
}

// build constructs the shape's model with seeded observations (an
// intercept and a smooth covariate; Gaussian responses or small counts)
// and a configuration to assemble at.
func (s shape) build(t testing.TB) (*Model, *Theta) {
	t.Helper()
	const width, height = 400, 300
	msh := mesh.Uniform(s.nx, s.ny, width, height)
	b := spde.NewBuilder(msh, s.nt)
	d := coreg.Dims{Nv: s.nv, Ns: b.Ns(), Nt: s.nt, Nr: s.nr}
	rng := rand.New(rand.NewSource(5))
	locs := make([]mesh.Point, s.perStep)
	for i := range locs {
		locs[i] = mesh.Point{X: rng.Float64() * width, Y: rng.Float64() * height}
	}
	obs := &Obs{}
	for tt := 0; tt < s.nt; tt++ {
		for _, p := range locs {
			obs.Points = append(obs.Points, p)
			obs.TimeIdx = append(obs.TimeIdx, tt)
		}
	}
	mObs := len(obs.Points)
	if s.nr > 0 {
		obs.Covariates = dense.New(mObs, s.nr)
		for i, p := range obs.Points {
			obs.Covariates.Set(i, 0, 1)
			for r := 1; r < s.nr; r++ {
				obs.Covariates.Set(i, r, math.Sin(float64(r)*p.X/width)+p.Y/height)
			}
		}
	}
	for k := 0; k < s.nv; k++ {
		y := make([]float64, mObs)
		for i := range y {
			if s.lik == LikPoisson {
				y[i] = float64(rng.Intn(6))
			} else {
				y[i] = rng.NormFloat64()
			}
		}
		obs.Y = append(obs.Y, y)
	}
	m, err := New(b, d, obs, WithSTKind(s.st), WithLikelihood(s.lik))
	if err != nil {
		t.Fatal(err)
	}
	rw := s.rangeW
	if rw == 0 {
		rw = width
	}
	return m, shapeTheta(t, s.nv, rw, s.lam)
}

// compareBTA reports the first entry of got that differs from want by more
// than tol relative to the largest entry of its block row — the scale of
// the terms an entry sums, which cancellation can make far larger than the
// entry itself. An all-zero row must match exactly.
func compareBTA(got, want *bta.Matrix, tol float64) error {
	blocks := func(m *bta.Matrix) []*dense.Matrix {
		out := append(append([]*dense.Matrix(nil), m.Diag...), m.Lower...)
		out = append(out, m.Arrow...)
		if m.Tip != nil {
			out = append(out, m.Tip)
		}
		return out
	}
	gb, wb := blocks(got), blocks(want)
	for k := range wb {
		if err := closeDense(gb[k], wb[k], tol); err != nil {
			return fmt.Errorf("block %d: %w", k, err)
		}
	}
	return nil
}

// closeDense compares two matrices row by row, entries relative to the
// largest entry of want's row.
func closeDense(got, want *dense.Matrix, tol float64) error {
	for i := 0; i < want.Rows; i++ {
		var scale float64
		for _, w := range want.Row(i) {
			scale = math.Max(scale, math.Abs(w))
		}
		for j, w := range want.Row(i) {
			if g := got.At(i, j); math.Abs(g-w) > tol*scale {
				return fmt.Errorf("entry (%d,%d): %v, want %v (row scale %v)", i, j, g, w, scale)
			}
		}
	}
	return nil
}

// entryFill is the per-entry assembly the class route (assemble.go)
// replaced, kept as its bitwise oracle: every stored entry of Q_c is
// Σ_j c_j(θ)·B_j + w_ij·dt — dt the entry's data value
// data[symPair(i,j)·stride + g], 0 without an AᵀA entry — written through
// the BTAMap into a fresh matrix, skipping the duplicates BTA stores
// transposed. fw holds c(θ) and the scale w.
func (m *Model) entryFill(fw *fillWork, data []float64, stride int) *bta.Matrix {
	tab, _, locPtr, locKeep := m.localPattern()
	mp := m.qcMap
	out := bta.NewMatrix(mp.N, mp.B, mp.A)
	nv, n := m.Dims.Nv, m.Dims.PerProcess()
	p := 0
	for i := 0; i < nv; i++ {
		for r := 0; r < n; r++ {
			lo, keep, hi := locPtr[r], locKeep[r], locPtr[r+1]
			for j := 0; j < nv; j++ {
				ij := i*nv + j
				cf := fw.coef[ij*numClasses : (ij+1)*numClasses]
				w, base := fw.w[ij], symPair(i, j, nv)*stride
				for q := lo; q < keep; q++ {
					e := &tab[q]
					var dt float64
					if e.gram >= 0 {
						dt = data[base+int(e.gram)]
					}
					c := &cf[e.class]
					mp.block(out, p).Data[mp.off[p]] = c[0]*e.fem[0] + c[1]*e.fem[1] + c[2]*e.fem[2] + w*dt
					p++
				}
				p += hi - keep
			}
		}
	}
	return out
}

// entryQc, entryQp and entryCount are the per-entry oracle's Q_c, Q_p and
// count Newton matrix Q_p + AᵀD(η)A (data as countData writes it).
func (m *Model) entryQc(t *Theta) *bta.Matrix {
	fw := m.getFill()
	m.priorWeights(t, fw)
	noiseWInto(t, fw.w)
	return m.entryFill(fw, m.gram.Val, 0)
}

func (m *Model) entryQp(t *Theta) *bta.Matrix {
	fw := m.getFill()
	m.priorWeights(t, fw)
	clear(fw.w)
	return m.entryFill(fw, m.gram.Val, 0)
}

func (m *Model) entryCount(t *Theta, data []float64) *bta.Matrix {
	fw := m.getFill()
	m.priorWeights(t, fw)
	for i := range fw.w {
		fw.w[i] = 1
	}
	return m.entryFill(fw, data, m.gram.NNZ())
}

// sameBits reports the first position of got whose bits differ from want's.
func sameBits(got, want *bta.Matrix) error {
	blocks := func(m *bta.Matrix) []*dense.Matrix {
		out := append(append([]*dense.Matrix(nil), m.Diag...), m.Lower...)
		out = append(out, m.Arrow...)
		if m.Tip != nil {
			out = append(out, m.Tip)
		}
		return out
	}
	gb, wb := blocks(got), blocks(want)
	for k := range wb {
		for x, v := range wb[k].Data {
			if g := gb[k].Data[x]; math.Float64bits(g) != math.Float64bits(v) {
				return fmt.Errorf("block %d, offset %d: %v, want %v", k, x, g, v)
			}
		}
	}
	return nil
}
