package model

import (
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/spde"
)

// The gradient of the Gaussian objective at a fixed latent state. For the
// Gaussian likelihood μ maximizes log ℓ + log p(x|θ), so by the envelope
// theorem the θ-gradient of fobj is that of
//
//	log ℓ(y|μ) + ½ log|Q_p| − ½ μᵀQ_pμ − ½ log|Q_c|
//
// with μ held fixed, and ∂ log|Q_c| = ⟨Σ, ∂Q_c⟩ with Σ = Q_c⁻¹. Q_c and Q_p
// are linear in the weights c(θ), W(θ) of the assembly tables, so
// μᵀQ_pμ + ⟨Σ, Q_c⟩ = c(θ)·S + W(θ)·S_gram for a table S contracted once
// from μ and the BTA blocks of Σ, and its gradient is ∂c·S + ∂W·S_gram.
// Every term is differentiated in closed form but the prior log-determinant
// in the ranges, a smooth closed form differenced without factorization
// noise: the weights of Q_c can exceed its entries by many orders of
// magnitude (stiff priors, long ranges), so no weight is differenced.

// logDetStep is the step, in log range, of the central differences of the
// per-process prior log-determinant.
const logDetStep = 1e-5

// QcTable contracts a matrix Σ on Q_c's BTA pattern — the selected inverse
// Q_c⁻¹ — and a latent state μ with the terms Q_c is a weighted sum of:
// S[pair, class, FEM term] = ⟨Σ + μμᵀ, B⟩ for the prior's matrices B (the
// class's FEM values of one process pair; the tip's fixed-effect diagonal
// as class classFixed) and S_gram[pair] = ⟨Σ, AᵀA on pair (i,j)⟩, Frobenius
// products over the full symmetric matrices; nv²·numClasses·3 + nv²
// numbers. Grad then gives the objective's gradient at fixed μ and Σ. A
// count model's data term depends on the latent state, so its table is
// filled by ContractCount instead (count.go), which adds the implicit term
// through μ(θ). One table per goroutine.
type QcTable struct {
	m      *Model
	s      [][3]float64 // [(i·nv + j)·numClasses + class], as fillWork.coef
	gram   []float64    // [i·nv + j], as fillWork.w
	blocks [][]float64  // scratch: one class's blocks, then every block
	base   []int        // scratch: each block's first row and column in μ
	r      []float64    // scratch: [k·nv² + i·nv + j], process k's weights contracted with pair (i,j)
	dll    []float64    // scratch: ∂ log ℓ/∂Λ_c (nv²)
	dLc    *dense.Matrix
	dM     []float64
	count  *countWork // a count model's (count.go); nil for a Gaussian one
}

// NewQcTable allocates a contraction table for the model.
func (m *Model) NewQcTable() *QcTable {
	d := m.Dims
	nv := d.Nv
	return &QcTable{
		m:      m,
		s:      make([][3]float64, nv*nv*numClasses),
		gram:   make([]float64, nv*nv),
		blocks: make([][]float64, 0, 3*d.Nt),
		base:   make([]int, 0, 2*d.Nt),
		r:      make([]float64, nv*nv*nv),
		dll:    make([]float64, nv*nv),
		dLc:    dense.New(nv, nv),
		dM:     make([]float64, nv*nv),
		count:  m.newCountWork(),
	}
}

// Contract fills the table from sig, a full-shape matrix on Q_c's BTA
// pattern, and mu, a latent state in the BTA ordering, in one pass over
// sig's blocks: each class's blocks are summed at the class's entries and
// contracted with their FEM values, the tip with its fixed-effect
// diagonal, and the diagonal, arrow and tip blocks with the AᵀA entries of
// the data runs. Lower and arrow blocks stand for their transposes too, so
// they count twice. Allocation-free.
func (tb *QcTable) Contract(sig *bta.Matrix, mu []float64) error {
	if err := tb.contractPrior(sig, mu, nil); err != nil {
		return err
	}
	clear(tb.gram)
	blocks, tip := tb.sigBlocks(sig)
	gram := tb.m.gram.Val
	for i := range tb.m.dataRuns {
		r := &tb.m.dataRuns[i]
		d := blocks[r.blk]
		var v float64
		for _, e := range r.entries {
			v += d[e.off] * gram[e.gram]
		}
		if r.blk >= int32(sig.N) && r.blk != tip {
			v *= 2 // a lower or arrow block
		}
		tb.gram[r.pair] += v
	}
	return nil
}

// contractPrior fills S, the prior half of the table: the state term is
// μμᵀ when nu is nil, else the symmetrized ½(μνᵀ + νμᵀ).
func (tb *QcTable) contractPrior(sig *bta.Matrix, mu, nu []float64) error {
	m := tb.m
	if err := m.checkShape(sig); err != nil {
		return err
	}
	if len(mu) != sig.Dim() {
		return fmt.Errorf("model: latent state of length %d, want %d", len(mu), sig.Dim())
	}
	clear(tb.s)
	nt, b, a := sig.N, sig.B, sig.A
	for class := range spde.NumBlockClasses {
		// Block k of the class starts at row base[2k] and column base[2k+1].
		tb.blocks, tb.base = tb.blocks[:0], tb.base[:0]
		mult := 1.0
		if class == spde.BlockOff {
			mult = 2
			for t, blk := range sig.Lower {
				tb.blocks = append(tb.blocks, blk.Data)
				tb.base = append(tb.base, (t+1)*b, t*b)
			}
		} else {
			for t, blk := range sig.Diag {
				if spde.BlockClass(t, t, nt) == class {
					tb.blocks = append(tb.blocks, blk.Data)
					tb.base = append(tb.base, t*b, t*b)
				}
			}
		}
		for pair, run := range m.classPrior[class] {
			var s0, s1, s2 float64
			for _, e := range run {
				ro, co := int(e.off)/b, int(e.off)%b
				var v float64
				if nu == nil {
					for k, d := range tb.blocks {
						v += d[e.off] + mu[tb.base[2*k]+ro]*mu[tb.base[2*k+1]+co]
					}
				} else {
					for k, d := range tb.blocks {
						r, c := tb.base[2*k]+ro, tb.base[2*k+1]+co
						v += d[e.off] + 0.5*(mu[r]*nu[c]+nu[r]*mu[c])
					}
				}
				s0 += v * e.fem[0]
				s1 += v * e.fem[1]
				s2 += v * e.fem[2]
			}
			tb.s[pair*numClasses+class] = [3]float64{mult * s0, mult * s1, mult * s2}
		}
	}
	if a > 0 {
		tip := nt * b
		for pair, run := range m.tipPrior {
			var s0 float64
			for _, e := range run {
				r, c := tip+int(e.off)/a, tip+int(e.off)%a
				var v float64
				if nu == nil {
					v = sig.Tip.Data[e.off] + mu[r]*mu[c]
				} else {
					v = sig.Tip.Data[e.off] + 0.5*(mu[r]*nu[c]+nu[r]*mu[c])
				}
				s0 += v * e.fem[0]
			}
			tb.s[pair*numClasses+classFixed][0] = s0
		}
	}
	return nil
}

// sigBlocks lists sig's blocks by BTAMap's unified block index — diagonal,
// lower, arrow, then the tip — and returns the tip's index (−1 without
// one).
func (tb *QcTable) sigBlocks(sig *bta.Matrix) ([][]float64, int32) {
	tb.blocks = tb.blocks[:0]
	for _, blk := range sig.Diag {
		tb.blocks = append(tb.blocks, blk.Data)
	}
	for _, blk := range sig.Lower {
		tb.blocks = append(tb.blocks, blk.Data)
	}
	for _, blk := range sig.Arrow {
		tb.blocks = append(tb.blocks, blk.Data)
	}
	if sig.A == 0 {
		return tb.blocks, -1
	}
	tb.blocks = append(tb.blocks, sig.Tip.Data)
	return tb.blocks, int32(len(tb.blocks) - 1)
}

// Grad writes into grad (length NumHyper) the gradient at θ of
//
//	log ℓ(y|μ) + ½ log|Q_p| − ½ μᵀQ_pμ − ½⟨Σ, Q_c⟩
//
// with μ and Σ those last contracted; t is θ decoded (theta supplies the
// coupling parameters) and obs the observation scratch LogLikInto last
// filled at t and μ, whose projections A·μ_j the data term reads and whose
// residual slot it overwrites. For a count model, whose table ContractCount
// filled, it is the gradient of the count objective, the implicit term
// through μ(θ) included (count.go). With the θ layout of DecodeTheta:
// process k's ranges move its block weights (spde.SeparableCoeffsDeriv /
// DiffusionCoeffsDeriv) and its prior log-determinant; log σ_l scales row
// l of M = Λ_c⁻¹ and column l of Λ_c; ∂Λ_c/∂λ is coreg.CoregDerivInto and
// ∂M = −M·∂Λ_c·M; W = Λ_cᵀ·diag(τ)·Λ_c and log ℓ follow Λ_c and τ.
func (tb *QcTable) Grad(t *Theta, theta, obs, grad []float64) error {
	m := tb.m
	if n := m.NumHyper(); len(theta) != n || len(grad) != n {
		return fmt.Errorf("model: θ of length %d and gradient of length %d, want %d", len(theta), len(grad), n)
	}
	d := m.Dims
	mObs := m.Obs.M()
	if len(obs) < (d.Nv+1)*mObs {
		return fmt.Errorf("model: observation scratch of length %d, want %d", len(obs), (d.Nv+1)*mObs)
	}
	nv, nl := d.Nv, coreg.NumLambdas(d.Nv)
	lam := theta[3*nv : 3*nv+nl]
	tauAt := 3*nv + nl
	mi, lc := t.Lambda.MInvView(), t.Lambda.CoregView()
	clear(grad)

	// ½ log|Q_p| = ½ Σ_k [log|Q_st,k| − 2·(ns·nt + nr)·log σ_k] + const.
	for k, h := range t.Process {
		for p := range 2 {
			var ld [2]float64
			for side, step := range [2]float64{logDetStep, -logDetStep} {
				g := h
				if p == 0 {
					g.RangeS *= math.Exp(step)
				} else {
					g.RangeT *= math.Exp(step)
				}
				var err error
				if ld[side], err = m.stLogDet(g); err != nil {
					return err
				}
			}
			grad[3*k+p] = 0.5 * (ld[0] - ld[1]) / (2 * logDetStep)
		}
		grad[3*k+2] = -float64(d.PerProcess())
	}

	// −½(c(θ)·S + W(θ)·S_gram), the prior weights first.
	for k, h := range t.Process {
		var st, dS, dT spde.BlockCoeffs
		if m.ST == STDiffusion {
			st = m.Builder.DiffusionCoeffs(h)
			dS, dT = m.Builder.DiffusionCoeffsDeriv(h)
		} else {
			st = m.Builder.SeparableCoeffs(h)
			dS, dT = m.Builder.SeparableCoeffsDeriv(h)
		}
		var gS, gT, prior float64
		for i := 0; i <= k; i++ {
			for j := 0; j <= k; j++ {
				mm := mi.At(k, i) * mi.At(k, j)
				s := tb.s[(i*nv+j)*numClasses:]
				var r float64
				for c := range st {
					for x := range st[c] {
						r += st[c][x] * s[c][x]
						gS += mm * dS[c][x] * s[c][x]
						gT += mm * dT[c][x] * s[c][x]
					}
				}
				r += FixedEffectPriorPrecision * s[classFixed][0]
				tb.r[k*nv*nv+i*nv+j] = r
				prior += mm * r
			}
		}
		grad[3*k] -= 0.5 * gS
		grad[3*k+1] -= 0.5 * gT
		grad[3*k+2] += prior // −½·(−2·prior): M's row k scales as 1/σ_k
	}
	if tb.count != nil {
		// The data term's ∂/∂Λ_kj, with log σ_l scaling column l of Λ_c.
		tb.countDataGrad(t, obs)
		for l := range nv {
			var g float64
			for k := l; k < nv; k++ {
				g += lc.At(k, l) * tb.dll[k*nv+l]
			}
			grad[3*l+2] += g
		}
	} else {
		// log ℓ = Σ_k ½M·(log τ_k − log 2π) − ½τ_k·‖y_k − Σ_j Λ_kj·A·μ_j‖²:
		// dll[k·nv + j] = ∂ log ℓ/∂Λ_kj = τ_k·r_kᵀ·A·μ_j.
		u, res := obs[:nv*mObs], obs[nv*mObs:(nv+1)*mObs]
		for k, y := range m.Obs.Y {
			gaussResidualInto(lc, k, y, u, res)
			tau := t.TauY[k]
			for j := range nv {
				tb.dll[k*nv+j] = tau * dense.Dot(res, u[j*mObs:(j+1)*mObs])
			}
			grad[tauAt+k] = 0.5*float64(mObs) - 0.5*tau*dense.Dot(res, res)
		}
		for l := range nv {
			// Column l of Λ_c scales as σ_l: in log ℓ and in W.
			var g, w float64
			for k := range nv {
				g += lc.At(k, l) * tb.dll[k*nv+l]
			}
			for j := range nv {
				w = 0
				for k := range nv {
					w += t.TauY[k] * lc.At(k, l) * lc.At(k, j)
				}
				g -= 0.5 * w * (tb.gram[l*nv+j] + tb.gram[j*nv+l])
			}
			grad[3*l+2] += g
		}
		for k, tau := range t.TauY {
			var g float64
			for i := range nv {
				for j := range nv {
					g += lc.At(k, i) * lc.At(k, j) * tb.gram[i*nv+j]
				}
			}
			grad[tauAt+k] -= 0.5 * tau * g
		}
	}
	for q := range nl {
		coreg.CoregDerivInto(t.Lambda.Sigmas, lam, q, tb.dLc)
		dLc := tb.dLc
		// ∂M = −M·∂Λ_c·M.
		for i := range nv {
			for j := range nv {
				var v float64
				for p := range nv {
					for r := range nv {
						v += mi.At(i, p) * dLc.At(p, r) * mi.At(r, j)
					}
				}
				tb.dM[i*nv+j] = -v
			}
		}
		var g float64
		for k := range nv {
			for i := 0; i <= k; i++ {
				for j := 0; j <= k; j++ {
					dmm := tb.dM[k*nv+i]*mi.At(k, j) + mi.At(k, i)*tb.dM[k*nv+j]
					g -= 0.5 * dmm * tb.r[k*nv*nv+i*nv+j]
				}
			}
		}
		if tb.count != nil {
			for i := range nv {
				for j := 0; j <= i; j++ {
					g += dLc.At(i, j) * tb.dll[i*nv+j]
				}
			}
			grad[3*nv+q] = g
			continue
		}
		for i := range nv {
			for j := range nv {
				// ∂W = ∂Λ_cᵀ·diag(τ)·Λ_c + Λ_cᵀ·diag(τ)·∂Λ_c.
				var dw float64
				for k, tau := range t.TauY {
					dw += tau * (dLc.At(k, i)*lc.At(k, j) + lc.At(k, i)*dLc.At(k, j))
				}
				g -= 0.5 * dw * tb.gram[i*nv+j]
				g += dLc.At(i, j) * tb.dll[i*nv+j]
			}
		}
		grad[3*nv+q] = g
	}
	return nil
}
