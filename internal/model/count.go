package model

import (
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
)

// The count model's gradient from one Laplace step: the adjoint-
// differentiated Laplace approximation (Margossian et al., NeurIPS 2020)
// on the assembly tables. At the conditional mode μ(θ) the envelope
// theorem covers log ℓ + log p(x|θ); only −½ log|Q_c(θ, μ(θ))| has an
// implicit term through μ. With Σ = Q_c⁻¹ and the Poisson log link, whose
// third derivative equals its second (e^η),
//
//	∂_l(−½ log|Q_c|) = −½⟨Σ, ∂_lQ_c at fixed μ⟩ − ½ Σ_{k,o} s_ko·e^{η_ko}·(ΛA∂_lμ)_ko
//
// with s_ko = Σ_ij Λ_ki Λ_kj·a_oᵀΣ_ij a_o, which reads Σ only on AᵀA's
// pattern. ∂_lμ = Q_c⁻¹r_l, r_l the θ_l-derivative of the Newton score
// AᵀΛᵀ(y − e^η) − Q_p·x at fixed x, so one adjoint solve
// w = Q_c⁻¹·AᵀΛᵀ(s ∘ e^η) turns the implicit term into −½ wᵀr_l. Its prior
// part +½ wᵀ∂_lQ_p μ joins the prior contraction as ½(wμᵀ + μwᵀ); the rest
// of the gradient is linear in ∂_lΛ and is collected as ∂/∂Λ_kj
// (countDataGrad).

// countWork is a count table's scratch beyond the Gaussian one.
type countWork struct {
	q   []float64 // [symPair(i,j)·M + o]: a_oᵀΣ_ij a_o, doubled for i ≠ j
	qk  []float64 // [k·nsym + symPair(i,j)]: Σ_o e^{η_ko}·q[symPair(i,j)·M + o]
	ex  []float64 // nv·M: e^η at the mode
	phi []float64 // nv·M: s ∘ e^η
	v   []float64 // nv·M: A·w_j
	buf []float64 // M
	pm  []float64 // the adjoint's right-hand side, then w, process-major
	w   []float64 // the adjoint w, BTA ordering
	nu  []float64 // μ − w, BTA ordering
}

// newCountWork allocates a count table's scratch; nil for a Gaussian model.
func (m *Model) newCountWork() *countWork {
	if m.Lik != LikPoisson {
		return nil
	}
	nv, mObs, tot := m.Dims.Nv, m.Obs.M(), m.Dims.Total()
	nsym := nv * (nv + 1) / 2
	return &countWork{
		q:   make([]float64, nsym*mObs),
		qk:  make([]float64, nv*nsym),
		ex:  make([]float64, nv*mObs),
		phi: make([]float64, nv*mObs),
		v:   make([]float64, nv*mObs),
		buf: make([]float64, mObs),
		pm:  make([]float64, tot),
		w:   make([]float64, tot),
		nu:  make([]float64, tot),
	}
}

// ContractCount fills a count model's table at its conditional mode mu
// (BTA ordering): sig is the selected inverse of Q_c at mu, f holds Q_c
// factorized at mu, and obs is the observation scratch LogLikInto last
// filled at t and mu, whose head holds the projections A·μ_j. It reads the
// quadratic forms a_oᵀΣ_ij a_o off sig through the data runs and the count
// tables, solves the adjoint system on f, and contracts the prior with
// Σ + μμᵀ − ½(wμᵀ + μwᵀ). Grad then gives the count objective's gradient.
// Allocation-free once the count tables are built.
func (tb *QcTable) ContractCount(t *Theta, sig *bta.Matrix, mu, obs []float64, f *bta.Factor) error {
	m, c := tb.m, tb.count
	if c == nil {
		return fmt.Errorf("model: ContractCount on a %v model's table", m.Lik)
	}
	if err := m.checkShape(sig); err != nil {
		return err
	}
	nv, n, mObs := m.Dims.Nv, m.Dims.PerProcess(), m.Obs.M()
	if len(mu) != sig.Dim() || len(obs) < nv*mObs {
		return fmt.Errorf("model: latent state of length %d and observation scratch of length %d, want %d and %d",
			len(mu), len(obs), sig.Dim(), nv*mObs)
	}
	nsym := nv * (nv + 1) / 2
	lc := t.Lambda.CoregView()
	u := obs[:nv*mObs]
	for k := range nv {
		ex := c.ex[k*mObs : (k+1)*mObs]
		clear(ex)
		for j := 0; j <= k; j++ {
			if f := lc.At(k, j); f != 0 {
				dense.Axpy(f, u[j*mObs:(j+1)*mObs], ex)
			}
		}
		for o, e := range ex {
			ex[o] = math.Exp(e)
		}
	}

	// q from Σ on AᵀA's pattern. A pair (i, j) and its mirror (j, i) both
	// have runs in a diagonal or tip block, and an arrow block's run stands
	// for its transpose too, so q holds q_ii and 2·q_ij for i < j.
	ct := m.countGram()
	clear(c.q)
	blocks, tip := tb.sigBlocks(sig)
	for i := range m.dataRuns {
		r := &m.dataRuns[i]
		d, q := blocks[r.blk], c.q[int(r.sym)*mObs:(int(r.sym)+1)*mObs]
		mult := 1.0
		if r.blk >= int32(sig.N) && r.blk != tip {
			mult = 2
		}
		for _, e := range r.entries {
			v := mult * d[e.off]
			for _, tm := range ct.terms[ct.start[e.gram]:ct.start[e.gram+1]] {
				q[tm.o] += v * tm.v
			}
		}
	}

	// s_k = Σ_{i≤j} Λ_ki Λ_kj·q[symPair(i,j)], φ_k = s_k ∘ e^{η_k}, and the
	// e^{η_k}-weighted sums of q.
	for k := range nv {
		ex, phi := c.ex[k*mObs:(k+1)*mObs], c.phi[k*mObs:(k+1)*mObs]
		clear(phi)
		for i := range nv {
			for j := i; j < nv; j++ {
				sp := symPair(i, j, nv)
				q := c.q[sp*mObs : (sp+1)*mObs]
				c.qk[k*nsym+sp] = dense.Dot(ex, q)
				if f := lc.At(k, i) * lc.At(k, j); f != 0 {
					dense.Axpy(f, q, phi)
				}
			}
		}
		for o, e := range ex {
			phi[o] *= e
		}
	}

	// The adjoint: Q_c·w = AᵀΛᵀφ, then v_j = A·w_j and ν = μ − w.
	for j := range nv {
		clear(c.buf)
		for k := j; k < nv; k++ { // Λ is lower triangular
			if f := lc.At(k, j); f != 0 {
				dense.Axpy(f, c.phi[k*mObs:(k+1)*mObs], c.buf)
			}
		}
		m.aDesign.MulVecT(c.buf, c.pm[j*n:(j+1)*n])
	}
	m.ApplyPermInto(c.pm, c.w)
	f.Solve(c.w)
	for newI, oldI := range m.perm {
		c.pm[oldI] = c.w[newI]
	}
	for j := range nv {
		m.aDesign.MulVec(c.pm[j*n:(j+1)*n], c.v[j*mObs:(j+1)*mObs])
	}
	for i, x := range mu {
		c.nu[i] = x - c.w[i]
	}
	return tb.contractPrior(sig, mu, c.nu)
}

// countDataGrad writes into tb.dll[k·nv + j] (j ≤ k; 0 above) the
// derivative of the count objective's data part by Λ_kj, at the mode and
// the adjoint ContractCount left:
//
//	(y_k − e^{η_k})ᵀ(u_j − ½v_j) − ½(φ_k − ζ_k ∘ e^{η_k})ᵀu_j − Σ_i Λ_ki·Q^k_ji
//
// with u_j = A·μ_j (obs's head), v_j = A·w_j, ζ_k = Σ_i Λ_ki·v_i and
// Q^k_ij = Σ_o e^{η_ko}·a_oᵀΣ_ij a_o: in turn ∂ log ℓ at fixed μ, the
// adjoint's −½ wᵀr_l outside the prior, and −½⟨Σ, ∂AᵀΛᵀDΛA at fixed μ⟩.
func (tb *QcTable) countDataGrad(t *Theta, obs []float64) {
	m, c := tb.m, tb.count
	nv, mObs := m.Dims.Nv, m.Obs.M()
	nsym := nv * (nv + 1) / 2
	lc := t.Lambda.CoregView()
	clear(tb.dll)
	for k, y := range m.Obs.Y {
		ex, phi := c.ex[k*mObs:(k+1)*mObs], c.phi[k*mObs:(k+1)*mObs]
		// buf = φ_k − ζ_k ∘ e^{η_k}.
		clear(c.buf)
		for i := 0; i <= k; i++ {
			if f := lc.At(k, i); f != 0 {
				dense.Axpy(f, c.v[i*mObs:(i+1)*mObs], c.buf)
			}
		}
		for o, z := range c.buf {
			c.buf[o] = phi[o] - z*ex[o]
		}
		for j := 0; j <= k; j++ {
			uj, vj := obs[j*mObs:(j+1)*mObs], c.v[j*mObs:(j+1)*mObs]
			var g float64
			for o, e := range ex {
				g += (y[o]-e)*(uj[o]-0.5*vj[o]) - 0.5*c.buf[o]*uj[o]
			}
			for i := 0; i <= k; i++ {
				qk := c.qk[k*nsym+symPair(i, j, nv)]
				if i != j {
					qk *= 0.5
				}
				g -= lc.At(k, i) * qk
			}
			tb.dll[k*nv+j] = g
		}
	}
}
