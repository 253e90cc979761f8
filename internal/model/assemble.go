package model

import (
	"fmt"
	"sort"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/spde"
)

// Numeric-only assembly (§IV-B1, §IV-F). Q_c's pattern is fixed by the
// mesh, the time horizon and the observation design; θ only reweights a
// handful of fixed matrices. Every stored entry of Q_c — process pair
// (i,j), time pair (t,t′), spatial pair (r,c) — is
//
//	Σ_k M_ki·M_kj·(c_C̃,k·C̃_rc + c_G,k·G_rc + c_GCG,k·(G·C̃⁻¹·G)_rc) + W_ij·(AᵀA)_rc
//
// with M = Λ_c⁻¹, c_·,k the weights of process k's prior for the class of
// (t,t′) (spde.SeparableCoeffs / DiffusionCoeffs) and W = Λᵀ·diag(τ_y)·Λ; a
// fixed-effect diagonal entry carries the vague prior precision in place
// of the FEM values. New lays the θ-invariant values out once, in the
// canonical order of Q_c's pattern so they share the BTAMap's
// destinations. An assembly computes the nv²·numClasses weights and runs
// one loop that writes each value straight into the BTA blocks.

// classFixed marks an entry outside the spatio-temporal blocks: a
// fixed-effect diagonal (fem = (1, 0, 0)) or a data-term-only entry
// (fem = 0).
const (
	classFixed = spde.NumBlockClasses
	numClasses = spde.NumBlockClasses + 1
)

// qcEntry is the θ-invariant part of one stored entry of a process-pair
// block of Q_c.
type qcEntry struct {
	fem   [3]float64 // C̃, G and G·C̃⁻¹·G at the spatial pair
	class int32      // spde block class of the time pair, or classFixed
	gram  int32      // index of the AᵀA entry (the zero sentinel when none)
}

// fillWork is the scratch of one assembly: the weights c(θ) and the BTA
// block storage, indexed like BTAMap's unified block index. Pooled on the
// Model so concurrent evaluations neither share nor allocate it.
type fillWork struct {
	coef   [][3]float64 // [(i·nv + j)·numClasses + class]
	w      []float64    // [i·nv + j]: scale of the data term
	blocks [][]float64
}

// buildTables lays out Q_c's pattern and the θ-invariant values of its
// entries. Every process pair shares one n×n block pattern: the prior's
// spatial blocks (|t − t′| ≤ 1), the fixed-effect diagonal, and AᵀA.
func (m *Model) buildTables() error {
	d := m.Dims
	ns, nt, n := d.Ns, d.Nt, d.PerProcess()
	nst := ns * nt
	c, g, gcg := m.Builder.FEM()
	onDiag := sparse.Add(1, sparse.Add(1, c, 1, g), 1, gcg)
	offDiag := onDiag
	if m.ST == STDiffusion {
		offDiag = sparse.Add(1, c, 1, g) // −f·A couples consecutive steps
	}
	gram := m.gram
	m.gramVals = append(append([]float64(nil), gram.Val...), 0)
	gramZero := int32(gram.NNZ())

	m.locRowPtr = make([]int, n+1)
	m.locKeep = make([]int, n)
	var cols []int
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	var row []int
	for r := 0; r < n; r++ {
		row = row[:0]
		add := func(col int) {
			if mark[col] != r {
				mark[col] = r
				row = append(row, col)
			}
		}
		if r < nst {
			t, sr := r/ns, r%ns
			for tp := max(t-1, 0); tp <= min(t+1, nt-1); tp++ {
				s := offDiag
				if tp == t {
					s = onDiag
				}
				for q := s.RowPtr[sr]; q < s.RowPtr[sr+1]; q++ {
					add(tp*ns + s.ColIdx[q])
				}
			}
		} else {
			add(r)
		}
		glo, ghi := gram.RowPtr[r], gram.RowPtr[r+1]
		for _, col := range gram.ColIdx[glo:ghi] {
			add(col)
		}
		sort.Ints(row)
		for _, col := range row {
			e := qcEntry{class: classFixed, gram: gramZero}
			switch {
			case r < nst && col < nst:
				sr, sc := r%ns, col%ns
				e.class = int32(spde.BlockClass(r/ns, col/ns, nt))
				e.fem = [3]float64{c.At(sr, sc), g.At(sr, sc), gcg.At(sr, sc)}
			case r == col:
				e.fem[0] = 1
			}
			if k := sort.SearchInts(gram.ColIdx[glo:ghi], col); glo+k < ghi && gram.ColIdx[glo+k] == col {
				e.gram = int32(glo + k)
			}
			m.tab = append(m.tab, e)
			cols = append(cols, col)
		}
		m.locRowPtr[r+1] = len(cols)
		// Columns ascend, so a spatial row's entries at step t+1 and its
		// fixed-effect entries — the ones BTA stores transposed, in the
		// Lower and Arrow blocks their mirrors fill — come last.
		m.locKeep[r] = len(cols)
		if r < nst {
			m.locKeep[r] = m.locRowPtr[r] + sort.SearchInts(cols[m.locRowPtr[r]:], (r/ns+1)*ns)
		}
	}

	// Tile the block pattern over the nv×nv process pairs, in CSR order.
	nv := d.Nv
	rowPtr := make([]int, nv*n+1)
	colIdx := make([]int, 0, nv*nv*len(cols))
	for i := 0; i < nv; i++ {
		for r := 0; r < n; r++ {
			lo, hi := m.locRowPtr[r], m.locRowPtr[r+1]
			for j := 0; j < nv; j++ {
				for _, col := range cols[lo:hi] {
					colIdx = append(colIdx, j*n+col)
				}
			}
			rowPtr[i*n+r+1] = len(colIdx)
		}
	}
	m.qcPattern = sparse.NewCSR(nv*n, nv*n, rowPtr, colIdx, nil)
	nb, b, a := d.BTAShape()
	var err error
	if m.qcMap, err = newBTAMap(m.qcPattern, m.permInv, nb, b, a); err != nil {
		return fmt.Errorf("model: Q_c mapping: %w", err)
	}
	return nil
}

func (m *Model) getFill() *fillWork {
	if fw, ok := m.fillPool.Get().(*fillWork); ok {
		return fw
	}
	nv := m.Dims.Nv
	return &fillWork{
		coef:   make([][3]float64, nv*nv*numClasses),
		w:      make([]float64, nv*nv),
		blocks: make([][]float64, 0, 3*m.Dims.Nt),
	}
}

// priorWeights computes the prior half of c(θ): process k's block weights
// mixed into pair (i,j) through M_ki·M_kj (M lower triangular, so k ≥
// max(i,j)).
func (m *Model) priorWeights(t *Theta, fw *fillWork) {
	nv := m.Dims.Nv
	clear(fw.coef)
	mi := t.Lambda.MInvView()
	for k, h := range t.Process {
		var st spde.BlockCoeffs
		if m.ST == STDiffusion {
			st = m.Builder.DiffusionCoeffs(h)
		} else {
			st = m.Builder.SeparableCoeffs(h)
		}
		for i := 0; i <= k; i++ {
			for j := 0; j <= k; j++ {
				mm := mi.At(k, i) * mi.At(k, j)
				cf := fw.coef[(i*nv+j)*numClasses:]
				for c := range st {
					for x := range st[c] {
						cf[c][x] += mm * st[c][x]
					}
				}
				cf[classFixed][0] += mm * FixedEffectPriorPrecision
			}
		}
	}
}

// noiseWInto writes W = Λᵀ·diag(τ_y)·Λ row-major into w (length nv²).
func noiseWInto(t *Theta, w []float64) {
	lc := t.Lambda.CoregView()
	nv := lc.Rows
	for i := 0; i < nv; i++ {
		for j := 0; j < nv; j++ {
			var s float64
			for k := 0; k < nv; k++ {
				s += t.TauY[k] * lc.At(k, i) * lc.At(k, j)
			}
			w[i*nv+j] = s
		}
	}
}

// symPair indexes the unordered process pair {i, j} (row-major upper
// triangle).
func symPair(i, j, nv int) int {
	if i > j {
		i, j = j, i
	}
	return i*nv - i*(i-1)/2 + j - i
}

// value is the entry's Σ_j c_j(θ)·B_j: the prior weights of its class on
// the FEM values plus the data term w·dt[gram].
func (e *qcEntry) value(cf [][3]float64, w float64, dt []float64) float64 {
	c := &cf[e.class]
	return c[0]*e.fem[0] + c[1]*e.fem[1] + c[2]*e.fem[2] + w*dt[e.gram]
}

// fill writes every stored entry of Q_c: the prior part from fw.coef plus
// fw.w[i·nv+j]·data[symPair(i,j)·stride + gram] for the data term. The
// Gaussian term passes the Gram values with stride 0 and W as the scale;
// the count term passes per-pair values with unit scale. Values go into
// vals in CSR order when it is non-nil, else through the BTAMap into out —
// skipping each row's transposed duplicates (locKeep), whose destinations
// the row's mirror entries write.
func (m *Model) fill(fw *fillWork, data []float64, stride int, out *bta.Matrix, vals []float64) error {
	if vals == nil {
		if out.N != m.qcMap.N || out.B != m.qcMap.B || out.A != m.qcMap.A {
			return fmt.Errorf("model: workspace BTA(n=%d,b=%d,a=%d), model needs (n=%d,b=%d,a=%d)",
				out.N, out.B, out.A, m.qcMap.N, m.qcMap.B, m.qcMap.A)
		}
		fw.blocks = fw.blocks[:0]
		for _, blk := range out.Diag {
			fw.blocks = append(fw.blocks, blk.Data)
		}
		for _, blk := range out.Lower {
			fw.blocks = append(fw.blocks, blk.Data)
		}
		for _, blk := range out.Arrow {
			fw.blocks = append(fw.blocks, blk.Data)
		}
		if out.Tip != nil {
			fw.blocks = append(fw.blocks, out.Tip.Data)
		}
	}
	nv, n := m.Dims.Nv, m.Dims.PerProcess()
	tab, blocks, blockIdx, off := m.tab, fw.blocks, m.qcMap.blockIdx, m.qcMap.off
	p := 0
	for i := 0; i < nv; i++ {
		for r := 0; r < n; r++ {
			lo, keep, hi := m.locRowPtr[r], m.locKeep[r], m.locRowPtr[r+1]
			for j := 0; j < nv; j++ {
				ij := i*nv + j
				cf := fw.coef[ij*numClasses : (ij+1)*numClasses]
				w := fw.w[ij]
				dt := data[symPair(i, j, nv)*stride:]
				if vals != nil {
					for q := lo; q < hi; q++ {
						vals[p] = tab[q].value(cf, w, dt)
						p++
					}
					continue
				}
				for q := lo; q < keep; q++ {
					blocks[blockIdx[p]][off[p]] = tab[q].value(cf, w, dt)
					p++
				}
				p += hi - keep
			}
		}
	}
	return nil
}

// assemble fills Q_c (noise) or Q_p (no data term) into out or vals.
func (m *Model) assemble(t *Theta, noise bool, out *bta.Matrix, vals []float64) error {
	fw := m.getFill()
	defer m.fillPool.Put(fw)
	m.priorWeights(t, fw)
	if noise {
		noiseWInto(t, fw.w)
	} else {
		clear(fw.w)
	}
	return m.fill(fw, m.gramVals, 0, out, vals)
}

// patternCSR wraps values in Q_c's cached pattern. The index arrays are
// shared with the Model and must be treated as read-only.
func (m *Model) patternCSR(vals []float64) *sparse.CSR {
	p := m.qcPattern
	return sparse.NewCSR(p.RowsN, p.ColsN, p.RowPtr, p.ColIdx, vals)
}

// QcCSR returns the conditional precision Q_c = Q_p + AᵀDA in
// process-major ordering, over the cached pattern (whose index arrays it
// shares, read-only) — the general-sparse form the baselines work on.
func (m *Model) QcCSR(t *Theta) *sparse.CSR {
	vals := make([]float64, len(m.qcPattern.ColIdx))
	if err := m.assemble(t, true, nil, vals); err != nil {
		panic(fmt.Sprintf("model: %v", err)) // no workspace to mismatch
	}
	return m.patternCSR(vals)
}

// QpCSR returns the joint prior precision in process-major ordering, on
// Q_c's pattern: entries only the data term fills hold zeros.
func (m *Model) QpCSR(t *Theta) *sparse.CSR {
	vals := make([]float64, len(m.qcPattern.ColIdx))
	if err := m.assemble(t, false, nil, vals); err != nil {
		panic(fmt.Sprintf("model: %v", err))
	}
	return m.patternCSR(vals)
}

// Qp assembles the prior precision as a BTA matrix (BT blocks plus a
// decoupled fixed-effects tip) for the given configuration.
func (m *Model) Qp(t *Theta) (*bta.Matrix, error) {
	out := bta.NewMatrix(m.qcMap.N, m.qcMap.B, m.qcMap.A)
	if err := m.QpInto(t, out); err != nil {
		return nil, err
	}
	return out, nil
}

// QpInto assembles the prior precision into an existing BTA workspace: the
// Q_c fill with the data term's weights at zero. Allocation-free.
func (m *Model) QpInto(t *Theta, out *bta.Matrix) error { return m.assemble(t, false, out, nil) }

// Qc assembles the conditional precision Q_c = Q_p + AᵀDA as a BTA matrix.
func (m *Model) Qc(t *Theta) (*bta.Matrix, error) {
	out := bta.NewMatrix(m.qcMap.N, m.qcMap.B, m.qcMap.A)
	if err := m.QcInto(t, out); err != nil {
		return nil, err
	}
	return out, nil
}

// QcInto assembles the conditional precision into an existing BTA
// workspace: c(θ), then one pass over the tables. Allocation-free and safe
// for concurrent use with distinct workspaces.
func (m *Model) QcInto(t *Theta, out *bta.Matrix) error { return m.assemble(t, true, out, nil) }
