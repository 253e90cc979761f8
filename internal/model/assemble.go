package model

import (
	"fmt"
	"sort"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
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
// of the FEM values.
//
// The prior part of a BTA block depends on its time pair only through the
// pair's class (first, interior or last step, or the coupling of two
// steps), and the data term lives on the diagonal, arrow and tip blocks
// only: an observation touches a single time step. So New lays out, in one
// pass over Q_c's pattern, the prior entries of each class's first block,
// the fixed-effect diagonal of the tip, and the AᵀA entries with their BTA
// destinations. An assembly computes the nv²·numClasses weights, writes
// each class's prior values into its first block, copies that block into
// the class's other blocks, zeroes the arrow and writes the tip's prior,
// then adds the data term at the AᵀA entries, in the per-entry sum's order:
// every position of the output is written.

// classFixed marks an entry outside the spatio-temporal blocks: a
// fixed-effect diagonal (fem = (1, 0, 0)) or a data-term-only entry
// (fem = 0).
const (
	classFixed = spde.NumBlockClasses
	numClasses = spde.NumBlockClasses + 1
)

// qcEntry is the θ-invariant part of one stored entry of the n×n pattern
// every process pair's block of Q_c shares.
type qcEntry struct {
	fem   [3]float64 // C̃, G and G·C̃⁻¹·G at the spatial pair
	class int32      // spde block class of the time pair, or classFixed
	gram  int32      // index of the AᵀA entry, −1 when none
}

// priorEntry is one prior value of a block: its offset in the block's
// storage and its FEM values. A block's entries are kept per process pair.
type priorEntry struct {
	off int32
	fem [3]float64
}

// dataRun is the AᵀA entries of one process pair i·nv + j in one diagonal,
// arrow or tip block of Q_c: blk is the block's unified BTAMap index, sym
// the pair's index symPair(i, j) among the count data term's per-pair
// values.
type dataRun struct {
	blk, pair, sym int32
	entries        []dataEntry
}

// dataEntry is an offset in its run's block and the entry of AᵀA there.
type dataEntry struct {
	off, gram int32
}

// fillWork is the scratch of one assembly: the weights c(θ), the scale of
// the data term per process pair and a view of the output's blocks,
// indexed like BTAMap's unified block index. Pooled on the Model so
// concurrent evaluations neither share nor allocate it.
type fillWork struct {
	coef   [][3]float64 // [(i·nv + j)·numClasses + class]
	w      []float64    // [i·nv + j]: scale of the data term
	blocks [][]float64
}

// localPattern lays out the n×n pattern every process pair's block of Q_c
// shares — the prior's spatial blocks (|t − t′| ≤ 1), the fixed-effect
// diagonal and AᵀA — with the θ-invariant values of its entries: row r's
// entries are tab[rowPtr[r]:rowPtr[r+1]], at columns cols, ascending.
// Entries from keep[r] on are the ones BTA stores transposed: a spatial
// row's entries at step t+1 and its fixed-effect entries, whose mirrors
// carry their values.
func (m *Model) localPattern() (tab []qcEntry, cols, rowPtr, keep []int) {
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

	rowPtr = make([]int, n+1)
	keep = make([]int, n)
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
			e := qcEntry{class: classFixed, gram: -1}
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
			tab = append(tab, e)
			cols = append(cols, col)
		}
		rowPtr[r+1] = len(cols)
		keep[r] = len(cols)
		if r < nst {
			keep[r] = rowPtr[r] + sort.SearchInts(cols[rowPtr[r]:], (r/ns+1)*ns)
		}
	}
	return tab, cols, rowPtr, keep
}

// buildTables tiles the local pattern over the nv×nv process pairs into
// Q_c's process-major CSR pattern and, in the same pass, records every
// entry's BTA destination (the BTAMap), each class's prior entries in the
// class's first block, the tip's prior entries and the AᵀA entries.
func (m *Model) buildTables() error {
	d := m.Dims
	nv, n := d.Nv, d.PerProcess()
	nt, b, a := d.BTAShape()
	tab, cols, locPtr, locKeep := m.localPattern()

	// Unified index of each class's first block: Diag[t] is t, Lower[t] is
	// nt + t.
	var first [spde.NumBlockClasses]int32
	for c := range first {
		first[c] = -1
	}
	for t := nt - 1; t >= 0; t-- {
		first[spde.BlockClass(t, t, nt)] = int32(t)
	}
	if nt > 1 {
		first[spde.BlockOff] = int32(nt)
	}

	for c := range m.classPrior {
		m.classPrior[c] = make([][]priorEntry, nv*nv)
	}
	m.tipPrior = make([][]priorEntry, nv*nv)
	run := make([]int32, (3*nt)*nv*nv) // data run of (block, pair) + 1; 0 = none yet

	nnz := nv * nv * len(cols)
	rowPtr := make([]int, nv*n+1)
	colIdx := make([]int, 0, nnz)
	mp := &BTAMap{N: nt, B: b, A: a, nnz: nnz, blockIdx: make([]int32, nnz), off: make([]int32, nnz)}
	for i := 0; i < nv; i++ {
		for r := 0; r < n; r++ {
			rp := m.permInv[i*n+r]
			lo, keep, hi := locPtr[r], locKeep[r], locPtr[r+1]
			for j := 0; j < nv; j++ {
				pair, sym := int32(i*nv+j), int32(symPair(i, j, nv))
				for q := lo; q < hi; q++ {
					p := len(colIdx)
					colIdx = append(colIdx, j*n+cols[q])
					blk, off, err := btaDest(rp, m.permInv[j*n+cols[q]], nt, b, a)
					if err != nil {
						return fmt.Errorf("model: Q_c mapping: %w", err)
					}
					mp.blockIdx[p], mp.off[p] = int32(blk), int32(off)
					if q >= keep {
						continue // the mirror entry writes this destination
					}
					e := &tab[q]
					pe := priorEntry{off: int32(off), fem: e.fem}
					switch {
					case e.class != classFixed && int32(blk) == first[e.class]:
						m.classPrior[e.class][pair] = append(m.classPrior[e.class][pair], pe)
					case e.class == classFixed && e.fem[0] != 0:
						m.tipPrior[pair] = append(m.tipPrior[pair], pe)
					}
					if e.gram >= 0 {
						k := blk*nv*nv + int(pair)
						if run[k] == 0 {
							m.dataRuns = append(m.dataRuns, dataRun{blk: int32(blk), pair: pair, sym: sym})
							run[k] = int32(len(m.dataRuns))
						}
						dr := &m.dataRuns[run[k]-1]
						dr.entries = append(dr.entries, dataEntry{off: int32(off), gram: e.gram})
					}
				}
			}
			rowPtr[i*n+r+1] = len(colIdx)
		}
	}
	m.qcPattern = sparse.NewCSR(nv*n, nv*n, rowPtr, colIdx, nil)
	m.qcMap = mp
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

// checkShape reports a BTA workspace whose shape is not Q_c's.
func (m *Model) checkShape(out *bta.Matrix) error {
	if mp := m.qcMap; out.N != mp.N || out.B != mp.B || out.A != mp.A {
		return fmt.Errorf("model: workspace BTA(n=%d,b=%d,a=%d), model needs (n=%d,b=%d,a=%d)",
			out.N, out.B, out.A, mp.N, mp.B, mp.A)
	}
	return nil
}

// writePrior writes the prior values of a block of class class into d,
// from its entries per process pair. Each value is the per-entry sum's
// prior part plus w_ij·0, the data term of an entry without one, so signed
// zeros come out as the sum gives them.
func writePrior(fw *fillWork, entries [][]priorEntry, class int, d []float64) {
	for pair, run := range entries {
		// Scalars, not the [3]float64, so the loop keeps them in registers.
		c := &fw.coef[pair*numClasses+class]
		c0, c1, c2, z := c[0], c[1], c[2], fw.w[pair]*0
		for _, e := range run {
			d[e.off] = c0*e.fem[0] + c1*e.fem[1] + c2*e.fem[2] + z
		}
	}
}

// fillPrior writes the prior part of Q_c — Q_p, with fw.w scaling the
// data term still to come — into every position of out's non-nil blocks:
// each class's first block from its entries, copied into the class's other
// blocks; the arrow zeroed; the tip zeroed but for its fixed-effect
// diagonal.
func (m *Model) fillPrior(fw *fillWork, out *bta.Matrix) {
	var first [spde.NumBlockClasses][]float64
	fill := func(class int, d []float64) {
		if d == nil {
			return
		}
		if f := first[class]; f != nil {
			copy(d, f)
			return
		}
		clear(d)
		writePrior(fw, m.classPrior[class], class, d)
		first[class] = d
	}
	for t, blk := range out.Diag {
		fill(spde.BlockClass(t, t, out.N), blockData(blk))
	}
	for _, blk := range out.Lower {
		fill(spde.BlockOff, blockData(blk))
	}
	for _, blk := range out.Arrow {
		clear(blockData(blk))
	}
	if out.Tip != nil {
		clear(out.Tip.Data)
		writePrior(fw, m.tipPrior, classFixed, out.Tip.Data)
	}
}

// addData adds fw.w[i·nv+j]·data[symPair(i,j)·stride + g] at every AᵀA
// entry g of out's non-nil blocks. The Gaussian term passes the Gram
// values with stride 0 and W as the scale; the count term passes per-pair
// values with unit scale.
func (m *Model) addData(fw *fillWork, data []float64, stride int, out *bta.Matrix) {
	fw.blocks = fw.blocks[:0]
	for _, blk := range out.Diag {
		fw.blocks = append(fw.blocks, blockData(blk))
	}
	for _, blk := range out.Lower {
		fw.blocks = append(fw.blocks, blockData(blk))
	}
	for _, blk := range out.Arrow {
		fw.blocks = append(fw.blocks, blockData(blk))
	}
	if out.A > 0 {
		fw.blocks = append(fw.blocks, blockData(out.Tip))
	}
	for i := range m.dataRuns {
		r := &m.dataRuns[i]
		d, w, dt := fw.blocks[r.blk], fw.w[r.pair], data[int(r.sym)*stride:]
		if d == nil {
			continue
		}
		for _, e := range r.entries {
			d[e.off] += w * dt[e.gram]
		}
	}
}

// blockData is blk's storage, nil for a block out of a slice's View.
func blockData(blk *dense.Matrix) []float64 {
	if blk == nil {
		return nil
	}
	return blk.Data
}

// assemble writes Q_c (noise) or Q_p into every position of out's non-nil
// blocks.
func (m *Model) assemble(t *Theta, noise bool, out *bta.Matrix) error {
	if err := m.checkShape(out); err != nil {
		return err
	}
	fw := m.getFill()
	defer m.fillPool.Put(fw)
	m.priorWeights(t, fw)
	if noise {
		noiseWInto(t, fw.w)
	} else {
		clear(fw.w)
	}
	m.fillPrior(fw, out)
	if noise {
		m.addData(fw, m.gram.Val, 0, out)
	}
	return nil
}

// patternCSR reads the values of an assembled BTA matrix back through the
// BTAMap into Q_c's cached pattern. The index arrays are shared with the
// Model and must be treated as read-only.
func (m *Model) patternCSR(q *bta.Matrix) *sparse.CSR {
	p := m.qcPattern
	return sparse.NewCSR(p.RowsN, p.ColsN, p.RowPtr, p.ColIdx, m.qcMap.values(q))
}

// QcCSR returns the conditional precision Q_c = Q_p + AᵀDA in
// process-major ordering, over the cached pattern (whose index arrays it
// shares, read-only) — the general-sparse form the baselines work on: the
// BTA assembly read back, so an entry BTA stores transposed carries its
// mirror's value.
func (m *Model) QcCSR(t *Theta) *sparse.CSR {
	q, err := m.Qc(t)
	if err != nil {
		panic(fmt.Sprintf("model: %v", err)) // no workspace to mismatch
	}
	return m.patternCSR(q)
}

// QpCSR returns the joint prior precision in process-major ordering, on
// Q_c's pattern: entries only the data term fills hold zeros.
func (m *Model) QpCSR(t *Theta) *sparse.CSR {
	q, err := m.Qp(t)
	if err != nil {
		panic(fmt.Sprintf("model: %v", err))
	}
	return m.patternCSR(q)
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

// QpInto assembles the prior precision into every position of an existing
// BTA workspace: the Q_c assembly without the data term. Allocation-free.
func (m *Model) QpInto(t *Theta, out *bta.Matrix) error { return m.assemble(t, false, out) }

// Qc assembles the conditional precision Q_c = Q_p + AᵀDA as a BTA matrix.
func (m *Model) Qc(t *Theta) (*bta.Matrix, error) {
	out := bta.NewMatrix(m.qcMap.N, m.qcMap.B, m.qcMap.A)
	if err := m.QcInto(t, out); err != nil {
		return nil, err
	}
	return out, nil
}

// QcInto assembles the conditional precision into every position of an
// existing BTA workspace — whatever it held, a factor's or a Σ's contents
// included: c(θ), one block per class, copies, then the data term. A nil
// block is skipped, so a rank's bta.LocalBTA.View receives exactly its
// slice. Allocation-free and safe for concurrent use with distinct
// workspaces.
func (m *Model) QcInto(t *Theta, out *bta.Matrix) error { return m.assemble(t, true, out) }
