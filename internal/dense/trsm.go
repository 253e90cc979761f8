package dense

import (
	"fmt"
	"sync"
)

// Packed triangular solve. Each Trsm variant is a set of independent row
// solves Y·op(L) = C on Y = B (side Right) or Y = Bᵀ (side Left):
//
//	Right, Trans:   Y·Lᵀ = B                forward over the columns of Y
//	Left,  NoTrans: L·X = B  ⇔ Xᵀ·Lᵀ = Bᵀ   forward
//	Right, NoTrans: Y·L = B                 backward
//	Left,  Trans:   Lᵀ·X = B ⇔ Xᵀ·L = Bᵀ    backward
//
// L is packed once per call as micro-kernel A panels, one slot per MR
// columns of Y in solve order: the negated coupling of those columns to the
// ones already solved, then the inverse of their MR×MR diagonal block. NR
// rows of Y at a time are packed k-major as the B operand, and each column
// tile is two micro-kernel calls in place: T = C_t − Y_done·(coupling), then
// Y_t = T·inv(L_tt)ᵀ (forward) or T·inv(L_tt) (backward). No scalar
// dependency chain is left: the only divisions are the diagonal
// reciprocals, taken once at pack time.

// trsmPackMax is the largest order solved in one packed sweep. Above it
// Trsm splits L in two (two half solves and one Gemm), which keeps the
// coupling panels within one GEMM depth slab (kcBlock) and the packed factor
// within a packB buffer.
const trsmPackMax = kcBlock

// trsmPackMinRows is the fewest rows of Y worth packing L for: a single
// right-hand side runs trsmUnb, whose O(n²) work ties packing L; from two
// rows on (the arrow rows of the BTA shapes) the packed solve wins.
const trsmPackMinRows = 2

// Trsm solves a triangular system with a lower-triangular L in place of B:
//
//	Left,  NoTrans: B ← L⁻¹ B
//	Left,  Trans:   B ← L⁻ᵀ B
//	Right, NoTrans: B ← B L⁻¹
//	Right, Trans:   B ← B L⁻ᵀ
//
// Only the lower triangle of L is referenced. Unit-diagonal systems are not
// needed by the BTA solvers and are not supported. Rows of Y (see above)
// are solved independently, in parallel across workers for tall B, and
// each row's result is bitwise independent of the worker count.
func Trsm(side Side, trans Transpose, l, b *Matrix) {
	if l.Rows != l.Cols {
		panic("dense: trsm with non-square triangular factor")
	}
	n := l.Rows
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic(fmt.Sprintf("dense: trsm shape mismatch L=%d×%d B=%d×%d side=%d", l.Rows, l.Cols, b.Rows, b.Cols, side))
	}
	if n == 0 || b.Rows == 0 || b.Cols == 0 {
		return
	}
	if n > trsmPackMax {
		trsmSplit(side, trans, l, b)
		return
	}
	m := b.Rows
	if side == Left {
		m = b.Cols
	}
	if m < trsmPackMinRows {
		trsmUnb(side, trans, l, b)
		return
	}
	lpP := packBPool.Get().(*[]float64)
	fwd := (side == Right) == (trans == Trans)
	packTrsmL(*lpP, fwd, l.Data, l.Stride, n)
	trsmSweep(trsmJob{fwd: fwd, left: side == Left, n: n, lp: *lpP, bData: b.Data, bStride: b.Stride, m: m})
	packBPool.Put(lpP)
}

// trsmSplit solves a system above trsmPackMax by halves: the leading half,
// its Gemm update of the trailing right-hand sides, the trailing half
// (backward systems in the reverse order).
func trsmSplit(side Side, trans Transpose, l, b *Matrix) {
	n := l.Rows
	n1 := recSplit(n)
	l11, l21, l22 := l.View(0, 0, n1, n1), l.View(n1, 0, n-n1, n1), l.View(n1, n1, n-n1, n-n1)
	if side == Right {
		b1, b2 := b.View(0, 0, b.Rows, n1), b.View(0, n1, b.Rows, n-n1)
		if trans == Trans { // X1·L11ᵀ = B1, X2·L22ᵀ = B2 − X1·L21ᵀ
			Trsm(side, trans, l11, b1)
			Gemm(NoTrans, Trans, -1, b1, l21, 1, b2)
			Trsm(side, trans, l22, b2)
		} else { // X2·L22 = B2, X1·L11 = B1 − X2·L21
			Trsm(side, trans, l22, b2)
			Gemm(NoTrans, NoTrans, -1, b2, l21, 1, b1)
			Trsm(side, trans, l11, b1)
		}
		return
	}
	b1, b2 := b.View(0, 0, n1, b.Cols), b.View(n1, 0, n-n1, b.Cols)
	if trans == NoTrans { // L11·X1 = B1, L22·X2 = B2 − L21·X1
		Trsm(side, trans, l11, b1)
		Gemm(NoTrans, NoTrans, -1, l21, b1, 1, b2)
		Trsm(side, trans, l22, b2)
	} else { // L22ᵀ·X2 = B2, L11ᵀ·X1 = B1 − L21ᵀ·X2
		Trsm(side, trans, l22, b2)
		Gemm(Trans, NoTrans, -1, l21, b2, 1, b1)
		Trsm(side, trans, l11, b1)
	}
}

// recSplit is the leading order of a recursive split of n: half, rounded up
// to a multiple of NR so that only the trailing block has ragged tiles.
func recSplit(n int) int {
	return (n/2 + NR - 1) / NR * NR
}

// trsmSlot is the offset of solve step s's slot in the packed factor: slot
// s holds at most s·MR coupling rows plus the MR×MR inverse, MR wide.
func trsmSlot(s int) int {
	return MR * MR * s * (s + 1) / 2
}

// packTrsmL packs the n×n lower triangle of L into dst, one slot per MR
// columns of Y in solve order (forward: tile s; backward: tile T−1−s).
// Forward slots hold −L[c0+j, p] for p < c0, backward slots −L[p, c0+j] for
// p ≥ c0+MR, both k-major with j the MR-interleaved index; then the inverse
// D of the diagonal block as D[j, q] (forward, for T·Dᵀ) or D[q, j]
// (backward, for T·D) at k = q. Columns past n are zero.
func packTrsmL(dst []float64, fwd bool, lData []float64, lStride, n int) {
	nt := (n + MR - 1) / MR
	for s := 0; s < nt; s++ {
		t := s
		if !fwd {
			t = nt - 1 - s
		}
		c0 := t * MR
		w := min(MR, n-c0)
		off := trsmSlot(s)
		// The coupling is a one-panel A pack of −L: rows c0… left of the
		// diagonal block (forward) or columns c0… below it (backward, where
		// only the last tile is narrower than MR, and it has no coupling).
		if fwd {
			packPanelsA(dst[off:], NoTrans, lData, lStride, c0, 0, w, c0, -1)
		} else {
			packPanelsA(dst[off:], Trans, lData, lStride, c0, c0+MR, w, max(0, n-c0-MR), -1)
		}
		packInverse(dst[off+s*MR*MR:off+(s+1)*MR*MR], fwd, lData, lStride, c0, w)
	}
}

// packInverse writes the inverse D of the w×w lower-triangular block of L
// at (c0, c0) into the slot tail d, as D[j, q] (forward, for T·Dᵀ) or
// D[q, j] (backward, for T·D) at k = q.
func packInverse(d []float64, fwd bool, lData []float64, lStride, c0, w int) {
	var inv [MR * MR]float64
	invLowerTile(&inv, lData, lStride, c0, w)
	for q := 0; q < MR; q++ {
		for j := 0; j < MR; j++ {
			if fwd {
				d[q*MR+j] = inv[j*MR+q]
			} else {
				d[q*MR+j] = inv[q*MR+j]
			}
		}
	}
}

// invLowerTile writes the inverse of the w×w lower-triangular block of L at
// (c0, c0) into inv (row-major MR×MR, zero outside that triangle).
func invLowerTile(inv *[MR * MR]float64, lData []float64, lStride, c0, w int) {
	*inv = [MR * MR]float64{}
	for j := 0; j < w; j++ {
		inv[j*MR+j] = 1 / lData[(c0+j)*lStride+c0+j]
	}
	for j := 0; j < w; j++ {
		for i := j + 1; i < w; i++ {
			var s float64
			for k := j; k < i; k++ {
				s += lData[(c0+i)*lStride+c0+k] * inv[k*MR+j]
			}
			inv[i*MR+j] = -s * inv[i*MR+i]
		}
	}
}

// trsmJob solves the m rows of Y held in bData (rows of B, or columns for a
// left-side solve) against the packed factor lp. With keep set, each block
// of NR rows is solved in its own trsmPanel(n)-long stretch of keep and left
// there: the k-major form packPanelsB(Trans, Y, …) builds, which the step's
// products read as their packed B operand (step.go). With panel set, the
// solved rows go to panel instead of back to bData, in the form
// packPanelsB(NoTrans, Y, …) builds over Y's m rows (unpackPanel), which
// Invert's products read as their B operand. With ident set (backward
// solves only) Y starts as the identity rows, bData is not read, and the
// tiles right of each row block's diagonal, zero in Y = I·L⁻¹, are skipped
// and left out of panel.
type trsmJob struct {
	fwd, left bool
	ident     bool
	n, m      int
	lp, bData []float64
	bStride   int
	keep      []float64
	panel     []float64
}

var trsmJobs = sync.Pool{New: func() any { return new(trsmJob) }}

// trsmPanel is the length of one block of NR packed rows of Y at order n:
// whole column tiles, so the last tile's solve stays inside its block.
func trsmPanel(n int) int {
	return (n + MR - 1) / MR * MR * NR
}

// trsmSweep solves every row block of j: serially, or, for tall Y, fanned
// out over the workers.
func trsmSweep(j trsmJob) {
	nb := (j.m + NR - 1) / NR
	if MaxWorkers() <= 1 || j.m < parallelRows {
		j.run(0, nb)
		return
	}
	fanOut(&trsmJobs, nb, 2, j)
}

// run solves row blocks [b0, b1) of Y, NR rows each. Y row i is B row i
// (right side) or B column i (left side).
func (j *trsmJob) run(b0, b1 int) {
	n, fwd, bData, bStride := j.n, j.fwd, j.bData, j.bStride
	ypP := packAPool.Get().(*[]float64)
	nt := (n + MR - 1) / MR
	pl := trsmPanel(n)
	yp := (*ypP)[:pl]
	tile := (*ypP)[pl : pl+MR*NR]
	for blk := b0; blk < b1; blk++ {
		i0 := blk * NR
		h := min(NR, j.m-i0)
		if j.keep != nil {
			yp = j.keep[blk*pl : (blk+1)*pl]
		}
		// Pack: yp[p·NR + r] = Y[i0+r, p], zero-padded to NR rows and to
		// whole column tiles (the padding meets zero rows of the inverse
		// tiles, so it must hold finite values: a pooled buffer may not).
		// Y's columns from cols on are zero and never solved.
		cols := n
		if j.ident {
			cols = min(n, (i0+h+MR-1)/MR*MR)
			clear(yp[:min(pl, (cols+NR-1)/NR*NR*NR)])
		} else if h < NR {
			clear(yp)
		} else {
			clear(yp[n*NR:])
		}
		switch {
		case j.ident:
			for r := 0; r < h; r++ {
				yp[(i0+r)*NR+r] = 1
			}
		case j.left:
			for p := 0; p < n; p++ {
				d := yp[p*NR : p*NR+h]
				for r, v := range bData[p*bStride+i0 : p*bStride+i0+h] {
					d[r] = v
				}
			}
		case h == NR:
			transposeRows8(yp, bData[i0*bStride:], bStride, n, false)
		default:
			for r := 0; r < h; r++ {
				for p, v := range bData[(i0+r)*bStride : (i0+r)*bStride+n] {
					yp[p*NR+r] = v
				}
			}
		}
		for s := 0; s < nt; s++ {
			t, kOff, k := s, 0, s*MR
			if !fwd {
				t = nt - 1 - s
				kOff = (t + 1) * MR
				k = max(0, cols-kOff)
				if t*MR >= cols {
					continue
				}
			}
			solveTile(k, j.lp[trsmSlot(s):], s, yp[kOff*NR:], yp[t*MR*NR:(t+1)*MR*NR], tile)
		}
		switch {
		case j.panel != nil:
			unpackPanel(j.panel, yp, i0, h, cols, j.m)
		case j.left:
			for p := 0; p < n; p++ {
				d := bData[p*bStride+i0 : p*bStride+i0+h]
				for r, v := range yp[p*NR : p*NR+h] {
					d[r] = v
				}
			}
		case h == NR:
			transposeRows8(yp, bData[i0*bStride:], bStride, n, true)
		default:
			for r := 0; r < h; r++ {
				row := bData[(i0+r)*bStride : (i0+r)*bStride+n]
				for p := range row {
					row[p] = yp[p*NR+r]
				}
			}
		}
	}
	packAPool.Put(ypP)
}

// unpackPanel writes the h solved rows i0… of Y packed in yp into panel,
// Y's columns [0, cols) in packPanelsB(NoTrans, Y, …) form over Y's m
// rows: NR-column group c holds Y[p, c·NR + q] at c·NR·m + p·NR + q, with
// the group's columns from cols on zero.
func unpackPanel(panel, yp []float64, i0, h, cols, m int) {
	for c0 := 0; c0 < cols; c0 += NR {
		dst := panel[c0*m+i0*NR:]
		w := min(NR, cols-c0)
		if h == NR && w == NR {
			transposeRows8(yp[c0*NR:], dst, NR, NR, true)
			continue
		}
		for r := 0; r < h; r++ {
			d := (*[NR]float64)(dst[r*NR:])
			*d = [NR]float64{}
			for q := range w {
				d[q] = yp[(c0+q)*NR+r]
			}
		}
	}
}

// solveTile is one column tile of a packed row solve, in place on yt: the
// coupling update T = C_t − Y_done·coupling (k deep, from slot s's
// coupling and the packed solved columns yDone), then Y_t = T·D through
// the slot's inverse tile; tile is MR×NR scratch.
func solveTile(k int, slot []float64, s int, yDone, yt, tile []float64) {
	ukernel(k, slot, yDone, yt, NR)
	// Array moves, not copy/clear: a 32-element runtime call per tile is a
	// measured share at b ≈ 60.
	*(*[MR * NR]float64)(tile) = *(*[MR * NR]float64)(yt)
	*(*[MR * NR]float64)(yt) = [MR * NR]float64{}
	ukernel(MR, slot[s*MR*MR:], tile, yt, NR)
}
