package dense

import "sync"

// Cache blocking parameters of the packed GEMM driver (GotoBLAS scheme):
// op(B) is packed once per (kc×nc) panel and streamed from L2/L3; each
// worker packs its own (mc×kc) panel of op(A) into L2; the micro-kernel
// then runs MR×NR register tiles over the packed panels.
const (
	kcBlock = 256 // depth of one packed panel pair (L1 residency of the micro-panels)
	mcBlock = 128 // rows of op(A) per packed A panel (multiple of MR)
	ncBlock = 512 // cols of op(B) per packed B panel (multiple of NR)
)

// Packing buffers are recycled through sync.Pools so steady-state GEMM
// calls perform zero heap allocations. The A buffer carries MR·NR extra
// trailing elements used as the edge-tile scratch (kept out of the stack so
// the indirect micro-kernel call cannot force a heap escape per call).
var packAPool = sync.Pool{New: func() any {
	s := make([]float64, mcBlock*kcBlock+MR*NR)
	return &s
}}

var packBPool = sync.Pool{New: func() any {
	s := make([]float64, kcBlock*ncBlock)
	return &s
}}

// packPanelsA packs op(A)[i0:i0+mcb, p0:p0+kcb] into MR-interleaved
// micro-panels: panel ip holds rows [ip,ip+MR) k-major, so the micro-kernel
// reads MR consecutive values per k step. Rows beyond mcb are zero-padded;
// alpha is folded in here so the kernel needs no epilogue scaling.
// A is passed as raw (data, stride) so parallel closures upstream never
// capture a *Matrix — keeping caller-side Views stack-allocated.
func packPanelsA(dst []float64, trans Transpose, aData []float64, aStride, i0, p0, mcb, kcb int, alpha float64) {
	for ip := 0; ip < mcb; ip += MR {
		h := MR
		if ip+h > mcb {
			h = mcb - ip
		}
		panel := dst[(ip/MR)*MR*kcb:]
		if trans == NoTrans && h == MR {
			// Four rows at once: one contiguous MR-store per k step, whole
			// groups of four k steps in vector registers where
			// packRows4Wide exists. Rows resliced to length kcb exactly, so
			// the loop runs free of per-element bounds checks.
			a := aData[(i0+ip)*aStride+p0:]
			a0, a1, a2, a3 := a[:kcb], a[aStride:][:kcb], a[2*aStride:][:kcb], a[3*aStride:][:kcb]
			p := 0
			if k4 := kcb &^ 3; k4 > 0 && packRows4Wide != nil {
				_ = panel[k4*MR-1]
				packRows4Wide(&panel[0], &a[0], aStride, k4, alpha)
				p = k4
			}
			for ; p < kcb; p++ {
				d := (*[MR]float64)(panel[p*MR:])
				d[0], d[1], d[2], d[3] = alpha*a0[p], alpha*a1[p], alpha*a2[p], alpha*a3[p]
			}
		} else if trans == NoTrans {
			for r := 0; r < h; r++ {
				src := aData[(i0+ip+r)*aStride+p0 : (i0+ip+r)*aStride+p0+kcb]
				for p, v := range src {
					panel[p*MR+r] = alpha * v
				}
			}
		} else if h == MR {
			// A whole panel's k step is one MR-wide row of A: array moves
			// free of per-element bounds checks.
			for p := 0; p < kcb; p++ {
				src := (*[MR]float64)(aData[(p0+p)*aStride+i0+ip:])
				d := (*[MR]float64)(panel[p*MR:])
				d[0], d[1], d[2], d[3] = alpha*src[0], alpha*src[1], alpha*src[2], alpha*src[3]
			}
		} else {
			for p := 0; p < kcb; p++ {
				src := aData[(p0+p)*aStride+i0+ip : (p0+p)*aStride+i0+ip+h]
				d := panel[p*MR : p*MR+MR]
				for r, v := range src {
					d[r] = alpha * v
				}
			}
		}
		if h < MR {
			for p := 0; p < kcb; p++ {
				d := panel[p*MR : p*MR+MR]
				for r := h; r < MR; r++ {
					d[r] = 0
				}
			}
		}
	}
}

// packPanelsB packs op(B)[p0:p0+kcb, j0:j0+ncb] into NR-interleaved
// micro-panels: panel jp holds columns [jp,jp+NR) k-major. Columns beyond
// ncb are zero-padded.
func packPanelsB(dst []float64, trans Transpose, bData []float64, bStride, p0, j0, kcb, ncb int) {
	for jp := 0; jp < ncb; jp += NR {
		w := NR
		if jp+w > ncb {
			w = ncb - jp
		}
		panel := dst[(jp/NR)*NR*kcb:]
		if trans == NoTrans {
			for p := 0; p < kcb; p++ {
				src := bData[(p0+p)*bStride+j0+jp : (p0+p)*bStride+j0+jp+w]
				d := panel[p*NR : p*NR+NR]
				copy(d, src)
				for j := w; j < NR; j++ {
					d[j] = 0
				}
			}
		} else if w == NR {
			transposeRows8(panel, bData[(j0+jp)*bStride+p0:], bStride, kcb, false)
		} else {
			for p := 0; p < kcb; p++ {
				clear(panel[p*NR+w : p*NR+NR])
			}
			for j := 0; j < w; j++ {
				src := bData[(j0+jp+j)*bStride+p0 : (j0+jp+j)*bStride+p0+kcb]
				for p, v := range src {
					panel[p*NR+j] = v
				}
			}
		}
	}
}

// packRows4Wide, when set (the AVX2 build on a capable CPU), packs whole
// groups of four k steps of four rows for packPanelsA in vector registers.
var packRows4Wide func(dst, a *float64, aStride, k4 int, alpha float64)

// transposeRows8Wide, when set (the AVX2 build on a capable CPU), moves
// whole groups of four columns for transposeRows8 in vector registers.
var transposeRows8Wide func(yp, b *float64, bStride, n4 int, unpack bool)

// transposeRows8 moves n columns of the NR = 8 rows of b (row stride
// bStride) to or from their k-major packed form yp[p·NR + r] = b[r, p]:
// into yp, or back into b when unpack is set. transposeRows8Wide moves the
// columns in groups of four where it exists; the loop below moves the
// rest, a whole packed row per p step, on rows resliced to length n
// exactly (which is also the bounds check of the whole move).
func transposeRows8(yp, b []float64, bStride, n int, unpack bool) {
	b0, b1, b2, b3 := b[:n], b[bStride:][:n], b[2*bStride:][:n], b[3*bStride:][:n]
	b4, b5, b6, b7 := b[4*bStride:][:n], b[5*bStride:][:n], b[6*bStride:][:n], b[7*bStride:][:n]
	p0 := 0
	if n4 := n &^ 3; n4 > 0 && transposeRows8Wide != nil {
		_ = yp[n4*NR-1]
		transposeRows8Wide(&yp[0], &b[0], bStride, n4, unpack)
		p0 = n4
	}
	for p := p0; p < n; p++ {
		d := (*[NR]float64)(yp[p*NR:])
		if unpack {
			b0[p], b1[p], b2[p], b3[p], b4[p], b5[p], b6[p], b7[p] = d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		} else {
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = b0[p], b1[p], b2[p], b3[p], b4[p], b5[p], b6[p], b7[p]
		}
	}
}

// noMask is the diagonal offset of a full (unmasked) product: every tile of
// C lies on or below the "diagonal" row − col = −noMask.
const noMask = 1 << 40

// macroKernel sweeps the register tiles of one (mcb×ncb) block of C over
// the packed panels. cData points at the (0,0) element of the C block, with
// row stride ldc. Only elements (i, j) of the block with j ≤ i + diag are
// accumulated: diag is the block's row origin minus its column origin in a
// lower-triangular Syrk, noMask for a full Gemm. Tiles entirely above that
// line are skipped; full MR×NR tiles entirely below it hit C directly; edge
// tiles and tiles the line crosses go through the zero-padded scratch tile,
// of which only the valid lower region is accumulated.
func macroKernel(mcb, ncb, kcb, diag int, aPan, bPan []float64, bStep int, tile, cData []float64, ldc int) {
	for jp := 0; jp < ncb; jp += NR {
		w := NR
		if jp+w > ncb {
			w = ncb - jp
		}
		bp := bPan[(jp/NR)*bStep:]
		for ip := 0; ip < mcb; ip += MR {
			h := MR
			if ip+h > mcb {
				h = mcb - ip
			}
			if jp > ip+h-1+diag {
				continue // strictly upper
			}
			ap := aPan[(ip/MR)*MR*kcb:]
			if h == MR && w == NR && jp+NR-1 <= ip+diag {
				ukernel(kcb, ap, bp, cData[ip*ldc+jp:], ldc)
				continue
			}
			clear(tile[:MR*NR])
			ukernel(kcb, ap, bp, tile, NR)
			for r := 0; r < h; r++ {
				lim := min(w, ip+r+diag-jp+1)
				if lim <= 0 {
					continue
				}
				crow := cData[(ip+r)*ldc+jp : (ip+r)*ldc+jp+lim]
				for j, v := range tile[r*NR : r*NR+lim] {
					crow[j] += v
				}
			}
		}
	}
}

// gemmPacked computes C += alpha·op(A)·op(B) through the packed micro-kernel
// engine; with lower set, C is square and only its lower triangle is
// computed and touched (the Syrk sweep: tiles above the diagonal are never
// run). Parallelism is over macro-tiles of C rows: the packed B panel is
// shared read-only, each worker packs its own A panel. Every element of C
// is accumulated in the same order whatever the tiling, so results are
// bitwise independent of the worker count. Matrix operands are unwrapped to
// (data, stride) immediately, so callers' Views stay on their stack.
func gemmPacked(transA, transB Transpose, alpha float64, a, b, c *Matrix, lower bool) {
	m, n := c.Rows, c.Cols
	k := a.Cols
	if transA == Trans {
		k = a.Rows
	}
	bData, bStride := b.Data, b.Stride
	bBufP := packBPool.Get().(*[]float64)
	bBuf := *bBufP
	for jc := 0; jc < n; jc += ncBlock {
		ncb := min(ncBlock, n-jc)
		diag := noMask
		if lower {
			diag = -jc
		}
		for pc := 0; pc < k; pc += kcBlock {
			kcb := min(kcBlock, k-pc)
			packPanelsB(bBuf, transB, bData, bStride, pc, jc, kcb, ncb)
			gemmSweep(gemmJob{transA: transA, alpha: alpha, aData: a.Data, aStride: a.Stride,
				cData: c.Data, cStride: c.Stride, bPan: bBuf, bStep: kcb * NR,
				m: m, pc: pc, jc: jc, kcb: kcb, ncb: ncb, diag: diag})
		}
	}
	packBPool.Put(bBufP)
}

// gemmJob is one packed B panel's share of a product: C[:, jc:jc+ncb] +=
// alpha·op(A)[:, pc:pc+kcb]·B̃ over the m rows of C, in macro-tiles of mc
// rows, masked to j ≤ i + diag (noMask for a full product). bPan is the
// packed panel, bStep the length of one of its NR-wide micro-panels.
type gemmJob struct {
	transA           Transpose
	alpha            float64
	aData, cData     []float64
	aStride, cStride int
	bPan             []float64
	bStep            int
	m, mc            int
	pc, jc, kcb, ncb int
	diag             int
}

var gemmJobs = sync.Pool{New: func() any { return new(gemmJob) }}

// gemmSweep runs j over its macro-tiles of at most mcBlock rows, balanced
// so a two-tile product does not split 128 + 16: serially, or fanned out
// over the workers (any multi-tile product: a tile is up to mcBlock rows of
// level-3 work, far above the cost of a goroutine).
func gemmSweep(j gemmJob) {
	nTiles := (j.m + mcBlock - 1) / mcBlock
	j.mc = ((j.m+nTiles-1)/nTiles + MR - 1) / MR * MR
	if MaxWorkers() <= 1 || nTiles < 2 {
		j.run(0, nTiles)
		return
	}
	fanOut(&gemmJobs, nTiles, 2, j)
}

// run processes macro-tiles [t0,t1) of mc rows of C against the shared
// packed B panel: pack the worker-private A panel, run the macro-kernel.
// Tiles wholly above the diagonal line are not even packed.
func (j *gemmJob) run(t0, t1 int) {
	aBufP := packAPool.Get().(*[]float64)
	aBuf := *aBufP
	tile := aBuf[mcBlock*kcBlock:]
	for t := t0; t < t1; t++ {
		ic := t * j.mc
		mcb := min(j.mc, j.m-ic)
		if mcb <= 0 || ic+mcb-1+j.diag < 0 {
			continue
		}
		packPanelsA(aBuf, j.transA, j.aData, j.aStride, ic, j.pc, mcb, j.kcb, j.alpha)
		macroKernel(mcb, j.ncb, j.kcb, ic+j.diag, aBuf, j.bPan, j.bStep, tile, j.cData[ic*j.cStride+j.jc:], j.cStride)
	}
	packAPool.Put(aBufP)
}
