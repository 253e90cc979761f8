package dense

import "fmt"

// Eliminate runs one block elimination step of a blocked Cholesky
// factorization — factor a diagonal block, solve its couplings, downdate
// their Schur complement — with each operand packed once:
//
//	a       ← L, where A = L·Lᵀ               Potrf
//	g[i]    ← g[i]·L⁻ᵀ                        Trsm(Right, Trans), each non-nil g[i]
//	s[i][j] ← s[i][j] − g[i]·g[j]ᵀ, j ≤ i     each non-nil s[i][j]: the lower
//	                                          triangle (Syrk) for i = j, Gemm
//	                                          otherwise; g[i], g[j] non-nil
//
// Potrf leaves L in the packed slot form every coupling solve reads (so L
// is packed once, not once per solve), and each packed solve leaves its
// rows in the k-major form that Syrk and Gemm pack their right operand
// g[j]ᵀ into, which the products read instead of packing g[j] again. Every
// output is bitwise what the calls above give, unfused and in that order,
// at any worker count. Above trsmPackMax the step runs those calls. On an
// error only a has been written.
func Eliminate(a *Matrix, g [3]*Matrix, s [3][3]*Matrix) error {
	n := a.Rows
	if n != a.Cols {
		return fmt.Errorf("dense: eliminate of non-square %d×%d block", n, a.Cols)
	}
	if n == 0 || n > trsmPackMax {
		if err := Potrf(a); err != nil {
			return err
		}
		for _, gi := range g {
			if gi != nil {
				Trsm(Right, Trans, a, gi)
			}
		}
		downdateAll(g, s, [3][]float64{})
		return nil
	}
	lpP := packBPool.Get().(*[]float64)
	defer packBPool.Put(lpP)
	if err := potrfPacked(*lpP, a.Data, a.Stride, n); err != nil {
		return err
	}
	var pooled [3]*[]float64 // the solves' packed rows, rows[i] = *pooled[i]
	var rows [3][]float64
	for i, gi := range g {
		switch {
		case gi == nil:
		case gi.Rows < trsmPackMinRows || (gi.Rows+NR-1)/NR*trsmPanel(n) > kcBlock*ncBlock:
			Trsm(Right, Trans, a, gi)
		default:
			if gi.Cols != n {
				panic(fmt.Sprintf("dense: eliminate coupling %d is %d×%d, block is %d×%d", i, gi.Rows, gi.Cols, n, n))
			}
			pooled[i] = packBPool.Get().(*[]float64)
			rows[i] = *pooled[i]
			trsmSweep(trsmJob{fwd: true, n: n, m: gi.Rows, lp: *lpP, bData: gi.Data, bStride: gi.Stride, keep: rows[i]})
		}
	}
	downdateAll(g, s, rows)
	for _, p := range pooled {
		if p != nil {
			packBPool.Put(p)
		}
	}
	return nil
}

// downdateAll applies s[i][j] −= g[i]·g[j]ᵀ for every non-nil s[i][j],
// j ≤ i. Where rows[j] holds g[j]'s packed solved rows and the product runs
// packed in one B panel, those rows are the panel; otherwise it is the
// Syrk or Gemm call.
func downdateAll(g [3]*Matrix, s [3][3]*Matrix, rows [3][]float64) {
	for i := range g {
		for j := 0; j <= i; j++ {
			c := s[i][j]
			if c == nil {
				continue
			}
			gi, gj := g[i], g[j]
			if c.Rows != gi.Rows || c.Cols != gj.Rows || gi.Cols != gj.Cols {
				panic(fmt.Sprintf("dense: eliminate target %d,%d is %d×%d, want %d×%d", i, j, c.Rows, c.Cols, gi.Rows, gj.Rows))
			}
			k := gi.Cols
			if rows[j] == nil || gj.Rows > ncBlock || gi.Rows*gj.Rows*k < packFlops {
				if i == j {
					Syrk(NoTrans, -1, gi, 1, c)
				} else {
					Gemm(NoTrans, Trans, -1, gi, gj, 1, c)
				}
				continue
			}
			diag := noMask
			if i == j {
				diag = 0
			}
			gemmSweep(gemmJob{transA: NoTrans, alpha: -1, aData: gi.Data, aStride: gi.Stride,
				cData: c.Data, cStride: c.Stride, bPan: rows[j], bStep: trsmPanel(k),
				m: gi.Rows, kcb: k, ncb: gj.Rows, diag: diag})
		}
	}
}

// Invert runs one block step of a selected inversion, the backward sweep
// of a blocked Cholesky factorization's inverse and the twin of
// Eliminate. With l the Cholesky factor L of a diagonal block k, g[i] its
// couplings L_{i,k} to the step's neighbours i as Eliminate left them (nil
// where absent), and s[i][j], j ≤ i, the selected inverse Σ_ij over those
// neighbours (Σ_ij = s[j][i]ᵀ for j > i), it writes
//
//	G_i    = g[i]·L⁻¹                            packed, never stored
//	out[i] ← Σ_{i,k} = −Σ_j Σ_ij·G_j, j = 0, 1, 2 each non-nil g[i]
//	d      ← Σ_kk = L⁻ᵀ·L⁻¹ − Σ_i out[i]ᵀ·G_i      both triangles, exactly symmetric
//
// s[i][j] is read only where g[i] and g[j] are non-nil, and only the lower
// triangle of l. L is packed once for every solve of the step: L⁻¹ is the
// backward solve of the identity rows (the zero tiles right of each row
// block's diagonal skipped), each G_i the backward solve of g[i]'s rows,
// both left in the packed B panel form of the products that read them.
// L⁻ᵀ·L⁻¹ runs each row tile over L⁻¹'s rows from that tile on (a third of
// a full product) and Σ_kk's update over its lower tiles, then mirrored.
// Outputs must not alias inputs. A zero or NaN diagonal entry of l is
// ErrNotPositiveDefinite, with nothing written. Above trsmPackMax, or for a
// coupling of more than kcBlock rows, the step runs the plain calls and
// allocates its G_i.
func Invert(l *Matrix, g [3]*Matrix, s [3][3]*Matrix, out [3]*Matrix, d *Matrix) error {
	n := l.Rows
	if n != l.Cols || d.Rows != n || d.Cols != n {
		return fmt.Errorf("dense: invert of a %d×%d factor into %d×%d", n, l.Cols, d.Rows, d.Cols)
	}
	for j := 0; j < n; j++ {
		if v := l.Data[j*l.Stride+j]; v == 0 || v != v {
			return ErrNotPositiveDefinite
		}
	}
	fused := n <= trsmPackMax
	for i, gi := range g {
		if gi == nil {
			continue
		}
		if gi.Cols != n || out[i] == nil || out[i].Rows != gi.Rows || out[i].Cols != n {
			panic(fmt.Sprintf("dense: invert coupling %d is %d×%d, block is %d×%d", i, gi.Rows, gi.Cols, n, n))
		}
		fused = fused && gi.Rows <= kcBlock
	}
	if !fused {
		invertUnfused(l, g, s, out, d)
		return nil
	}
	lpP := packBPool.Get().(*[]float64)
	defer packBPool.Put(lpP)
	packTrsmL(*lpP, false, l.Data, l.Stride, n)
	zP := packBPool.Get().(*[]float64)
	trsmSweep(trsmJob{ident: true, n: n, m: n, lp: *lpP, panel: *zP})
	lowerGram(*zP, n, d.Data, d.Stride)
	packBPool.Put(zP)
	var pooled [3]*[]float64 // G_i's panels
	for i, gi := range g {
		if gi != nil {
			pooled[i] = packBPool.Get().(*[]float64)
			trsmSweep(trsmJob{n: n, m: gi.Rows, lp: *lpP, bData: gi.Data, bStride: gi.Stride, panel: *pooled[i]})
		}
	}
	for i, oi := range out {
		if g[i] == nil {
			continue
		}
		oi.Zero()
		for j, gj := range g {
			if gj == nil {
				continue
			}
			sij, trans := s[i][j], NoTrans
			if j > i {
				sij, trans = s[j][i], Trans
			}
			if r, c := opShape(trans, sij); r != oi.Rows || c != gj.Rows {
				panic(fmt.Sprintf("dense: invert Σ %d,%d is %d×%d, want %d×%d", i, j, r, c, oi.Rows, gj.Rows))
			}
			gemmSweep(gemmJob{transA: trans, alpha: -1, aData: sij.Data, aStride: sij.Stride,
				cData: oi.Data, cStride: oi.Stride, bPan: *pooled[j], bStep: gj.Rows * NR,
				m: oi.Rows, kcb: gj.Rows, ncb: n, diag: noMask})
		}
	}
	for i, oi := range out {
		if g[i] == nil {
			continue
		}
		gemmSweep(gemmJob{transA: Trans, alpha: -1, aData: oi.Data, aStride: oi.Stride,
			cData: d.Data, cStride: d.Stride, bPan: *pooled[i], bStep: oi.Rows * NR,
			m: n, kcb: oi.Rows, ncb: n, diag: 0})
		packBPool.Put(pooled[i])
	}
	d.MirrorLowerToUpper()
	return nil
}

// invertUnfused is Invert by the plain calls, for the blocks one packed
// sweep does not hold.
func invertUnfused(l *Matrix, g [3]*Matrix, s [3][3]*Matrix, out [3]*Matrix, d *Matrix) {
	n := l.Rows
	if err := PotriInto(d, New(n, n), l); err != nil {
		panic(err) // l's diagonal was checked
	}
	var gs [3]*Matrix
	for i, gi := range g {
		if gi != nil {
			gs[i] = gi.Clone()
			Trsm(Right, NoTrans, l, gs[i])
		}
	}
	for i, oi := range out {
		if g[i] == nil {
			continue
		}
		oi.Zero()
		for j := range g {
			switch {
			case g[j] == nil:
			case j <= i:
				Gemm(NoTrans, NoTrans, -1, s[i][j], gs[j], 1, oi)
			default:
				Gemm(Trans, NoTrans, -1, s[j][i], gs[j], 1, oi)
			}
		}
	}
	for i, oi := range out {
		if g[i] != nil {
			Gemm(Trans, NoTrans, -1, oi, gs[i], 1, d)
		}
	}
	d.MirrorLowerToUpper()
}

// lowerGram writes the lower triangle of Zᵀ·Z into C (row stride ldc;
// the strict upper triangle is not written) for the n×n lower-triangular
// Z held in zp in packPanelsB(NoTrans, Z, …) form. Z[p, i] is zero for
// p < i, so the register tiles of C's rows i0… run their depth over Z's
// rows from i0 on only: n³/6 multiply-adds, a third of a full triangle's.
// Every tile goes through the scratch tile and is stored, so C need not be
// cleared first. It runs on the calling goroutine.
func lowerGram(zp []float64, n int, c []float64, ldc int) {
	apP := packAPool.Get().(*[]float64)
	ap := *apP
	tile := ap[mcBlock*kcBlock : mcBlock*kcBlock+MR*NR]
	for i0 := 0; i0 < n; i0 += MR {
		h, k := min(MR, n-i0), n-i0
		// The A panel, op(A) = Zᵀ: Z's columns i0… from row i0 on,
		// k-major, copied out of their column group of zp (its padding
		// columns past n are zero).
		src := zp[i0/NR*NR*n+i0*NR+i0%NR:]
		for p := range k {
			*(*[MR]float64)(ap[p*MR:]) = *(*[MR]float64)(src[p*NR:])
		}
		for j0 := 0; j0 <= i0; j0 += NR {
			w := min(NR, n-j0)
			*(*[MR * NR]float64)(tile) = [MR * NR]float64{}
			ukernel(k, ap, zp[j0*n+i0*NR:], tile, NR)
			for r := 0; r < h; r++ {
				crow := c[(i0+r)*ldc+j0:]
				if lim := min(w, i0+r-j0+1); lim < NR {
					copy(crow[:lim], tile[r*NR:])
				} else {
					*(*[NR]float64)(crow) = *(*[NR]float64)(tile[r*NR:])
				}
			}
		}
	}
	packAPool.Put(apP)
}
