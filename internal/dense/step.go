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
