package dense

import (
	"math"
	"math/rand"
	"testing"
)

// naiveRefGemm is an independent j-loop reference used to cross-check both
// the packed engine and the retained naive kernels (which share no code
// with this triple loop).
func naiveRefGemm(transA, transB Transpose, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	am, ak := opShape(transA, a)
	_, bn := opShape(transB, b)
	at := func(i, k int) float64 {
		if transA == Trans {
			return a.At(k, i)
		}
		return a.At(i, k)
	}
	bt := func(k, j int) float64 {
		if transB == Trans {
			return b.At(j, k)
		}
		return b.At(k, j)
	}
	for i := 0; i < am; i++ {
		for j := 0; j < bn; j++ {
			var s float64
			for k := 0; k < ak; k++ {
				s += at(i, k) * bt(k, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

func fillRand(rng *rand.Rand, m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
}

// TestGemmAllPathsVsReference sweeps shapes across the naive/packed
// dispatch threshold and every transpose combination, including 1×1,
// non-multiple-of-tile and strongly rectangular shapes.
func TestGemmAllPathsVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {5, 1, 7}, {1, 9, 1},
		{MR, NR, 8}, {MR + 1, NR + 1, 9}, {MR - 1, NR - 1, 3},
		{7, 7, 7}, {8, 8, 8}, // straddling packFlops
		{31, 33, 35},
		{63, 65, 67}, {129, 67, 31}, // straddling mcBlock/NR edges
		{130, 129, 257}, // above kcBlock with ragged edges
		{1, 200, 300}, {300, 1, 200}, {200, 300, 1},
	}
	for _, tA := range []Transpose{NoTrans, Trans} {
		for _, tB := range []Transpose{NoTrans, Trans} {
			for _, sh := range shapes {
				m, n, k := sh[0], sh[1], sh[2]
				a := New(m, k)
				if tA == Trans {
					a = New(k, m)
				}
				b := New(k, n)
				if tB == Trans {
					b = New(n, k)
				}
				fillRand(rng, a)
				fillRand(rng, b)
				c := New(m, n)
				fillRand(rng, c)
				want := c.Clone()
				alpha, beta := 1.3, -0.7
				naiveRefGemm(tA, tB, alpha, a, b, beta, want)
				Gemm(tA, tB, alpha, a, b, beta, c)
				if !c.Equal(want, 1e-10*float64(k+1)) {
					t.Fatalf("gemm mismatch tA=%v tB=%v shape=%v", tA, tB, sh)
				}
			}
		}
	}
}

// TestGemmStridedViews runs the packed path on sub-views of larger
// buffers (Stride > Cols) for all three operands.
func TestGemmStridedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	big := New(300, 300)
	fillRand(rng, big)
	a := big.View(3, 5, 80, 90)
	b := big.View(97, 11, 90, 70)
	c := New(200, 200).View(10, 20, 80, 70)
	fillRand(rng, c)
	want := c.Clone()
	naiveRefGemm(NoTrans, NoTrans, 2.0, a, b, 0.5, want)
	Gemm(NoTrans, NoTrans, 2.0, a, b, 0.5, c)
	if !c.Equal(want, 1e-8) {
		t.Fatal("strided-view gemm mismatch")
	}
	// Transposed operands from views: C2 = Aᵀ(90×80) · B2ᵀ(80×85).
	b2 := big.View(50, 40, 85, 80)
	c2 := New(120, 120).View(7, 9, 90, 85)
	c2.Zero()
	want2 := New(90, 85)
	naiveRefGemm(Trans, Trans, 1.0, a, b2, 0, want2)
	Gemm(Trans, Trans, 1.0, a, b2, 0, c2)
	if !c2.Equal(want2, 1e-8) {
		t.Fatal("strided-view gemm TT mismatch")
	}
}

// TestGemmAlphaBetaFastPaths: alpha=0 reduces to the beta scaling; beta=0
// must clear C even when it holds NaN/Inf garbage (fresh-workspace
// semantics); beta=1 accumulates.
func TestGemmAlphaBetaFastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := New(40, 40)
	b := New(40, 40)
	fillRand(rng, a)
	fillRand(rng, b)

	c := New(40, 40)
	fillRand(rng, c)
	want := c.Clone()
	want.Scale(0.25)
	Gemm(NoTrans, NoTrans, 0, a, b, 0.25, c) // alpha=0: pure scaling
	if !c.Equal(want, 1e-14) {
		t.Fatal("alpha=0 fast path mismatch")
	}

	c.Fill(math.NaN()) // beta=0 must overwrite garbage, not propagate it
	want = New(40, 40)
	naiveRefGemm(NoTrans, NoTrans, 1, a, b, 0, want)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	if !c.Equal(want, 1e-10) {
		t.Fatal("beta=0 did not clear NaN garbage")
	}

	// Naive reference has the same semantics.
	c.Fill(math.Inf(1))
	GemmNaive(NoTrans, NoTrans, 1, a, b, 0, c)
	if !c.Equal(want, 1e-10) {
		t.Fatal("GemmNaive beta=0 did not clear Inf garbage")
	}
}

// TestSyrkBlockedVsReference exercises the packed lower-tile Syrk against
// the plain triangular reference, on sizes straddling the syrkRef
// switch-over and the macro-tile height mcBlock, for both transposes, with
// strided views, and with the beta=0 fast path on a garbage-filled C.
func TestSyrkBlockedVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, trans := range []Transpose{NoTrans, Trans} {
		for _, n := range []int{1, 2, 3, 5, mcBlock - 1, mcBlock, mcBlock + 1, 2*mcBlock + 17} {
			k := 37
			var a *Matrix
			if trans == NoTrans {
				a = New(n, k)
			} else {
				a = New(k, n)
			}
			fillRand(rng, a)
			c := New(n, n)
			c.Fill(math.NaN())
			want := New(n, n)
			syrkRef(trans, 1.5, a, want)
			Syrk(trans, 1.5, a, 0, c)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if math.Abs(c.At(i, j)-want.At(i, j)) > 1e-10 {
						t.Fatalf("syrk trans=%v n=%d mismatch at (%d,%d)", trans, n, i, j)
					}
				}
			}
		}
	}
	// Strided-view operand.
	big := New(220, 220)
	fillRand(rng, big)
	a := big.View(2, 3, 150, 40)
	c := New(150, 150)
	want := New(150, 150)
	syrkRef(NoTrans, -1, a, want)
	Syrk(NoTrans, -1, a, 0, c)
	for i := 0; i < 150; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(c.At(i, j)-want.At(i, j)) > 1e-10 {
				t.Fatalf("syrk view mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestTrsmBlockedRoundTrip: Trsm at orders around trsmPackMax (one packed
// sweep, then the split into halves) must undo the triangular multiply for
// every side/transpose combination.
func TestTrsmBlockedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{trsmPackMax - 1, trsmPackMax, trsmPackMax + 1, 2*trsmPackMax + 13} {
		l := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				l.Set(i, j, rng.NormFloat64()*0.1)
			}
			l.Set(i, i, 2+rng.Float64())
		}
		for _, side := range []Side{Left, Right} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				var b *Matrix
				if side == Left {
					b = New(n, 23)
				} else {
					b = New(23, n)
				}
				fillRand(rng, b)
				orig := b.Clone()
				Trsm(side, trans, l, b)
				if !triMul(side, trans, l, b).Equal(orig, 1e-7) {
					t.Fatalf("trsm round trip failed side=%d trans=%v n=%d", side, trans, n)
				}
			}
		}
	}
}

// TestPotrfLargeReconstruction: the recursive Cholesky at a size that
// engages every level (potf2 leaves, packed and split Trsm, packed Syrk
// over several macro-tiles) must reproduce L·Lᵀ = A.
func TestPotrfLargeReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 2*trsmPackMax + 29
	g := New(n, n)
	fillRand(rng, g)
	a := New(n, n)
	Syrk(NoTrans, 1, g, 0, a)
	a.MirrorLowerToUpper()
	a.AddDiag(float64(n))
	l, err := Chol(a)
	if err != nil {
		t.Fatal(err)
	}
	rec := New(n, n)
	Gemm(NoTrans, Trans, 1, l, l, 0, rec)
	if !rec.Equal(a, 1e-8*float64(n)) {
		t.Fatal("blocked potrf reconstruction failed")
	}
}
