package dense

import (
	"math/rand"
	"testing"
)

func TestGemmAllTransposeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const m, k, n = 7, 5, 6
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	want := naiveMul(a, b)

	cases := []struct {
		name   string
		ta, tb Transpose
		a, b   *Matrix
	}{
		{"NN", NoTrans, NoTrans, a, b},
		{"TN", Trans, NoTrans, a.T(), b},
		{"NT", NoTrans, Trans, a, b.T()},
		{"TT", Trans, Trans, a.T(), b.T()},
	}
	for _, tc := range cases {
		c := New(m, n)
		Gemm(tc.ta, tc.tb, 1, tc.a, tc.b, 0, c)
		if !c.Equal(want, 1e-12) {
			t.Errorf("Gemm %s mismatch", tc.name)
		}
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 4, 3)
	b := randMat(rng, 3, 5)
	c0 := randMat(rng, 4, 5)

	c := c0.Clone()
	Gemm(NoTrans, NoTrans, 2, a, b, 3, c)

	want := naiveMul(a, b)
	want.Scale(2)
	scaled := c0.Clone()
	scaled.Scale(3)
	want.Add(1, scaled)
	if !c.Equal(want, 1e-12) {
		t.Fatal("Gemm alpha/beta accumulation wrong")
	}
}

func TestGemmShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Gemm must panic")
		}
	}()
	Gemm(NoTrans, NoTrans, 1, New(2, 3), New(2, 3), 0, New(2, 3))
}

func TestGemmLarge(t *testing.T) {
	// Above one macro-tile of rows: the balanced two-tile sweep.
	rng := rand.New(rand.NewSource(12))
	for _, sz := range [][3]int{{150, 40, 30}, {200, 16, 8}} {
		a := randMat(rng, sz[0], sz[1])
		b := randMat(rng, sz[1], sz[2])
		c := New(sz[0], sz[2])
		Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
		if !c.Equal(naiveMul(a, b), 1e-11) {
			t.Fatalf("Gemm %v mismatch", sz)
		}
	}
}

func TestSyrkNoTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, 6, 4)
	c := New(6, 6)
	Syrk(NoTrans, 1, a, 0, c)
	want := naiveMul(a, a.T())
	for i := 0; i < 6; i++ {
		for j := 0; j <= i; j++ {
			if d := c.At(i, j) - want.At(i, j); d > 1e-12 || d < -1e-12 {
				t.Fatalf("Syrk lower (%d,%d) = %v want %v", i, j, c.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestSyrkTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, 5, 7)
	c := New(7, 7)
	Syrk(Trans, 1, a, 0, c)
	want := naiveMul(a.T(), a)
	for i := 0; i < 7; i++ {
		for j := 0; j <= i; j++ {
			if d := c.At(i, j) - want.At(i, j); d > 1e-12 || d < -1e-12 {
				t.Fatalf("Syrk^T lower (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestSyrkBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randMat(rng, 4, 4)
	c := Eye(4)
	Syrk(NoTrans, -1, a, 2, c) // lower(C) = 2I − AAᵀ
	want := naiveMul(a, a.T())
	for i := 0; i < 4; i++ {
		for j := 0; j <= i; j++ {
			w := -want.At(i, j)
			if i == j {
				w += 2
			}
			if d := c.At(i, j) - w; d > 1e-12 || d < -1e-12 {
				t.Fatalf("Syrk beta (%d,%d) = %v want %v", i, j, c.At(i, j), w)
			}
		}
	}
}

// randLower returns a well-conditioned lower-triangular matrix.
func randLower(rng *rand.Rand, n int) *Matrix {
	l := randMat(rng, n, n)
	l.ZeroUpper()
	for i := 0; i < n; i++ {
		l.Set(i, i, 2+rng.Float64())
	}
	return l
}

func TestTrsmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const n, m = 6, 4
	l := randLower(rng, n)

	check := func(name string, side Side, tr Transpose, rows, cols int) {
		b := randMat(rng, rows, cols)
		orig := b.Clone()
		Trsm(side, tr, l, b)
		// Reconstruct: op(L)*X (left) or X*op(L) (right) must equal original B.
		var rec *Matrix
		lt := l.T()
		switch {
		case side == Left && tr == NoTrans:
			rec = naiveMul(l, b)
		case side == Left && tr == Trans:
			rec = naiveMul(lt, b)
		case side == Right && tr == NoTrans:
			rec = naiveMul(b, l)
		default:
			rec = naiveMul(b, lt)
		}
		if !rec.Equal(orig, 1e-10) {
			t.Errorf("Trsm %s does not reconstruct B", name)
		}
	}
	check("Left/NoTrans", Left, NoTrans, n, m)
	check("Left/Trans", Left, Trans, n, m)
	check("Right/NoTrans", Right, NoTrans, m, n)
	check("Right/Trans", Right, Trans, m, n)
}

// triMul returns op(L)·B (side Left) or B·op(L) (side Right) by Gemm on the
// explicit lower triangle of l: the multiply a triangular solve undoes.
func triMul(side Side, trans Transpose, l, b *Matrix) *Matrix {
	lo := l.Clone()
	lo.ZeroUpper()
	if side == Left {
		return MatMul(trans, NoTrans, lo, b)
	}
	return MatMul(NoTrans, trans, b, lo)
}

func TestTrsmGemmRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	l := randLower(rng, 8)
	b := randMat(rng, 8, 5)
	orig := b.Clone()
	Trsm(Left, NoTrans, l, b)
	if !triMul(Left, NoTrans, l, b).Equal(orig, 1e-10) {
		t.Fatal("L·(L⁻¹·B) != B")
	}
}

func TestGemvBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randMat(rng, 4, 6)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 4)
	Gemv(NoTrans, 1, a, x, 0, y)
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 6; j++ {
			s += a.At(i, j) * x[j]
		}
		if d := y[i] - s; d > 1e-12 || d < -1e-12 {
			t.Fatalf("Gemv NoTrans row %d mismatch", i)
		}
	}
	z := make([]float64, 6)
	Gemv(Trans, 1, a, y, 0, z)
	for j := 0; j < 6; j++ {
		var s float64
		for i := 0; i < 4; i++ {
			s += a.At(i, j) * y[i]
		}
		if d := z[j] - s; d > 1e-12 || d < -1e-12 {
			t.Fatalf("Gemv Trans col %d mismatch", j)
		}
	}
}

func TestDotAxpyNrm2(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	if y[2] != 7 {
		t.Fatalf("Axpy result %v", y)
	}
	if d := Nrm2([]float64{3, 4}) - 5; d > 1e-15 || d < -1e-15 {
		t.Fatal("Nrm2 wrong")
	}
}

func TestMatMulConvenience(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randMat(rng, 3, 4)
	b := randMat(rng, 4, 2)
	if !MatMul(NoTrans, NoTrans, a, b).Equal(naiveMul(a, b), 1e-12) {
		t.Fatal("MatMul mismatch")
	}
	if !MatMul(Trans, Trans, a.T(), b.T()).Equal(naiveMul(a, b), 1e-12) {
		t.Fatal("MatMul TT mismatch")
	}
}
