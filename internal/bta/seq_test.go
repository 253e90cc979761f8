package bta

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// sparseFromDense converts exactly (no drop tolerance).
func sparseFromDense(d *dense.Matrix) *sparse.CSR { return sparse.FromDense(d, 0) }

// randBTA builds a random SPD BTA matrix by forming G·Gᵀ + shift·I over the
// BTA pattern: we generate random blocks and add a strong diagonal so every
// leading minor is positive.
func randBTA(rng *rand.Rand, n, b, a int) *Matrix {
	m := NewMatrix(n, b, a)
	fill := func(dst *dense.Matrix) {
		for i := range dst.Data {
			dst.Data[i] = 0.3 * rng.NormFloat64()
		}
	}
	for i := 0; i < n; i++ {
		fill(m.Diag[i])
		m.Diag[i].Symmetrize()
		m.Diag[i].AddDiag(float64(2*b + 2*a + 4))
		if i < n-1 {
			fill(m.Lower[i])
		}
		if a > 0 {
			fill(m.Arrow[i])
		}
	}
	if a > 0 {
		fill(m.Tip)
		m.Tip.Symmetrize()
		m.Tip.AddDiag(float64(2*b*n + 4))
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestMatrixShapeAndDim(t *testing.T) {
	m := NewMatrix(4, 3, 2)
	if m.Dim() != 14 {
		t.Fatalf("Dim = %d, want 14", m.Dim())
	}
	if len(m.Diag) != 4 || len(m.Lower) != 3 || len(m.Arrow) != 4 {
		t.Fatal("block counts wrong")
	}
	bt := NewMatrix(3, 2, 0)
	if bt.Tip != nil || bt.Arrow != nil {
		t.Fatal("BT matrix must not allocate arrow storage")
	}
	if bt.Dim() != 6 {
		t.Fatalf("BT Dim = %d", bt.Dim())
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid shape must panic")
		}
	}()
	NewMatrix(0, 3, 1)
}

func TestToDenseFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	m := randBTA(rng, 4, 3, 2)
	d := m.ToDense()
	back := FromDense(d, 4, 3, 2)
	if !back.ToDense().Equal(d, 0) {
		t.Fatal("FromDense(ToDense) round trip failed")
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, a := range []int{0, 2} {
		m := randBTA(rng, 5, 3, a)
		d := m.ToDense()
		x := randVec(rng, m.Dim())
		y := make([]float64, m.Dim())
		m.MulVec(x, y)
		want := make([]float64, m.Dim())
		dense.Gemv(dense.NoTrans, 1, d, x, 0, want)
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-11 {
				t.Fatalf("a=%d: MulVec[%d] = %v want %v", a, i, y[i], want[i])
			}
		}
	}
}

func TestFactorizeReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	cases := []struct{ n, b, a int }{
		{1, 3, 0}, {2, 2, 0}, {5, 4, 0},
		{1, 3, 2}, {2, 2, 1}, {5, 4, 3}, {8, 2, 2},
	}
	for _, tc := range cases {
		m := randBTA(rng, tc.n, tc.b, tc.a)
		f, err := Factorize(m)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		// Assemble dense L and check L·Lᵀ = A.
		l := dense.New(m.Dim(), m.Dim())
		for i := 0; i < f.N; i++ {
			setBlock(l, i*f.B, i*f.B, f.Diag[i])
			if i < f.N-1 {
				setBlock(l, (i+1)*f.B, i*f.B, f.Lower[i])
			}
			if f.A > 0 {
				setBlock(l, f.N*f.B, i*f.B, f.Arrow[i])
			}
		}
		if f.A > 0 {
			setBlock(l, f.N*f.B, f.N*f.B, f.Tip)
		}
		rec := dense.MatMul(dense.NoTrans, dense.Trans, l, l)
		if !rec.Equal(m.ToDense(), 1e-8) {
			t.Fatalf("%+v: LLᵀ != A", tc)
		}
	}
}

func TestFactorizeDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	m := randBTA(rng, 3, 2, 1)
	before := m.ToDense()
	if _, err := Factorize(m); err != nil {
		t.Fatal(err)
	}
	if !m.ToDense().Equal(before, 0) {
		t.Fatal("Factorize modified its input")
	}
}

func TestFactorizeRejectsIndefinite(t *testing.T) {
	m := NewMatrix(2, 2, 1)
	m.Diag[0].Set(0, 0, 1)
	m.Diag[0].Set(1, 1, -1) // indefinite block
	m.Diag[1].AddDiag(1)
	m.Tip.AddDiag(1)
	if _, err := Factorize(m); err == nil {
		t.Fatal("indefinite BTA must fail to factorize")
	}
}

func TestLogDetAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, a := range []int{0, 2} {
		m := randBTA(rng, 4, 3, a)
		f, err := Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		ld, err := dense.Chol(m.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		want := dense.LogDetFromChol(ld)
		if math.Abs(f.LogDet()-want) > 1e-8 {
			t.Fatalf("a=%d: LogDet = %v want %v", a, f.LogDet(), want)
		}
	}
}

func TestSolveAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for _, tc := range []struct{ n, b, a int }{{3, 2, 0}, {4, 3, 2}, {1, 4, 1}} {
		m := randBTA(rng, tc.n, tc.b, tc.a)
		f, err := Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, m.Dim())
		rhs := append([]float64(nil), x...)
		f.Solve(rhs)
		want, err := dense.Solve(m.ToDense(), x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rhs {
			if math.Abs(rhs[i]-want[i]) > 1e-8 {
				t.Fatalf("%+v: Solve[%d] = %v want %v", tc, i, rhs[i], want[i])
			}
		}
	}
}

func TestSolveMultiMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	m := randBTA(rng, 3, 3, 2)
	f, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	const nrhs = 4
	b := dense.New(m.Dim(), nrhs)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	w := NewMultiSolve(3, 3, 2, nrhs)
	w.RHS.CopyFrom(b)
	f.SolveMultiInto(w)
	for j := 0; j < nrhs; j++ {
		col := make([]float64, m.Dim())
		for i := 0; i < m.Dim(); i++ {
			col[i] = b.At(i, j)
		}
		f.Solve(col)
		for i := 0; i < m.Dim(); i++ {
			if math.Abs(w.RHS.At(i, j)-col[i]) > 1e-10 {
				t.Fatalf("SolveMultiInto col %d row %d mismatch", j, i)
			}
		}
	}
}

// Every block on the BTA pattern against the dense inverse. Each block is
// one dense.Invert step: the block sizes from 17 up cross the packed
// solves' tile and panel edges, where L_ii⁻¹ and the couplings G =
// L_{i+1,i}·L_ii⁻¹ are solved against the packed L_ii; (8, 60, 3), (4, 144,
// 2) and (4, 90, 3) are the tri, uni and serve benchmark shapes.
func TestSelectedInversionAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, tc := range []struct{ n, b, a int }{{1, 3, 0}, {3, 2, 0}, {4, 3, 2}, {2, 2, 1}, {6, 2, 3},
		{3, 17, 0}, {3, 17, 2}, {3, 60, 0}, {3, 60, 3}, {3, 144, 0}, {3, 144, 2},
		{8, 60, 3}, {4, 144, 2}, {4, 90, 3}} {
		m := randBTA(rng, tc.n, tc.b, tc.a)
		f, err := Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := f.SelectedInversion()
		if err != nil {
			t.Fatal(err)
		}
		inv, err := dense.Inverse(m.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		// Every block on the BTA pattern must match the dense inverse.
		for i := 0; i < tc.n; i++ {
			if !sig.Diag[i].Equal(inv.View(i*tc.b, i*tc.b, tc.b, tc.b).Clone(), 1e-10) {
				t.Fatalf("%+v: Σ diag block %d mismatch", tc, i)
			}
			if i < tc.n-1 {
				if !sig.Lower[i].Equal(inv.View((i+1)*tc.b, i*tc.b, tc.b, tc.b).Clone(), 1e-10) {
					t.Fatalf("%+v: Σ lower block %d mismatch", tc, i)
				}
			}
			if tc.a > 0 {
				if !sig.Arrow[i].Equal(inv.View(tc.n*tc.b, i*tc.b, tc.a, tc.b).Clone(), 1e-10) {
					t.Fatalf("%+v: Σ arrow block %d mismatch", tc, i)
				}
			}
		}
		if tc.a > 0 {
			if !sig.Tip.Equal(inv.View(tc.n*tc.b, tc.n*tc.b, tc.a, tc.a).Clone(), 1e-10) {
				t.Fatalf("%+v: Σ tip mismatch", tc)
			}
		}
	}
}

// TestSelectedInversionIntoConcurrent: the selected inversion only reads
// its factor, so calls from several goroutines on one factor, each into
// its own Σ and sharing the dense packing pools, give the serial Σ bit for
// bit.
func TestSelectedInversionIntoConcurrent(t *testing.T) {
	f, err := Factorize(randBTA(rand.New(rand.NewSource(96)), 4, 90, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := NewMatrix(4, 90, 3)
	if err := f.SelectedInversionInto(want); err != nil {
		t.Fatal(err)
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sig := NewMatrix(4, 90, 3)
			for range 3 {
				if errs[i] = f.SelectedInversionInto(sig); errs[i] != nil {
					return
				}
				if errs[i] = sameMatrix("Σ", sig, want); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
}

func TestDiagVec(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	m := randBTA(rng, 3, 2, 2)
	d := m.DiagVec()
	full := m.ToDense()
	for i := range d {
		if d[i] != full.At(i, i) {
			t.Fatalf("DiagVec[%d] = %v want %v", i, d[i], full.At(i, i))
		}
	}
}

func TestFromCSRMatchesFromDense(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := randBTA(rng, 3, 2, 1)
	d := m.ToDense()
	s := sparseFromDense(d)
	got, err := FromCSR(s, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().Equal(d, 0) {
		t.Fatal("FromCSR mismatch")
	}
}

func TestFromCSRRejectsOutOfPattern(t *testing.T) {
	// Entry (0, 5) is two block-columns away — outside BTA(n=3,b=2,a=0).
	d := dense.New(6, 6)
	for i := 0; i < 6; i++ {
		d.Set(i, i, 2)
	}
	d.Set(0, 5, 1)
	d.Set(5, 0, 1)
	if _, err := FromCSR(sparseFromDense(d), 3, 2, 0); err == nil {
		t.Fatal("out-of-pattern entry must be rejected")
	}
}

func TestFromCSRRejectsWrongSize(t *testing.T) {
	d := dense.Eye(5)
	if _, err := FromCSR(sparseFromDense(d), 3, 2, 0); err == nil {
		t.Fatal("size mismatch must be rejected")
	}
}

func TestBytesDense(t *testing.T) {
	m := NewMatrix(4, 3, 2)
	// 4 diag (9) + 3 lower (9) + 4 arrow (6) + tip (4) doubles ×8 bytes.
	want := int64(4*9+3*9+4*6+4) * 8
	if m.BytesDense() != want {
		t.Fatalf("BytesDense = %d want %d", m.BytesDense(), want)
	}
	if got := BytesDense(4, 3, 2); got != want {
		t.Fatalf("BytesDense(4, 3, 2) = %d want %d", got, want)
	}
}

func TestQuickFactorSolveResidual(t *testing.T) {
	f := func(seed int64, ns, bs, as uint8) bool {
		n := int(ns%6) + 1
		b := int(bs%4) + 1
		a := int(as % 4)
		rng := rand.New(rand.NewSource(seed))
		m := randBTA(rng, n, b, a)
		fac, err := Factorize(m)
		if err != nil {
			return false
		}
		x := randVec(rng, m.Dim())
		rhs := append([]float64(nil), x...)
		fac.Solve(rhs)
		// Residual ‖A·x − b‖∞
		y := make([]float64, m.Dim())
		m.MulVec(rhs, y)
		for i := range y {
			if math.Abs(y[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSelInvDiagPositive(t *testing.T) {
	f := func(seed int64, ns, bs uint8) bool {
		n := int(ns%5) + 1
		b := int(bs%3) + 1
		rng := rand.New(rand.NewSource(seed))
		m := randBTA(rng, n, b, 2)
		fac, err := Factorize(m)
		if err != nil {
			return false
		}
		sig, err := fac.SelectedInversion()
		if err != nil {
			return false
		}
		for _, v := range sig.DiagVec() {
			if v <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
