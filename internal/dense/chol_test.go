package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPotrfReconstructs: the packed Potrf at every order 1…300 — every
// ragged last tile and row block, one and several packed sweeps — agrees
// with potf2 to 1e-12 and reconstructs A; the NaN in the strict upper
// triangle stays there and never reaches the factor.
func TestPotrfReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for n := 1; n <= 300; n++ {
		a := randSPD(rng, n)
		fillUpper(a, nanAt)
		want := a.Clone()
		if err := potf2(want); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("potrf n=%d", n)
		got := onStridedCopy(a, func(a *Matrix) {
			if err := Potrf(a); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if d := relDiff(got, want, true); d > equivTol {
			t.Fatalf("%s: relative difference to potf2 %.3g", name, d)
		}
		if !upperKept(got, a) {
			t.Fatalf("%s: strict upper triangle was written", name)
		}
		l := got.Clone()
		l.ZeroUpper()
		rec := New(n, n)
		Syrk(NoTrans, 1, l, 0, rec)
		if d := relDiff(rec, a, true); d > equivTol {
			t.Fatalf("%s: L·Lᵀ differs from A by %.3g relative", name, d)
		}
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	a := Eye(3)
	a.Set(1, 1, -1)
	if _, err := Chol(a); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
}

func TestPotrfRejectsNonSquare(t *testing.T) {
	if err := Potrf(New(2, 3)); err == nil {
		t.Fatal("non-square Potrf must error")
	}
}

func TestPotrfRejectsNaN(t *testing.T) {
	a := Eye(2)
	a.Set(0, 0, math.NaN())
	if err := Potrf(a); err != ErrNotPositiveDefinite {
		t.Fatalf("NaN pivot: got %v", err)
	}
}

func TestPotrsSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randSPD(rng, 12)
	l, err := Chol(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randMat(rng, 12, 3)
	x := b.Clone()
	Potrs(l, x)
	if !naiveMul(a, x).Equal(b, 1e-8) {
		t.Fatal("Potrs residual too large")
	}
}

func TestPotrsVecAndSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randSPD(rng, 9)
	b := make([]float64, 9)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, 9)
	Gemv(NoTrans, 1, a, x, 0, r)
	Axpy(-1, b, r)
	if Nrm2(r) > 1e-9 {
		t.Fatalf("Solve residual %v", Nrm2(r))
	}
}

func TestLogDetFromChol(t *testing.T) {
	// Diagonal matrix: log|A| = Σ log a_ii.
	a := New(4, 4)
	want := 0.0
	for i := 0; i < 4; i++ {
		v := float64(i + 2)
		a.Set(i, i, v)
		want += math.Log(v)
	}
	l, err := Chol(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := LogDetFromChol(l) - want; math.Abs(d) > 1e-12 {
		t.Fatalf("logdet err %v", d)
	}
}

func TestTrtri(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	l := randLower(rng, 10)
	li := l.Clone()
	if err := Trtri(li); err != nil {
		t.Fatal(err)
	}
	if !naiveMul(l, li).Equal(Eye(10), 1e-9) {
		t.Fatal("L·L⁻¹ != I")
	}
}

func TestTrtriSingular(t *testing.T) {
	l := Eye(3)
	l.Set(1, 1, 0)
	if err := Trtri(l); err == nil {
		t.Fatal("singular Trtri must error")
	}
	if err := Trtri(New(2, 3)); err == nil {
		t.Fatal("non-square Trtri must error")
	}
}

func TestPotriAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := randSPD(rng, 8)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !naiveMul(a, inv).Equal(Eye(8), 1e-8) {
		t.Fatal("A·A⁻¹ != I")
	}
	// Inverse must be symmetric.
	for i := 0; i < 8; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(inv.At(i, j)-inv.At(j, i)) > 1e-12 {
				t.Fatal("inverse not symmetric")
			}
		}
	}
}

// Property: for any random G, A = GGᵀ + (n+1)·I is SPD and chol reconstructs
// it. Exercised through testing/quick with a seed-driven generator.
func TestQuickCholeskyReconstruction(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%24) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randSPD(rng, n)
		l, err := Chol(a)
		if err != nil {
			return false
		}
		return naiveMul(l, l.T()).Equal(a, 1e-8*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: log|A| from the Cholesky diagonal matches the product of
// eigenvalue-free identity on diagonal matrices scaled by random rotations is
// hard without eig; instead verify log|cA| = log|A| + n·log c.
func TestQuickLogDetScaling(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%16) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randSPD(rng, n)
		c := 1.5 + rng.Float64()
		la, err1 := Chol(a)
		as := a.Clone()
		as.Scale(c)
		lb, err2 := Chol(as)
		if err1 != nil || err2 != nil {
			return false
		}
		want := LogDetFromChol(la) + float64(n)*math.Log(c)
		return math.Abs(LogDetFromChol(lb)-want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Trsm then the triangular multiply (Gemm on the explicit
// triangle) round-trips arbitrary right-hand sides for all four
// side/transpose combinations.
func TestQuickTrsmRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8, side bool, trans bool) bool {
		n := int(sz%12) + 1
		rng := rand.New(rand.NewSource(seed))
		l := randLower(rng, n)
		var b *Matrix
		s := Left
		if side {
			s = Right
		}
		tr := NoTrans
		if trans {
			tr = Trans
		}
		if s == Left {
			b = randMat(rng, n, 3)
		} else {
			b = randMat(rng, 3, n)
		}
		orig := b.Clone()
		Trsm(s, tr, l, b)
		return triMul(s, tr, l, b).Equal(orig, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The GEMM/POTRF GFLOP/s benchmarks (packed engine vs the retained naive
// reference) live in kernel_test.go.
