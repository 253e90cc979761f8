package dense

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randSPD returns a random symmetric positive definite n×n matrix.
func randSPD(rng *rand.Rand, n int) *Matrix {
	g := randMat(rng, n, n)
	a := New(n, n)
	Gemm(NoTrans, Trans, 1, g, g, 0, a)
	a.AddDiag(float64(n)) // guarantee well-conditioned positivity
	return a
}

// naiveMul is the reference O(n³) triple loop used to validate kernels.
func naiveMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if _, err := m.AtChecked(3, 0); err == nil {
		t.Fatal("AtChecked out of range should error")
	}
	if v, err := m.AtChecked(1, 2); err != nil || v != 7.5 {
		t.Fatalf("AtChecked = %v, %v", v, err)
	}
}

func TestEye(t *testing.T) {
	e := Eye(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(4)[%d,%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("view write did not reach parent")
	}
	if v.Stride != m.Stride {
		t.Fatal("view must preserve stride")
	}
}

func TestViewBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range view must panic")
		}
	}()
	New(3, 3).View(2, 2, 2, 2)
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 5, 3)
	c := m.Clone()
	c.Set(0, 0, 123)
	if m.At(0, 0) == 123 {
		t.Fatal("clone shares storage with original")
	}
	if c.Stride != c.Cols {
		t.Fatal("clone must be compact")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMat(rng, 4, 6)
	mt := m.T()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if mt.At(j, i) != m.At(i, j) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.T().T().Equal(m, 0) {
		t.Fatal("double transpose must be identity")
	}
}

func TestScaleAddZeroFill(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 3, 3)
	orig := m.Clone()
	m.Scale(2)
	m.Add(-1, orig)
	if !m.Equal(orig, 1e-14) {
		t.Fatal("2m − m should equal m")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero left nonzeros")
	}
	m.Fill(3)
	if m.At(2, 2) != 3 || m.At(0, 0) != 3 {
		t.Fatal("Fill failed")
	}
}

func TestSymmetrizeAndMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randMat(rng, 5, 5)
	m.Symmetrize()
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatal("Symmetrize failed")
			}
		}
	}
	// Orders around the 4×4 tiles, on a strided view.
	for _, n := range []int{1, 3, 4, 5, 8, 13, 60} {
		l := randMat(rng, n, n)
		l.ZeroUpper()
		full := randMat(rng, n+2, n+3).View(1, 2, n, n)
		full.CopyFrom(l)
		full.MirrorLowerToUpper()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				lo, hi := i, j
				if lo < hi {
					lo, hi = hi, lo
				}
				if full.At(i, j) != l.At(lo, hi) {
					t.Fatalf("n=%d: MirrorLowerToUpper failed at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestDiagTraceAddDiag(t *testing.T) {
	m := Eye(3)
	m.AddDiag(2)
	d := m.Diag()
	for _, v := range d {
		if v != 3 {
			t.Fatalf("diag after AddDiag = %v", d)
		}
	}
	if m.Trace() != 9 {
		t.Fatalf("trace = %v, want 9", m.Trace())
	}
}

func TestNorms(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, -4)
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if math.Abs(m.FrobNorm()-5) > 1e-15 {
		t.Fatalf("FrobNorm = %v, want 5", m.FrobNorm())
	}
}

func TestEqualShapes(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1) {
		t.Fatal("different shapes must not be Equal")
	}
}

func TestNewFromData(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := NewFromData(2, 3, d)
	if m.At(1, 2) != 6 {
		t.Fatalf("NewFromData layout wrong: %v", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if d[0] != 9 {
		t.Fatal("NewFromData must not copy")
	}
}

func TestStringAbbreviation(t *testing.T) {
	small := New(2, 2)
	if len(small.String()) == 0 {
		t.Fatal("small String empty")
	}
	big := New(20, 20)
	if got := big.String(); got != "dense.Matrix{20×20}" {
		t.Fatalf("big String = %q", got)
	}
}
