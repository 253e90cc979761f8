package dense

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// equivSizes is the kernel equivalence grid: every order 1…20, the
// recursion leaf and register-tile multiples ±1, the block sizes the
// solvers run at ±1, and one order past a single packed sweep.
func equivSizes() []int {
	var out []int
	for n := 1; n <= 20; n++ {
		out = append(out, n)
	}
	for _, c := range []int{trtriLeaf, 3 * MR, 3 * NR, 4 * NR, 8 * NR, 60, 128, 144, 192} {
		out = append(out, c-1, c, c+1)
	}
	out = append(out, trsmPackMax+1)
	slices.Sort(out)
	return slices.Compact(out)
}

// stridedView returns an r×c view at (1, 2) inside a larger matrix filled
// with fill, so the view's stride exceeds its width.
func stridedView(r, c int, fill float64) *Matrix {
	big := New(r+3, c+5)
	big.Fill(fill)
	return big.View(1, 2, r, c)
}

// fillUpper overwrites the strict upper triangle of m with f(i, j): NaN to
// prove a kernel never reads it, distinct finite values to prove it never
// writes it (NaN would hide an accumulation, which keeps its bits).
func fillUpper(m *Matrix, f func(i, j int) float64) {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			m.Set(i, j, f(i, j))
		}
	}
}

func nanAt(i, j int) float64      { return math.NaN() }
func sentinelAt(i, j int) float64 { return 1000 + float64(i) + float64(j)/1000 }

// relDiff is max|got − want| over the lower triangle (lower) or the whole
// of the two matrices, relative to max|want|; NaN anywhere in got is +Inf.
func relDiff(got, want *Matrix, lower bool) float64 {
	var d, w float64
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if lower && j > i {
				continue
			}
			if e := math.Abs(got.At(i, j) - want.At(i, j)); !(e <= d) {
				d = e
			}
			w = math.Max(w, math.Abs(want.At(i, j)))
		}
	}
	if math.IsNaN(d) {
		return math.Inf(1)
	}
	return d / math.Max(w, math.SmallestNonzeroFloat64)
}

// sameBits reports whether two buffers are bitwise identical (NaN payloads
// included).
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// upperKept reports whether the strict upper triangle of got is bitwise the
// one of before.
func upperKept(got, before *Matrix) bool {
	for i := 0; i < got.Rows; i++ {
		for j := i + 1; j < got.Cols; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(before.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// onStridedCopy runs f on a copy of src in a strided view whose padding
// holds -7, and returns the view.
func onStridedCopy(src *Matrix, f func(*Matrix)) *Matrix {
	out := stridedView(src.Rows, src.Cols, -7)
	out.CopyFrom(src)
	f(out)
	return out
}

const equivTol = 1e-12

// TestSyrkEquivalence: the packed lower-tile Syrk against syrkRef for both
// transposes over the size grid, on strided views: agreement to 1e-12 and
// the strict upper triangle of C untouched.
func TestSyrkEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range equivSizes() {
		for _, trans := range []Transpose{NoTrans, Trans} {
			k := n + 3
			a := stridedView(n, k, 0)
			if trans == Trans {
				a = stridedView(k, n, 0)
			}
			fillRand(rng, a)
			c := stridedView(n, n, 0)
			fillRand(rng, c)
			fillUpper(c, sentinelAt)
			want := c.Clone()
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					want.Set(i, j, 0.5*want.At(i, j))
				}
			}
			syrkRef(trans, -1.25, a, want)
			name := fmt.Sprintf("syrk n=%d trans=%v", n, trans)
			got := onStridedCopy(c, func(c *Matrix) { Syrk(trans, -1.25, a, 0.5, c) })
			if d := relDiff(got, want, true); d > equivTol {
				t.Fatalf("%s: relative difference %.3g", name, d)
			}
			if !upperKept(got, c) {
				t.Fatalf("%s: strict upper triangle of C was written", name)
			}
		}
	}
}

// TestTrsmEquivalence: all four Trsm variants against trsmUnb over the size
// grid, with 3 and 133 right-hand sides (a partial row block; several row
// blocks), on strided views with NaN in L's strict upper triangle (never
// referenced).
func TestTrsmEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range equivSizes() {
		chol, err := Chol(randSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		l := stridedView(n, n, 0)
		l.CopyFrom(chol)
		fillUpper(l, nanAt)
		for _, m := range []int{3, 133} {
			for _, side := range []Side{Left, Right} {
				for _, trans := range []Transpose{NoTrans, Trans} {
					b := New(n, m)
					if side == Right {
						b = New(m, n)
					}
					fillRand(rng, b)
					want := b.Clone()
					trsmUnb(side, trans, l, want)
					name := fmt.Sprintf("trsm n=%d m=%d side=%d trans=%v", n, m, side, trans)
					got := onStridedCopy(b, func(b *Matrix) { Trsm(side, trans, l, b) })
					if d := relDiff(got, want, false); d > equivTol {
						t.Fatalf("%s: relative difference %.3g", name, d)
					}
				}
			}
		}
	}
}

// TestPotrfEquivalence: the packed Potrf against the unblocked potf2
// over the size grid, on strided views; the strict upper triangle holds
// sentinels that must neither leak into the factor nor be overwritten.
func TestPotrfEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range equivSizes() {
		a := randSPD(rng, n)
		fillUpper(a, sentinelAt)
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
			t.Fatalf("%s: relative difference %.3g", name, d)
		}
		if !upperKept(got, a) {
			t.Fatalf("%s: strict upper triangle was written", name)
		}
	}
}

// TestTrtriEquivalence: the recursive Trtri against the unblocked trtriUnb
// over the size grid; the strict upper triangle is neither read nor
// written.
func TestTrtriEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range equivSizes() {
		l, err := Chol(randSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		fillUpper(l, sentinelAt)
		want := l.Clone()
		trtriUnb(want)
		name := fmt.Sprintf("trtri n=%d", n)
		got := onStridedCopy(l, func(l *Matrix) {
			if err := Trtri(l); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if d := relDiff(got, want, true); d > equivTol {
			t.Fatalf("%s: relative difference %.3g", name, d)
		}
		if !upperKept(got, l) {
			t.Fatalf("%s: strict upper triangle was written", name)
		}
	}
}

// TestPotrfNotPDInAnyLeaf: a zero, negative or NaN pivot is
// ErrNotPositiveDefinite wherever the sweep meets it — in every MR-wide
// diagonal tile, at a position that cycles through the tile, and on both
// sides of the split above one packed sweep.
func TestPotrfNotPDInAnyLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{60, 144, trsmPackMax + 1} {
		spd := randSPD(rng, n)
		for c0 := 0; c0 < n; c0 += MR {
			p := c0 + (c0/MR)%min(MR, n-c0)
			for _, bad := range []float64{0, -1, math.NaN()} {
				a := spd.Clone()
				a.Set(p, p, bad)
				if err := Potrf(a); !errors.Is(err, ErrNotPositiveDefinite) {
					t.Fatalf("n=%d pivot %d = %v: got %v, want ErrNotPositiveDefinite", n, p, bad, err)
				}
			}
		}
	}
}
