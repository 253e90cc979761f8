package bta

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
)

func randSPD(t *testing.T, rng *rand.Rand, n, b, a int) (*Matrix, *Factor) {
	t.Helper()
	m := NewMatrix(n, b, a)
	fill := func(d *dense.Matrix) {
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64() * 0.05
		}
	}
	for i := 0; i < n; i++ {
		fill(m.Diag[i])
		m.Diag[i].Symmetrize()
		m.Diag[i].AddDiag(float64(b + a))
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
		m.Tip.AddDiag(float64(b + a))
	}
	f, err := Factorize(m)
	if err != nil {
		t.Fatalf("factorize: %v", err)
	}
	return m, f
}

// solveColumns solves A·X = B column by column through the vector Solve —
// the reference of the multi-RHS sweeps.
func solveColumns(f *Factor, b *dense.Matrix) *dense.Matrix {
	x := b.Clone()
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for r := range col {
			col[r] = b.At(r, j)
		}
		f.Solve(col)
		for r, v := range col {
			x.Set(r, j, v)
		}
	}
	return x
}

// SolveMultiInto must agree with column-by-column vector solves.
func TestSolveMultiIntoMatchesSolveMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][3]int{{4, 5, 3}, {6, 4, 0}, {1, 3, 2}} {
		n, b, a := shape[0], shape[1], shape[2]
		_, f := randSPD(t, rng, n, b, a)
		k := 6
		ref := dense.New(f.Dim(), k)
		for i := range ref.Data {
			ref.Data[i] = rng.NormFloat64()
		}
		w := NewMultiSolve(n, b, a, k)
		w.RHS.CopyFrom(ref)
		f.SolveMultiInto(w)
		if !w.RHS.Equal(solveColumns(f, ref), 1e-12) {
			t.Errorf("shape (%d,%d,%d): SolveMultiInto disagrees with the vector Solve", n, b, a)
		}
	}
}

// The forward half-solve squared column norms must equal φᵀ·A⁻¹·φ.
func TestForwardSolveMultiQuadraticForm(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, b, a := 5, 4, 2
	m, f := randSPD(t, rng, n, b, a)
	dim := f.Dim()
	k := 3
	w := NewMultiSolve(n, b, a, k)
	phi := dense.New(dim, k)
	for i := range phi.Data {
		phi.Data[i] = rng.NormFloat64()
	}
	w.RHS.CopyFrom(phi)
	f.ForwardSolveMultiInto(w)
	for j := 0; j < k; j++ {
		var got float64
		for r := 0; r < dim; r++ {
			v := w.RHS.At(r, j)
			got += v * v
		}
		// Reference: solve A·z = φ, take φᵀz.
		z := make([]float64, dim)
		for r := 0; r < dim; r++ {
			z[r] = phi.At(r, j)
		}
		f.Solve(z)
		var want float64
		for r := 0; r < dim; r++ {
			want += phi.At(r, j) * z[r]
		}
		if math.Abs(got-want) > 1e-10*math.Abs(want) {
			t.Errorf("column %d: ‖L⁻¹φ‖²=%g, φᵀA⁻¹φ=%g", j, got, want)
		}
		if got < 0 {
			t.Errorf("column %d: negative quadratic form %g", j, got)
		}
	}
	_ = m
}

// Narrowed workspaces share storage with the parent, solve only their
// columns, and leave the columns beyond the narrow width untouched.
func TestNarrowSolvesPrefixColumnsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, b, a := 4, 5, 2
	_, f := randSPD(t, rng, n, b, a)
	dim := f.Dim()
	k, narrowK := 8, 3
	w := NewMultiSolve(n, b, a, k)
	ref := dense.New(dim, k)
	for i := range ref.Data {
		ref.Data[i] = rng.NormFloat64()
	}
	w.RHS.CopyFrom(ref)
	nw := w.Narrow(narrowK)
	if nw.K != narrowK || nw.Dim() != dim {
		t.Fatalf("narrow shape K=%d dim=%d", nw.K, nw.Dim())
	}
	if w.Narrow(narrowK) != nw {
		t.Fatal("Narrow is not memoized")
	}
	if w.Narrow(k) != w {
		t.Fatal("Narrow at full width must return the parent")
	}
	for _, bad := range []int{0, -1, k + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Narrow(%d) did not panic", bad)
				}
			}()
			w.Narrow(bad)
		}()
	}
	solved := solveColumns(f, ref)
	f.SolveMultiInto(nw)
	for r := 0; r < dim; r++ {
		for c := 0; c < k; c++ {
			got := w.RHS.At(r, c)
			want := solved.At(r, c)
			if c >= narrowK {
				want = ref.At(r, c) // beyond the narrow width: untouched fill
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("(%d,%d): %g vs %g", r, c, got, want)
			}
		}
	}
}

// The multi-solve hot path must not allocate.
func TestSolveMultiIntoAllocs(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only holds without -race")
	}
	rng := rand.New(rand.NewSource(9))
	n, b, a := 6, 8, 4
	_, f := randSPD(t, rng, n, b, a)
	w := NewMultiSolve(n, b, a, 16)
	for i := range w.RHS.Data {
		w.RHS.Data[i] = rng.NormFloat64()
	}
	allocs := testing.AllocsPerRun(10, func() {
		f.SolveMultiInto(w)
	})
	if allocs != 0 {
		t.Errorf("SolveMultiInto allocates %.1f objects per run, want 0", allocs)
	}
	// Narrowed widths are memoized: allocation-free after one warm pass.
	w.Narrow(5)
	allocs = testing.AllocsPerRun(10, func() {
		f.SolveMultiInto(w.Narrow(5))
	})
	if allocs != 0 {
		t.Errorf("narrowed SolveMultiInto allocates %.1f objects per run, want 0", allocs)
	}
}
