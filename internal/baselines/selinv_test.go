package baselines

import (
	"math"
	"sort"
	"testing"

	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// searchSelectedInverse is the Takahashi recurrence with every Σ entry
// found by binary search in its column: the sparse selected inverse before
// its position map, kept as the map's oracle. It returns Σ off the
// diagonal, parallel to the factor's layout, and the diagonal, both in the
// factor's (permuted) coordinates.
func searchSelectedInverse(f *sparse.CholFactor) (sig, sigDiag []float64) {
	at := func(r, c int) float64 {
		if r == c {
			return sigDiag[r]
		}
		if r < c {
			r, c = c, r
		}
		lo, hi := f.ColPtr[c]+1, f.ColPtr[c+1]
		idx := sort.SearchInts(f.RowIdx[lo:hi], r)
		if lo+idx < hi && f.RowIdx[lo+idx] == r {
			return sig[lo+idx]
		}
		return 0
	}
	sig, sigDiag = make([]float64, len(f.Val)), make([]float64, f.N)
	for j := f.N - 1; j >= 0; j-- {
		invDj := 1 / f.Val[f.ColPtr[j]]
		lo, hi := f.ColPtr[j]+1, f.ColPtr[j+1]
		for p := lo; p < hi; p++ {
			var s float64
			for q := lo; q < hi; q++ {
				s += at(f.RowIdx[p], f.RowIdx[q]) * f.Val[q]
			}
			sig[p] = -invDj * s
		}
		var s float64
		for q := lo; q < hi; q++ {
			s += sig[q] * f.Val[q]
		}
		sigDiag[j] = invDj * (invDj - s)
	}
	return sig, sigDiag
}

// TestSparseSelectedInverseBitIdentical: on Q_c of the univariate MB1
// model at ns = 30, nt = 8 (BenchmarkBTAvsSparse's middle mesh) the sparse
// selected inverse's diagonal and its entries at Q_c's pattern equal the
// binary-search routine's bit for bit.
func TestSparseSelectedInverseBitIdentical(t *testing.T) {
	gen := synth.MB1().Gen
	gen.MeshNx, gen.MeshNy, gen.Nt = 6, 5, 8
	ds, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	if ns := ds.Model.Dims.Ns; ns != 30 {
		t.Fatalf("ns = %d, want 30", ns)
	}
	th, err := ds.Model.DecodeTheta(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	qc := ds.Model.QcCSR(th)
	f, err := sparse.CholFactorize(qc, nil)
	if err != nil {
		t.Fatal(err)
	}
	sig, sigDiag := searchSelectedInverse(f)
	inv := make([]int, f.N)
	for i, p := range f.Perm {
		inv[p] = i
	}
	for i, v := range f.SelectedInverseDiag() {
		if want := sigDiag[inv[i]]; math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("diag[%d] = %v, binary-search routine %v", i, v, want)
		}
	}
	at := func(r, c int) float64 { // sig and sigDiag at permuted (r, c)
		if r == c {
			return sigDiag[r]
		}
		r, c = max(r, c), min(r, c)
		lo, hi := f.ColPtr[c]+1, f.ColPtr[c+1]
		for p := lo; p < hi; p++ {
			if f.RowIdx[p] == r {
				return sig[p]
			}
		}
		return 0
	}
	// SigmaAtOrig runs a whole selected inversion per call: one entry
	// every few rows.
	checked := 0
	for i := 0; i < qc.RowsN; i += 41 {
		for p := qc.RowPtr[i]; p < qc.RowPtr[i+1]; p += 3 {
			j := qc.ColIdx[p]
			got, want := f.SigmaAtOrig(i, j), at(inv[i], inv[j])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Σ(%d,%d) = %v, binary-search routine %v", i, j, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no Σ entry checked")
	}
}
