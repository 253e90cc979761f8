package baselines

import (
	"fmt"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// BenchmarkBTAvsSparse times the structured BTA solver against the general
// sparse Cholesky of the R-INLA-like path (the PARDISO stand-in) on the
// same Q_c, growing the spatial mesh of the univariate MB1 model at nt = 8:
// factorization plus selected inversion, the BTA one from the assembled
// blocks, the sparse one from the CSR form with its fill-reducing ordering.
// Compare bta against sparse at one ns. (At MB1's own mesh, ns = 130, one
// sparse operation takes seconds.)
func BenchmarkBTAvsSparse(b *testing.B) {
	for _, mesh := range [][2]int{{4, 3}, {6, 5}, {9, 8}} {
		gen := synth.MB1().Gen
		gen.MeshNx, gen.MeshNy, gen.Nt = mesh[0], mesh[1], 8
		ds, err := synth.Generate(gen)
		if err != nil {
			b.Fatal(err)
		}
		t, err := ds.Model.DecodeTheta(ds.Theta0)
		if err != nil {
			b.Fatal(err)
		}
		ns := ds.Model.Dims.Ns
		b.Run(fmt.Sprintf("ns=%d/bta", ns), func(b *testing.B) {
			qc, err := ds.Model.Qc(t)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := bta.Factorize(qc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.SelectedInversion(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ns=%d/sparse", ns), func(b *testing.B) {
			qc := ds.Model.QcCSR(t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := sparse.CholFactorize(qc, nil)
				if err != nil {
					b.Fatal(err)
				}
				f.SelectedInverseDiag()
			}
		})
	}
}
