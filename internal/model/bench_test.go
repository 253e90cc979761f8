package model

import (
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
)

// BenchmarkQcInto times the numeric-only assembly of Q_c into a warm BTA
// workspace at the three Gaussian benchmark shapes.
func BenchmarkQcInto(b *testing.B) {
	for _, s := range benchmarkShapes {
		if s.lik != LikGaussian {
			continue
		}
		b.Run(s.name, func(b *testing.B) {
			m, th := s.build(b)
			n, bs, a := m.Dims.BTAShape()
			out := bta.NewMatrix(n, bs, a)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.QcInto(th, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
