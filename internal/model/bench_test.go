package model

import (
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
)

// BenchmarkQcInto times the numeric-only assembly of Q_c into a warm BTA
// workspace at the three Gaussian benchmark shapes.
func BenchmarkQcInto(b *testing.B) {
	benchGaussianShapes(b, func(m *Model, th *Theta, out *bta.Matrix) error {
		return m.QcInto(th, out)
	})
}

// BenchmarkQcDensifyNaive times the route the per-class assembly replaces
// (§IV-F), at the shapes of BenchmarkQcInto: Q_c assembled in CSR, then
// densified into fresh BTA blocks with one index lookup per block entry,
// O(n·b²). The INLA_DIST-like comparator builds Q_c this way; the ratio
// of the two benchmarks' ns/op at one shape is the mapping ablation.
func BenchmarkQcDensifyNaive(b *testing.B) {
	benchGaussianShapes(b, func(m *Model, th *Theta, _ *bta.Matrix) error {
		_, err := m.QcDensifyNaive(th)
		return err
	})
}

// benchGaussianShapes times build at each Gaussian benchmark shape, with
// a BTA matrix of the shape's size to assemble into.
func benchGaussianShapes(b *testing.B, build func(*Model, *Theta, *bta.Matrix) error) {
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
				if err := build(m, th, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
