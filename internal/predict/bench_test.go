package predict

import (
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/synth"
)

// benchSnapshotPredict times one request of n queries at the largest
// benchmark block size (nv=1, b=144, nr=2) — the request cost `make bench`
// prints next to the solver's.
func benchSnapshotPredict(b *testing.B, n int) {
	g := unfitted(b, "nv=1 b=144 nr=2", synth.GenConfig{Nv: 1, Nt: 4, Nr: 2, MeshNx: 12, MeshNy: 12, ObsPerStep: 120, Seed: 3})
	s, err := NewSnapshot(g.m, g.res)
	if err != nil {
		b.Fatal(err)
	}
	qs := gridQueries(rand.New(rand.NewSource(9)), g.m)
	for len(qs) < n {
		qs = append(qs, qs...)
	}
	qs = qs[:n]
	means, vars := make([]float64, n), make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PredictInto(qs, means, vars); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotPredict4(b *testing.B)  { benchSnapshotPredict(b, 4) }
func BenchmarkSnapshotPredict64(b *testing.B) { benchSnapshotPredict(b, 64) }
