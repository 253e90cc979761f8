package bta

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/dalia-hpc/dalia/internal/comm"
)

// TestQuickDistributedEqualsSequential is the randomized cross-check of the
// distributed solver family: for random BTA shapes, partition counts and
// load-balance factors, PPOBTAF/PPOBTAS/PPOBTASI must reproduce the
// sequential POBTAF/POBTAS/POBTASI results exactly (up to roundoff).
func TestQuickDistributedEqualsSequential(t *testing.T) {
	f := func(seed int64, nsz, bsz, asz, psz uint8, lbq uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nsz%10) + 4
		b := int(bsz%3) + 1
		a := int(asz % 3)
		p := int(psz%4) + 1
		if maxP := (n + 2) / 2; p > maxP {
			p = maxP
		}
		lb := 1.0 + 0.2*float64(lbq%6)
		g := randBTA(rng, n, b, a)
		parts, err := PartitionBlocks(n, p, lb)
		if err != nil {
			parts, err = PartitionBlocks(n, p, 1)
			if err != nil {
				return false
			}
		}
		rhs := randVec(rng, g.Dim())

		fRef, err := Factorize(g)
		if err != nil {
			return false
		}
		want := append([]float64(nil), rhs...)
		fRef.Solve(want)
		sigRef, err := fRef.SelectedInversion()
		if err != nil {
			return false
		}
		wantDiag := sigRef.DiagVec()
		wantLd := fRef.LogDet()

		var failed atomic.Bool
		x := make([]float64, g.Dim())
		sigDiag := make([]float64, g.Dim())
		gotLd := math.NaN()
		done := make(chan struct{}, p)
		if err := runWorld(p, func(c *comm.Comm) {
			defer func() { done <- struct{}{} }()
			df, err := distFactorize(c, g, parts)
			if err != nil {
				failed.Store(true)
				return
			}
			part := parts[c.Rank()]
			rl := append([]float64(nil), rhs[part.Lo*b:(part.Hi+1)*b]...)
			var rt []float64
			if a > 0 {
				rt = rhs[g.N*b:]
			}
			xl, xt, err := PPOBTAS(c, df, rl, rt)
			if err != nil {
				failed.Store(true)
				return
			}
			sig, err := PPOBTASI(c, df)
			if err != nil {
				failed.Store(true)
				return
			}
			// Each rank writes its own disjoint slices; the replicated tip
			// values are written by rank 0 only (all ranks hold identical
			// copies, but identical-value concurrent writes are still a
			// data race).
			copy(x[part.Lo*b:(part.Hi+1)*b], xl)
			copy(sigDiag[part.Lo*b:(part.Hi+1)*b], sig.DiagVec())
			if c.Rank() == 0 {
				if a > 0 && xt != nil {
					copy(x[g.N*b:], xt)
				}
				if a > 0 && sig.Tip != nil {
					for k := 0; k < a; k++ {
						sigDiag[g.N*b+k] = sig.Tip.At(k, k)
					}
				}
				gotLd = df.LogDet()
			}
		}); err != nil {
			return false
		}
		for i := 0; i < p; i++ {
			<-done
		}
		if failed.Load() {
			return false
		}
		if math.Abs(gotLd-wantLd) > 1e-6*(1+math.Abs(wantLd)) {
			return false
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				return false
			}
			if math.Abs(sigDiag[i]-wantDiag[i]) > 1e-6*(1+math.Abs(wantDiag[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
