package bta

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/sched"
)

// A scheduled rank death mid-PPOBTAF must abort the evaluation cleanly on
// every survivor: a typed retryable error (no panic, no deadlock), and the
// run itself error-free so the driver can shrink the world and redo the
// factorization on a fresh factor over the shrunk communicator — which must
// then match the sequential reference.
func TestDistFactorizationAbortsCleanlyOnRankDeath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const nt, b, a = 12, 3, 2
	g := randBTA(rng, nt, b, a)
	rhs := make([]float64, g.Dim())
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	seq, err := Factorize(g)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), rhs...)
	seq.Solve(want)

	parts, err := PartitionBlocks(nt, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	faults := make([]error, 3)
	got := make([]float64, g.Dim())
	plan := &comm.FaultPlan{Kill: map[int]int{1: 2}}
	st, runErr := comm.Run(3, comm.DefaultMachine(), plan, func(c *comm.Comm) error {
		f, ferr := distFactorize(c, g, parts)
		if ferr == nil {
			// The killed rank can fail a survivor only through communication;
			// a rank whose factorization never needed the dead peer fails at
			// the next protocol step instead. Force one.
			_, _, ferr = PPOBTAS(c, f, rhs[f.span.Lo*b:(f.span.Hi+1)*b], rhs[nt*b:])
		}
		mu.Lock()
		faults[c.Rank()] = ferr
		mu.Unlock()
		if ferr == nil {
			return nil // unreachable if the abort semantics hold; asserted below
		}
		// Shrink-and-retry at the solver level: survivors redo the cycle over
		// the two-rank topology and must reproduce the sequential solve.
		nc := c.Shrink()
		if nc.Size() != 2 {
			t.Errorf("rank %d: shrunk world size %d, want 2", c.Rank(), nc.Size())
			return nil
		}
		parts2, perr := PartitionBlocks(nt, 2, 1)
		if perr != nil {
			return perr
		}
		f2, ferr2 := distFactorize(nc, g, parts2)
		if ferr2 != nil {
			return ferr2
		}
		span := f2.span
		rhsLocal := append([]float64(nil), rhs[span.Lo*b:(span.Hi+1)*b]...)
		xLocal, xTip, serr := PPOBTAS(nc, f2, rhsLocal, rhs[nt*b:])
		if serr != nil {
			return serr
		}
		mu.Lock()
		copy(got[span.Lo*b:], xLocal)
		if nc.Rank() == 0 {
			copy(got[nt*b:], xTip)
		}
		mu.Unlock()
		return nil
	})
	if runErr != nil {
		t.Fatalf("run error: %v", runErr)
	}
	if len(st.Killed) != 1 || st.Killed[0] != 1 {
		t.Fatalf("Stats.Killed = %v, want [1]", st.Killed)
	}
	for _, r := range []int{0, 2} {
		if faults[r] == nil {
			t.Fatalf("rank %d completed the wounded protocol without an error", r)
		}
		if !comm.Retryable(faults[r]) {
			t.Fatalf("rank %d: abort error not retryable: %v", r, faults[r])
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("retried solve[%d] = %v, sequential = %v", i, got[i], want[i])
		}
	}
}

// A scheduled rank death mid-PPOBTASI aborts the selected inversion on every
// survivor with a retryable error, leaks no goroutine, and a retry on a
// fresh factor over the shrunk communicator reproduces the sequential Σ.
func TestDistSelectedInversionAbortsCleanlyOnRankDeath(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	const nt, b, a = 12, 3, 2
	g := randBTA(rng, nt, b, a)
	seq, err := Factorize(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.SelectedInversion()
	if err != nil {
		t.Fatal(err)
	}

	parts, err := PartitionBlocks(nt, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched.Shared() // its workers live for the process: start them before counting
	goroutines := runtime.NumGoroutine()
	var mu sync.Mutex
	faults := make([]error, 3)
	phase := make([]string, 3) // the routine each rank entered last
	var mismatch []error
	// Rank 1's PPOBTAF spends 10 communication operations; its PPOBTASI
	// receives the scattered Σ boundary blocks, then joins the tip Bcast.
	// The 13th operation is one of those receives.
	plan := &comm.FaultPlan{Kill: map[int]int{1: 13}}
	st, runErr := comm.Run(3, comm.DefaultMachine(), plan, func(c *comm.Comm) error {
		r := c.Rank()
		phase[r] = "PPOBTAF"
		f, ferr := distFactorize(c, g, parts)
		if ferr == nil {
			phase[r] = "PPOBTASI"
			_, ferr = PPOBTASI(c, f)
		}
		faults[r] = ferr
		if ferr == nil {
			return nil // a survivor must not get here; asserted below
		}
		nc := c.Shrink()
		parts2, perr := PartitionBlocks(nt, nc.Size(), 1)
		if perr != nil {
			return perr
		}
		f2, ferr := distFactorize(nc, g, parts2)
		if ferr != nil {
			return ferr
		}
		sig, serr := PPOBTASI(nc, f2)
		if serr != nil {
			return serr
		}
		mu.Lock()
		if e := sigmaSliceMismatch(sig, want, 1e-9); e != nil {
			mismatch = append(mismatch, e)
		}
		mu.Unlock()
		return nil
	})
	if runErr != nil {
		t.Fatalf("run error: %v", runErr)
	}
	if len(st.Killed) != 1 || st.Killed[0] != 1 || phase[1] != "PPOBTASI" {
		t.Fatalf("Stats.Killed = %v with rank 1 in %s, want [1] inside PPOBTASI", st.Killed, phase[1])
	}
	for _, r := range []int{0, 2} {
		if !comm.Retryable(faults[r]) {
			t.Fatalf("rank %d: selected inversion returned %v, want a retryable abort", r, faults[r])
		}
	}
	for _, e := range mismatch {
		t.Error(e)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("goroutines leaked: %d before, %d after", goroutines, n)
	}
}

// sigmaSliceMismatch compares one rank's PPOBTASI output with the sequential
// selected inverse, element by element to tol.
func sigmaSliceMismatch(sig *LocalBTA, want *Matrix, tol float64) error {
	lo := sig.Part.Lo
	for i, d := range sig.Diag {
		if !d.Equal(want.Diag[lo+i], tol) {
			return fmt.Errorf("Σ diag block %d differs", lo+i)
		}
	}
	for i, l := range sig.Lower {
		if !l.Equal(want.Lower[lo+i], tol) {
			return fmt.Errorf("Σ lower block %d differs", lo+i)
		}
	}
	if sig.TopCoupling != nil && !sig.TopCoupling.Equal(want.Lower[lo-1], tol) {
		return fmt.Errorf("Σ coupling block %d differs", lo-1)
	}
	for i, ar := range sig.Arrow {
		if !ar.Equal(want.Arrow[lo+i], tol) {
			return fmt.Errorf("Σ arrow block %d differs", lo+i)
		}
	}
	if !sig.Tip.Equal(want.Tip, tol) {
		return fmt.Errorf("Σ tip differs on the rank owning blocks %d..%d", lo, sig.Part.Hi)
	}
	return nil
}
