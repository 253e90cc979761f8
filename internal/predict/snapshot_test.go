package predict

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// The read path performs zero heap allocations at the largest benchmark
// block size, b = 144 (where the solve route it replaced allocated 18
// objects per request), and through the handle too: one atomic load must
// not reintroduce any.
func TestSnapshotPredictIntoAllocs(t *testing.T) {
	g := unfitted(t, "nv=1 b=144 nr=2", synth.GenConfig{Nv: 1, Nt: 4, Nr: 2, MeshNx: 12, MeshNy: 12, ObsPerStep: 120, Seed: 3})
	s, err := NewSnapshot(g.m, g.res)
	if err != nil {
		t.Fatal(err)
	}
	qs := gridQueries(rand.New(rand.NewSource(22)), g.m)
	means := make([]float64, len(qs))
	vars := make([]float64, len(qs))
	h := NewHandle(s)
	for name, predict := range map[string]func([]Query, []float64, []float64) error{
		"Snapshot": s.PredictInto, "Handle": h.PredictInto,
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := predict(qs, means, vars); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s.PredictInto allocates %.1f objects per run, want 0", name, allocs)
		}
	}
}

// Concurrent readers on one Snapshot all get exactly the single-threaded
// answer: the read path shares no mutable state (under -race this is the
// lock-free claim's proof obligation).
func TestSnapshotConcurrentReaders(t *testing.T) {
	f := getFitted(t)
	s, err := NewSnapshot(f.ds.Model, f.res)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	qs := randomQueries(rng, f, 40)
	wantM, wantV, err := s.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			means := make([]float64, len(qs))
			vars := make([]float64, len(qs))
			for it := 0; it < 20; it++ {
				if err := s.PredictInto(qs, means, vars); err != nil {
					errs <- err
					return
				}
				for i := range qs {
					if means[i] != wantM[i] || vars[i] != wantV[i] {
						errs <- errors.New("concurrent read diverged from single-threaded answer")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// Swapping snapshots under concurrent read load never tears a batch: every
// PredictInto answers entirely from one snapshot — the means vector matches
// one generation's reference bitwise, never a mix. The two generations
// share θ (same Σ, same variances) and differ only in the latent mean,
// scaled ×2, so every query distinguishes them.
func TestHandleSwapUnderLoadNoTearing(t *testing.T) {
	f := getFitted(t)
	sA, err := NewSnapshot(f.ds.Model, f.res)
	if err != nil {
		t.Fatal(err)
	}
	res2 := *f.res
	res2.Mu = make([]float64, len(f.res.Mu))
	for i, v := range f.res.Mu {
		res2.Mu[i] = 2 * v
	}
	sB, err := NewSnapshot(f.ds.Model, &res2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	qs := randomQueries(rng, f, 24)
	refA, _, err := sA.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	refB, _, err := sB.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if refA[i] == refB[i] {
			t.Fatalf("query %d cannot distinguish the generations (mean %v)", i, refA[i])
		}
	}

	h := NewHandle(sA)
	var stop atomic.Bool
	var sawA, sawB, torn atomic.Int64
	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			means := make([]float64, len(qs))
			vars := make([]float64, len(qs))
			for !stop.Load() {
				if err := h.PredictInto(qs, means, vars); err != nil {
					errs <- err
					return
				}
				matchA, matchB := true, true
				for i := range qs {
					if means[i] != refA[i] {
						matchA = false
					}
					if means[i] != refB[i] {
						matchB = false
					}
				}
				switch {
				case matchA:
					sawA.Add(1)
				case matchB:
					sawB.Add(1)
				default:
					torn.Add(1)
				}
			}
		}()
	}
	// Swap generations back and forth while the readers hammer the handle.
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			h.Swap(sB)
		} else {
			h.Swap(sA)
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn reads (matched neither generation)", n)
	}
	if sawA.Load() == 0 || sawB.Load() == 0 {
		t.Logf("swap test saw generations A=%d B=%d; both >0 expected under normal scheduling", sawA.Load(), sawB.Load())
	}
}

// A retired snapshot holds no goroutines: after a swap the old generation
// just drains to the garbage collector, so churning through generations
// under load leaves the goroutine count flat.
func TestSnapshotSwapLeaksNoGoroutines(t *testing.T) {
	f := getFitted(t)
	before := runtime.NumGoroutine()
	s0, err := NewSnapshot(f.ds.Model, f.res)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandle(s0)
	rng := rand.New(rand.NewSource(25))
	qs := randomQueries(rng, f, 8)
	means := make([]float64, len(qs))
	vars := make([]float64, len(qs))
	for gen := 0; gen < 5; gen++ {
		s, err := NewSnapshot(f.ds.Model, f.res)
		if err != nil {
			t.Fatal(err)
		}
		old := h.Swap(s)
		// The old generation keeps answering in-flight reads, then drains.
		if err := old.PredictInto(qs, means, vars); err != nil {
			t.Fatal(err)
		}
		if err := h.PredictInto(qs, means, vars); err != nil {
			t.Fatal(err)
		}
	}
	// Generous settle: anything the runtime spawned transiently winds down.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines grew %d → %d across snapshot generations", before, now)
	}
}

// TestSnapshotFromFitMatchesDecodedResult: a snapshot frozen from a fitted
// Result reuses the fit's Σ, one built from the decoded checkpoint payload
// recomputes it; both must answer with the same bits, for a Gaussian and a
// count model. Overwriting the result's Σ and μ afterwards must not change
// either snapshot's answers.
func TestSnapshotFromFitMatchesDecodedResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   *synth.Dataset
	}{
		{"gaussian", getFitted(t).ds},
		{"count", genCounts(t)},
	} {
		m := tc.ds.Model
		opts := inla.DefaultFitOptions()
		opts.Opt.MaxIter = 3
		opts.SkipHyperUncertainty = true
		res, err := inla.Fit(m, inla.WeakPrior(tc.ds.Theta0, 5), tc.ds.Theta0, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Sigma == nil {
			t.Fatalf("%s: the fit kept no Σ", tc.name)
		}
		decoded, err := inla.UnmarshalResult(inla.MarshalResult(res))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if decoded.Sigma != nil {
			t.Fatalf("%s: a decoded result carries a Σ", tc.name)
		}
		fromFit, err := NewSnapshot(m, res)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fromCkpt, err := NewSnapshot(m, decoded)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		qs := gridQueries(rand.New(rand.NewSource(21)), m)
		wantM, wantV, err := fromFit.Predict(qs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		same := func(what string, s *Snapshot) {
			t.Helper()
			gotM, gotV, err := s.Predict(qs)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for i := range qs {
				if gotM[i] != wantM[i] || gotV[i] != wantV[i] {
					t.Fatalf("%s: %s: query %d answers (%v, %v), the fit-time snapshot (%v, %v)",
						tc.name, what, i, gotM[i], gotV[i], wantM[i], wantV[i])
				}
			}
		}
		same("snapshot of the decoded result", fromCkpt)

		for _, blk := range append(append([]*dense.Matrix{res.Sigma.Tip}, res.Sigma.Diag...), res.Sigma.Arrow...) {
			for i := range blk.Data {
				blk.Data[i] = math.NaN()
			}
		}
		for i := range res.Mu {
			res.Mu[i] = math.NaN()
		}
		same("fit-time snapshot after the result's Σ and μ were overwritten", fromFit)
		same("decoded snapshot after the result's Σ and μ were overwritten", fromCkpt)
	}
}

// TestNewSnapshotRejectsMismatchedResult: a result that does not describe
// the model is an error, not a panic at the first query.
func TestNewSnapshotRejectsMismatchedResult(t *testing.T) {
	f := getFitted(t)
	m := f.ds.Model
	n, b, a := m.Dims.BTAShape()
	noTip := bta.NewMatrix(n, b, a)
	noTip.Tip = nil
	for _, tc := range []struct {
		name string
		res  inla.Result
		opts []Option
	}{
		{"μ of the wrong length", inla.Result{Theta: f.res.Theta, Mu: f.res.Mu[1:]}, nil},
		{"Σ with one time block too few", inla.Result{Theta: f.res.Theta, Mu: f.res.Mu, Sigma: bta.NewMatrix(n-1, b, a)}, nil},
		{"Σ of the wrong block size", inla.Result{Theta: f.res.Theta, Mu: f.res.Mu, Sigma: bta.NewMatrix(n, b+1, a)}, nil},
		{"Σ without an arrow", inla.Result{Theta: f.res.Theta, Mu: f.res.Mu, Sigma: bta.NewMatrix(n, b, 0)}, nil},
		{"Σ without a tip", inla.Result{Theta: f.res.Theta, Mu: f.res.Mu, Sigma: noTip}, nil},
		{"max batch 0", *f.res, []Option{WithMaxBatch(0)}},
	} {
		if _, err := NewSnapshot(m, &tc.res, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
