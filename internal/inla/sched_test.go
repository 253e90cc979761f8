package inla

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// TestFitDeterministicAcrossExecutorWidths is the cross-evaluation
// determinism suite: the full INLA fit on an 8-worker executor, where the
// point evaluations of a batch run on different workers, must reproduce
// the fit on a zero-worker executor, where the caller alone runs every
// point — mode θ, objective, optimizer trajectory, latent mean and
// variances — bit for bit, with one and two fixed effects per process.
// Every evaluation factorizes on its arena's sequential factor, so
// scheduling decides only which goroutine computes a value, never the
// value.
func TestFitDeterministicAcrossExecutorWidths(t *testing.T) {
	serial, wide := sched.New(0), sched.New(8)
	defer serial.Close()
	defer wide.Close()
	for _, nr := range []int{1, 2} { // arrow width: nv*nr fixed effects
		ds, err := synth.Generate(synth.GenConfig{
			Nv: 1, Nt: 20, Nr: nr,
			MeshNx: 3, MeshNy: 3,
			ObsPerStep: 10,
			Seed:       31,
		})
		if err != nil {
			t.Fatal(err)
		}
		prior := WeakPrior(ds.Theta0, 5)
		fit := func(ex *sched.Executor) *Result {
			opts := DefaultFitOptions()
			opts.Opt.MaxIter = 3
			opts.SkipHyperUncertainty = true
			e := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 8, exec: ex}
			res, err := fitWith(ds.Model, e, ds.Theta0, opts)
			if err != nil {
				t.Fatalf("nr=%d workers=%d: %v", nr, ex.Workers(), err)
			}
			return res
		}
		want, got := fit(serial), fit(wide)
		if got.Opt.F != want.Opt.F || !slices.Equal(got.Opt.Trace, want.Opt.Trace) {
			t.Fatalf("nr=%d: 8-worker F=%v trace %v, zero-worker F=%v trace %v",
				nr, got.Opt.F, got.Opt.Trace, want.Opt.F, want.Opt.Trace)
		}
		if got.Opt.Iterations != want.Opt.Iterations || got.Opt.FEvals != want.Opt.FEvals {
			t.Fatalf("nr=%d: 8-worker trajectory (%d it, %d evals) vs zero-worker (%d it, %d evals)",
				nr, got.Opt.Iterations, got.Opt.FEvals, want.Opt.Iterations, want.Opt.FEvals)
		}
		if !slices.Equal(got.Theta, want.Theta) {
			t.Fatalf("nr=%d: θ 8-worker %v, zero-worker %v", nr, got.Theta, want.Theta)
		}
		if !slices.Equal(got.Mu, want.Mu) || !slices.Equal(got.LatentVar, want.LatentVar) {
			t.Fatalf("nr=%d: latent posterior differs between the 8-worker and the zero-worker fit", nr)
		}
	}
}

// TestEvalBatchDeterministicAcrossExecutorWidths pins the batch layer
// itself on a wider stencil than the fits above exercise: the same 2d+1
// gradient batch on the zero-worker and the 8-worker executor, where the
// wide one interleaves solver tasks from different θ points on one pool.
func TestEvalBatchDeterministicAcrossExecutorWidths(t *testing.T) {
	serial, wide := sched.New(0), sched.New(8)
	defer serial.Close()
	defer wide.Close()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 2, Nt: 6, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       37,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	pts := gradientPoints(ds.Theta0, 1e-3)
	ref := &BTAEvaluator{Model: ds.Model, Prior: prior, exec: serial}
	want := ref.EvalBatch(pts)
	e := &BTAEvaluator{Model: ds.Model, Prior: prior, exec: wide}
	got := e.EvalBatch(pts)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("point %d: 8-worker F=%v, zero-worker F=%v", i, got[i], want[i])
		}
	}
}

// TestEvaluatorPrivateExecutorShutdown: an evaluator pinned to a private
// executor (BTAEvaluator.exec) runs its batches and posterior there, and
// closing the executor leaves no goroutines behind.
func TestEvaluatorPrivateExecutorShutdown(t *testing.T) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 6, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       41,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	before := runtime.NumGoroutine()

	ex, serial := sched.New(3), sched.New(0)
	e := &BTAEvaluator{Model: ds.Model, Prior: prior, exec: ex}
	ref := &BTAEvaluator{Model: ds.Model, Prior: prior, exec: serial}
	pts := gradientPoints(ds.Theta0, 1e-3)
	want := ref.EvalBatch(pts)
	got := e.EvalBatch(pts)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("point %d: private-executor F=%v, zero-worker F=%v", i, got[i], want[i])
		}
	}
	if _, _, err := e.Posterior(ds.Theta0); err != nil {
		t.Fatal(err)
	}
	ex.Close()
	serial.Close()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak after executor Close: %d before, %d after", before, after)
	}
}
