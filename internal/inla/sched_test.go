package inla

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// TestFitDeterministicAcrossExecutorWidths is the cross-evaluation
// determinism suite: the full INLA fit on an 8-worker executor, where
// solver tasks from different θ points interleave and steal, must
// reproduce the fit on a zero-worker executor, where the caller alone
// completes every DAG — mode θ, objective, optimizer trajectory, latent
// mean and variances — to 1e-10 across the partition × arrow-width grid;
// nt = 20 lets the pinned widths {1, 3, 5} run unclamped, so the last one
// assembles an 8-block reduced system. Scheduling reorders nothing
// that matters: tip deltas fold in partition order and every other write
// set is disjoint, so the arithmetic is identical whichever goroutine runs
// a task.
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
		for _, parts := range []int{1, 3, 5} {
			fit := func(ex *sched.Executor) *Result {
				opts := DefaultFitOptions()
				opts.Opt.MaxIter = 3
				opts.SkipHyperUncertainty = true
				e := &BTAEvaluator{Model: ds.Model, Prior: prior, S2: true,
					partitions: parts, exec: ex}
				res, err := fitWith(ds.Model, e, ds.Theta0, opts)
				if err != nil {
					t.Fatalf("nr=%d parts=%d workers=%d: %v", nr, parts, ex.Workers(), err)
				}
				return res
			}
			want := fit(serial)
			got := fit(wide)
			const tol = 1e-10
			if math.Abs(got.Opt.F-want.Opt.F) > tol*(1+math.Abs(want.Opt.F)) {
				t.Fatalf("nr=%d parts=%d: 8-worker F=%v, zero-worker F=%v", nr, parts, got.Opt.F, want.Opt.F)
			}
			if got.Opt.Iterations != want.Opt.Iterations || got.Opt.FEvals != want.Opt.FEvals {
				t.Fatalf("nr=%d parts=%d: 8-worker trajectory (%d it, %d evals) vs zero-worker (%d it, %d evals)",
					nr, parts, got.Opt.Iterations, got.Opt.FEvals, want.Opt.Iterations, want.Opt.FEvals)
			}
			for i := range want.Theta {
				if math.Abs(got.Theta[i]-want.Theta[i]) > tol*(1+math.Abs(want.Theta[i])) {
					t.Fatalf("nr=%d parts=%d: θ[%d] 8-worker %v, zero-worker %v", nr, parts, i, got.Theta[i], want.Theta[i])
				}
			}
			for i := range want.Mu {
				if math.Abs(got.Mu[i]-want.Mu[i]) > tol*(1+math.Abs(want.Mu[i])) {
					t.Fatalf("nr=%d parts=%d: μ[%d] 8-worker %v, zero-worker %v", nr, parts, i, got.Mu[i], want.Mu[i])
				}
				if math.Abs(got.LatentVar[i]-want.LatentVar[i]) > tol*(1+math.Abs(want.LatentVar[i])) {
					t.Fatalf("nr=%d parts=%d: var[%d] 8-worker %v, zero-worker %v", nr, parts, i, got.LatentVar[i], want.LatentVar[i])
				}
			}
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
	ref := &BTAEvaluator{Model: ds.Model, Prior: prior, partitions: 2, exec: serial}
	want := ref.EvalBatch(pts)
	e := &BTAEvaluator{Model: ds.Model, Prior: prior, partitions: 2, exec: wide}
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
	e := &BTAEvaluator{Model: ds.Model, Prior: prior, partitions: 2, exec: ex}
	ref := &BTAEvaluator{Model: ds.Model, Prior: prior, partitions: 2, exec: serial}
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
