package inla

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// genPintime builds a dataset with enough time blocks for parallel-in-time
// partitioning to be in play (nt = 12 supports up to 3 useful partitions).
func genPintime(t *testing.T) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 2, Nt: 12, Nr: 2,
		MeshNx: 4, MeshNy: 3,
		ObsPerStep: 20,
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPlanBatchFillsPointsFirst(t *testing.T) {
	// Wide gradient batch on a matching core budget: all cores go to S1,
	// the factorizations stay sequential.
	p := PlanBatch(9, 8, 64, true)
	if p.PointWorkers != 8 {
		t.Fatalf("PointWorkers = %d, want 8", p.PointWorkers)
	}
	if p.Partitions != 1 {
		t.Fatalf("wide batch must stay sequential, got %d partitions", p.Partitions)
	}
	// Width-1 line-search probe: the whole budget flows inside the single
	// factorization (halved by the S2 pipeline split).
	p = PlanBatch(1, 8, 64, true)
	if p.PointWorkers != 1 {
		t.Fatalf("PointWorkers = %d, want 1", p.PointWorkers)
	}
	if p.Partitions != 4 {
		t.Fatalf("width-1 batch with 8 cores and S2 should run 4 partitions, got %d", p.Partitions)
	}
	// Without S2 the full budget becomes partition width.
	p = PlanBatch(1, 8, 64, false)
	if p.Partitions != 8 {
		t.Fatalf("width-1 batch with 8 cores, no S2: want 8 partitions, got %d", p.Partitions)
	}
}

func TestPlanBatchRespectsTimePartitionability(t *testing.T) {
	// nt = 8 supports at most 8/4 = 2 useful partitions regardless of the
	// core budget.
	p := PlanBatch(1, 64, 8, false)
	if p.Partitions != 2 {
		t.Fatalf("partitions = %d, want the nt-bound 2", p.Partitions)
	}
	// Tiny time dimensions disable the layer entirely.
	p = PlanBatch(1, 64, 3, false)
	if p.Partitions != 1 {
		t.Fatalf("partitions = %d, want 1 for nt=3", p.Partitions)
	}
	// A single core disables every layer.
	p = PlanBatch(5, 1, 64, true)
	if p.PointWorkers != 1 || p.Partitions != 1 {
		t.Fatalf("single-core plan must be fully sequential, got %+v", p)
	}
}

// TestCountPlanHasOnePartition: a count model factorizes sequentially on
// every path, so at Workers 4 over nt = 8 its width-1 plan reports one
// partition and the line search batches four candidates, while a Gaussian
// model of the same shape splits its cores into two partitions and two
// candidates.
func TestCountPlanHasOnePartition(t *testing.T) {
	for _, tc := range []struct {
		lik         model.LikelihoodKind
		parts, cand int
	}{{model.LikPoisson, 1, 4}, {model.LikGaussian, 2, 2}} {
		ds, err := synth.Generate(synth.GenConfig{
			Nv: 1, Nt: 8, Nr: 1, MeshNx: 4, MeshNy: 3, ObsPerStep: 10, Seed: 5, Family: tc.lik,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5), Workers: 4}
		if p := e.StencilPlan(1); p.Partitions != tc.parts {
			t.Fatalf("%v: width-1 plan %+v, want %d partitions", tc.lik, p, tc.parts)
		}
		if k := lineSearchWidth(e); k != tc.cand {
			t.Fatalf("%v: line search batches %d candidates, want %d", tc.lik, k, tc.cand)
		}
	}
}

// TestRunOnExecutorCapsConcurrency: the batch runners must never exceed
// their bound, must cover every index exactly once, and must not deadlock
// on degenerate bounds.
func TestRunOnExecutorCapsConcurrency(t *testing.T) {
	ex := sched.New(4)
	defer ex.Close()
	e := &BTAEvaluator{exec: ex}
	for _, workers := range []int{1, 3, 8, 100} {
		const n = 64
		var active, peak, calls atomic.Int64
		var mu sync.Mutex
		seen := make(map[int]int)
		e.runOnExecutor(n, workers, func(i int) {
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			mu.Lock()
			seen[i]++
			mu.Unlock()
			calls.Add(1)
			active.Add(-1)
		})
		if calls.Load() != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls.Load(), n)
		}
		for i := 0; i < n; i++ {
			if seen[i] != 1 {
				t.Fatalf("workers=%d: index %d evaluated %d times", workers, i, seen[i])
			}
		}
		bound := int64(workers)
		if bound > n {
			bound = n
		}
		if peak.Load() > bound {
			t.Fatalf("workers=%d: observed concurrency %d beyond the bound %d", workers, peak.Load(), bound)
		}
	}
}

// TestEvalBatchBoundedWorkersMatchesSequential: the pooled batch must give
// the same values as width-1 evaluations, whatever the worker bound.
func TestEvalBatchBoundedWorkersMatchesSequential(t *testing.T) {
	ds := genSmall(t, 2)
	prior := WeakPrior(ds.Theta0, 5)
	pts := gradientPoints(ds.Theta0, 1e-3)
	want := (&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 1}).EvalBatch(pts)
	got := (&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 3}).EvalBatch(pts)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("point %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// fixedEvaluator answers every batch with a prefix of one preallocated
// value slice, so the optimizer code driving it is all that can allocate.
type fixedEvaluator struct{ out []float64 }

func (e *fixedEvaluator) EvalBatch(points [][]float64) []float64 { return e.out[:len(points)] }

// TestBFGSIterationAllocFree pins the satellite fix: with the state
// allocated once, one iteration's bookkeeping — stencil refill, gradient
// extraction, direction, a round of k = 4 line-search candidates, the arms
// of a gradient with a known centre, curvature update, Hessian reset —
// performs zero heap allocations.
func TestBFGSIterationAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race mode skews allocation accounting")
	}
	d := 5
	theta := make([]float64, d)
	st := newBFGSState(theta, 4)
	hInv := dense.Eye(d)
	vals := make([]float64, 2*d+1)
	for i := range vals {
		vals[i] = float64(i%3) - 1
	}
	ev := &fixedEvaluator{out: vals}
	opt := DefaultOptOptions()
	for i := range st.s {
		st.s[i] = 0.1 * float64(i+1)
		st.yv[i] = 0.2 * float64(d-i)
	}
	var acc, nLine, nGrad int
	var gradOK bool
	allocs := testing.AllocsPerRun(50, func() {
		fillGradientPoints(st.pts, st.x, 1e-3)
		_ = gradientFromBatchInto(st.g, vals, 1e-3)
		dense.Gemv(dense.NoTrans, -1, hInv, st.g, 0, st.p)
		// Every candidate fails against F = −10; steps 1 … 1/8 ≥ 0.1.
		acc, _, nLine = lineSearch(ev, st, -10, 0.1)
		_, nGrad, gradOK = evalGradient(ev, st, st.cands[0], st.gNew, 0.5, opt)
		bfgsUpdate(hInv, st.s, st.yv, st.hy)
		setEye(hInv)
	})
	if acc != -1 || nLine != 4 || nGrad != 2*d || !gradOK {
		t.Fatalf("line search accepted %d after %d evaluations, gradient spent %d (ok %v); want −1, 4, %d, true",
			acc, nLine, nGrad, gradOK, 2*d)
	}
	if allocs != 0 {
		t.Fatalf("BFGS iteration bookkeeping allocates %.1f objects per run, want 0", allocs)
	}
}

// TestFitParallelSolverMatchesSequential: a fit whose evaluations are forced
// onto the parallel-in-time solver must reproduce the sequential fit's mode
// to optimizer tolerance (the backends agree to 1e-10 per evaluation, so the
// whole BFGS trajectory coincides), and the latent posterior at that mode,
// which both extract with the one sequential routine.
func TestFitParallelSolverMatchesSequential(t *testing.T) {
	ds := genPintime(t)
	prior := WeakPrior(ds.Theta0, 5)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 4
	opts.SkipHyperUncertainty = true

	seq, err := fitWith(ds.Model, &BTAEvaluator{Model: ds.Model, Prior: prior, partitions: 1}, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := fitWith(ds.Model, &BTAEvaluator{Model: ds.Model, Prior: prior, partitions: 3}, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Theta {
		if math.Abs(seq.Theta[i]-par.Theta[i]) > 1e-6 {
			t.Fatalf("theta[%d]: sequential %v vs parallel %v", i, seq.Theta[i], par.Theta[i])
		}
	}
	if math.Abs(seq.Opt.F-par.Opt.F) > 1e-6*(1+math.Abs(seq.Opt.F)) {
		t.Fatalf("objective at the mode: %v vs %v", seq.Opt.F, par.Opt.F)
	}
	for i := range seq.LatentVar {
		if math.Abs(seq.LatentVar[i]-par.LatentVar[i]) > 1e-8*(1+seq.LatentVar[i]) {
			t.Fatalf("latent variance %d: %v vs %v", i, seq.LatentVar[i], par.LatentVar[i])
		}
	}
}
