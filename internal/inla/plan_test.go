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

// genPintime builds a two-variable dataset over nt = 12 time blocks.
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

// TestCountPlanHasOnePartition: every evaluation factorizes on one
// sequential factor, whatever the likelihood, so at Workers 4 over nt = 8
// — a shape the time dimension could split in two — both a count and a
// Gaussian model plan four cores and batch four line-search candidates.
func TestCountPlanHasOnePartition(t *testing.T) {
	for _, lik := range []model.LikelihoodKind{model.LikPoisson, model.LikGaussian} {
		ds, err := synth.Generate(synth.GenConfig{
			Nv: 1, Nt: 8, Nr: 1, MeshNx: 4, MeshNy: 3, ObsPerStep: 10, Seed: 5, Family: lik,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5), Workers: 4}
		if p := e.StencilPlan(1); p.Cores != 4 {
			t.Fatalf("%v: width-1 plan %+v, want 4 cores", lik, p)
		}
		if k := lineSearchWidth(e); k != 4 {
			t.Fatalf("%v: line search batches %d candidates, want 4", lik, k)
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
