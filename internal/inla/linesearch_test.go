package inla

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// lineEvaluator wraps an evaluator with a synthetic plan of k cores (so
// Minimize's line search evaluates k candidates per round), and records a
// copy of every batch.
type lineEvaluator struct {
	Evaluator
	k       int
	batches [][][]float64
}

func (e *lineEvaluator) StencilPlan(width int) SharedPlan {
	return SharedPlan{Cores: e.k}
}

func (e *lineEvaluator) EvalBatch(points [][]float64) []float64 {
	cp := make([][]float64, len(points))
	for i, p := range points {
		cp[i] = append([]float64(nil), p...)
	}
	e.batches = append(e.batches, cp)
	return e.Evaluator.EvalBatch(points)
}

// halvingEvaluator is F(θ) = −θ on a line, where the first line search from
// θ = 0 (direction +1) needs exactly m halvings: every candidate step 2^−j
// with j < m fails the Armijo test (+Inf for j < 2, F(0) + 1 after), and the
// candidate 2^−(m+1) past the accepted one is +Inf. The gradient stencils
// never land on a power of two, so they see the plain line.
type halvingEvaluator struct{ m int }

func (e *halvingEvaluator) value(x float64) float64 {
	frac, exp := math.Frexp(x)
	if frac != 0.5 {
		return -x
	}
	switch j := 1 - exp; { // x = 2^−j
	case j == e.m+1 || j < min(e.m, 2):
		return math.Inf(1)
	case j < e.m:
		return 1
	}
	return -x
}

func (e *halvingEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = e.value(p[0])
	}
	return out
}

// TestBatchedLineSearchAcceptsSequentialStep: whatever the round width k,
// the batched line search accepts the step one-at-a-time backtracking
// accepts, steps over a +Inf candidate before it, discards one after it,
// and spends ⌈(m+1)/k⌉·k evaluations.
func TestBatchedLineSearchAcceptsSequentialStep(t *testing.T) {
	opt := DefaultOptOptions()
	opt.MaxIter = 1
	opt.GradTol = 0
	for _, m := range []int{0, 1, 6, 7} {
		for _, k := range []int{1, 2, 3, 8} {
			e := &lineEvaluator{Evaluator: &halvingEvaluator{m: m}, k: k}
			res, err := Minimize(e, []float64{0}, opt)
			if err != nil {
				t.Fatalf("m=%d k=%d: %v", m, k, err)
			}
			step := math.Ldexp(1, -m)
			if res.Theta[0] != step || res.F != -step {
				t.Fatalf("m=%d k=%d: accepted θ = %v with F = %v, want step %v", m, k, res.Theta[0], res.F, step)
			}
			rounds := e.batches[1 : len(e.batches)-1]
			cands := 0
			for _, b := range rounds {
				if len(b) > k {
					t.Fatalf("m=%d k=%d: a line-search round of %d candidates", m, k, len(b))
				}
				cands += len(b)
			}
			if want := (m + k) / k * k; cands != want {
				t.Fatalf("m=%d k=%d: %d candidates evaluated, want ⌈(m+1)/k⌉·k = %d", m, k, cands, want)
			}
			if res.FEvals != 3+cands+2 {
				t.Fatalf("m=%d k=%d: FEvals = %d, want 3 + %d + 2", m, k, res.FEvals, cands)
			}
		}
	}
}

// TestBatchedLineSearchStopsAtStepTol: no candidate below StepTol is
// generated, so a failing search evaluates the same steps at every k.
func TestBatchedLineSearchStopsAtStepTol(t *testing.T) {
	opt := DefaultOptOptions()
	opt.StepTol = math.Ldexp(1, -5)
	for _, k := range []int{1, 2, 3, 8} {
		e := &lineEvaluator{Evaluator: &halvingEvaluator{m: 40}, k: k}
		res, err := Minimize(e, []float64{0}, opt)
		if !errors.Is(err, ErrLineSearchFailed) {
			t.Fatalf("k=%d: want ErrLineSearchFailed, got %v", k, err)
		}
		cands := 0
		for _, b := range e.batches[1:] {
			for _, p := range b {
				if p[0] < opt.StepTol {
					t.Fatalf("k=%d: candidate %v below StepTol %v", k, p[0], opt.StepTol)
				}
			}
			cands += len(b)
		}
		if cands != 6 || res.FEvals != 3+6 || res.Theta[0] != 0 {
			t.Fatalf("k=%d: %d candidates, FEvals %d, θ %v; want steps 1 … 1/32 and θ = 0", k, cands, res.FEvals, res.Theta[0])
		}
	}
}

// TestMinimizeNeverReevaluatesAPoint: the accepted candidate's value is F
// at the new iterate, so a search run to convergence evaluates no θ twice
// and spends (2d+1) + Σ candidates + 2d per later gradient.
func TestMinimizeNeverReevaluatesAPoint(t *testing.T) {
	q, c := quadProblem(3)
	const d = 3
	for _, k := range []int{1, 3} {
		e := &lineEvaluator{Evaluator: &quadEvaluator{q: q, c: c}, k: k}
		res, err := Minimize(e, make([]float64, d), DefaultOptOptions())
		if err != nil || !res.Converged {
			t.Fatalf("k=%d: converged %v, err %v", k, res.Converged, err)
		}
		seen := make(map[string]bool)
		cands, grads := 0, 0
		for i, b := range e.batches {
			for _, p := range b {
				key := fmt.Sprint(p)
				if seen[key] {
					t.Fatalf("k=%d: θ = %s evaluated twice", k, key)
				}
				seen[key] = true
			}
			switch {
			case i == 0:
				if len(b) != 2*d+1 {
					t.Fatalf("k=%d: first gradient batch of %d points, want 2d+1", k, len(b))
				}
			case len(b) == 2*d:
				grads++
			case len(b) <= k:
				cands += len(b)
			default:
				t.Fatalf("k=%d: unexpected batch of %d points", k, len(b))
			}
		}
		if lines := len(res.Trace) - 1; grads != lines {
			t.Fatalf("k=%d: %d gradients of 2d arms after %d line searches", k, grads, lines)
		}
		if want := 2*d + 1 + cands + 2*d*grads; res.FEvals != want {
			t.Fatalf("k=%d: FEvals = %d, want (2d+1) + %d + 2d·%d = %d", k, res.FEvals, cands, grads, want)
		}
	}
}

// planless hides an evaluator's StencilPlan, so Minimize's line search
// falls back to one candidate per round.
type planless struct{ Evaluator }

// TestBatchedLineSearchBitIdenticalOnBenchmarkShapes: every evaluation
// runs on a sequential factor at any core budget, so the batched line
// search walks the one-at-a-time path exactly — θ, F, the trace and the
// iteration count bit for bit, after one iteration and after 15, at
// Workers 2, 4 and 8 against the one-at-a-time search at Workers 1 (which
// is Workers 1's own path), on the benchmark shapes. Batching k = Workers
// candidates spends at most k − 1 speculative evaluations per line search.
func TestBatchedLineSearchBitIdenticalOnBenchmarkShapes(t *testing.T) {
	ex := sched.New(8)
	defer ex.Close()
	for name, gen := range benchmarkShapes(t) {
		ds, err := synth.Generate(gen)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prior := WeakPrior(ds.Theta0, 5)
		for _, k := range []int{1, 15} {
			opt := DefaultOptOptions()
			opt.MaxIter = k
			opt.GradTol = 0
			want, wantErr := Minimize(planless{&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 1, exec: ex}}, ds.Theta0, opt)
			for _, workers := range []int{2, 4, 8} {
				e := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: workers, exec: ex}
				if w := lineSearchWidth(e); w != workers {
					t.Fatalf("%s: line-search width %d at Workers %d", name, w, workers)
				}
				got, gotErr := Minimize(e, ds.Theta0, opt)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s K=%d Workers %d: error %v, one-at-a-time %v", name, k, workers, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got.Theta, want.Theta) || got.F != want.F ||
					!reflect.DeepEqual(got.Trace, want.Trace) || got.Iterations != want.Iterations {
					t.Fatalf("%s K=%d Workers %d: θ %v F %v trace %v (%d it), one-at-a-time θ %v F %v trace %v (%d it)",
						name, k, workers, got.Theta, got.F, got.Trace, got.Iterations, want.Theta, want.F, want.Trace, want.Iterations)
				}
				if got.FEvals > want.FEvals+(workers-1)*got.Iterations {
					t.Fatalf("%s K=%d Workers %d: %d evaluations, one-at-a-time %d: more than %d speculative candidates per line search",
						name, k, workers, got.FEvals, want.FEvals, workers-1)
				}
			}
		}
	}
}

// TestBatchedLineSearchPartitionedCandidates: at 8 cores and nt = 20 the
// time dimension could be split in up to five partitions, but every
// candidate of a round of 8 runs on a sequential factor, as the width-1
// probe does; the search run to convergence reaches the one-at-a-time
// search's mode in as many iterations, θ and F bit for bit.
func TestBatchedLineSearchPartitionedCandidates(t *testing.T) {
	ex := sched.New(8)
	defer ex.Close()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 20, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       31,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	e := &BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 8, exec: ex}
	if k := lineSearchWidth(e); k != 8 {
		t.Fatalf("line-search width %d at Workers 8, want 8", k)
	}
	got, err := Minimize(e, ds.Theta0, DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Minimize(planless{&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 1, exec: ex}}, ds.Theta0, DefaultOptOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%d iterations, one-at-a-time %d", got.Iterations, want.Iterations)
	}
	if !reflect.DeepEqual(got.Theta, want.Theta) || got.F != want.F {
		t.Fatalf("θ* %v F %v, one-at-a-time θ* %v F %v", got.Theta, got.F, want.Theta, want.F)
	}
}

// batchCounter counts the batches a BTAEvaluator runs; embedding forwards
// StencilPlan, so Minimize sizes its line search as it does for Fit.
type batchCounter struct {
	*BTAEvaluator
	batches int
}

func (e *batchCounter) EvalBatch(points [][]float64) []float64 {
	e.batches++
	return e.BTAEvaluator.EvalBatch(points)
}

// BenchmarkMinimizeOneIteration times one BFGS iteration (K = 1 with the
// gradient test disabled, the end-to-end benchmark's recipe) on the
// evaluator Fit builds at the fit_uni_gauss and fit_tri_gauss shapes, and
// reports the evaluations and line-search rounds it spends.
func BenchmarkMinimizeOneIteration(b *testing.B) {
	for _, name := range []string{"fit_uni_gauss", "fit_tri_gauss"} {
		b.Run(name, func(b *testing.B) {
			ds, err := synth.Generate(benchmarkShapes(b)[name])
			if err != nil {
				b.Fatal(err)
			}
			e := &batchCounter{BTAEvaluator: &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5)}}
			opt := DefaultOptOptions()
			opt.MaxIter = 1
			opt.GradTol = 0
			evals := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Minimize(e, ds.Theta0, opt)
				if err != nil {
					b.Fatal(err)
				}
				evals += res.FEvals
			}
			// Every batch but the two gradient stencils (θ₀ and θ₁; the
			// stencils are finite at these shapes, so none is retried) is a
			// line-search round.
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
			b.ReportMetric(float64(e.batches-2*b.N)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkMinimizeOneIterationPoisson is BenchmarkMinimizeOneIteration at
// the fit_bi_poisson shape, where every evaluation runs the inner Newton
// loop; it also reports the Newton steps per evaluation, mode solves of
// stencil centres included.
func BenchmarkMinimizeOneIterationPoisson(b *testing.B) {
	ds, err := synth.Generate(benchmarkShapes(b)["fit_bi_poisson"])
	if err != nil {
		b.Fatal(err)
	}
	e := &batchCounter{BTAEvaluator: &BTAEvaluator{Model: ds.Model, Prior: WeakPrior(ds.Theta0, 5)}}
	opt := DefaultOptOptions()
	opt.MaxIter = 1
	opt.GradTol = 0
	evals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Minimize(e, ds.Theta0, opt)
		if err != nil {
			b.Fatal(err)
		}
		evals += res.FEvals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(e.batches-2*b.N)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(e.newtonSteps.Load())/float64(evals), "newton_steps/eval")
}
