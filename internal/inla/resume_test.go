package inla

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// genSeeded mirrors genSmall with an explicit seed for the equivalence grid.
func genSeeded(t *testing.T, nv int, seed int64) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: nv, Nt: 3, Nr: 2,
		MeshNx: 4, MeshNy: 4,
		ObsPerStep: 25,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestResumeMatchesUninterrupted pins the crash-recovery contract of the
// optimizer checkpoint: a fit killed mid-search and resumed from its last
// checkpoint must reach the same θ mode as the uninterrupted fit — the
// resumed continuation evaluates exactly the points the uninterrupted run
// would have, so the iterates agree to floating-point noise.
func TestResumeMatchesUninterrupted(t *testing.T) {
	for _, nv := range []int{1, 2} {
		for _, seed := range []int64{7, 11, 23} {
			nv, seed := nv, seed
			t.Run(name2("nv", nv, "seed", int(seed)), func(t *testing.T) {
				t.Parallel()
				ds := genSeeded(t, nv, seed)
				prior := WeakPrior(ds.Theta0, 5)
				mkOpts := func() OptOptions {
					o := DefaultOptOptions()
					o.MaxIter = 8
					return o
				}

				// Uninterrupted reference run.
				eRef := &BTAEvaluator{Model: ds.Model, Prior: prior}
				ref, err := Minimize(eRef, ds.Theta0, mkOpts())
				if err != nil && !errors.Is(err, ErrLineSearchFailed) {
					t.Fatal(err)
				}

				// Interrupted run: capture a checkpoint every iteration and
				// abort the search via context once the third completes —
				// the moral equivalent of a SIGKILL whose last durable state
				// is the iteration-3 checkpoint.
				const killAfter = 3
				var last *OptCheckpoint
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				interrupted := mkOpts()
				interrupted.Ctx = ctx
				interrupted.Checkpoint = func(ck *OptCheckpoint) error {
					last = ck
					if ck.Iter >= killAfter {
						cancel()
					}
					return nil
				}
				eInt := &BTAEvaluator{Model: ds.Model, Prior: prior}
				if _, err := Minimize(eInt, ds.Theta0, interrupted); !errors.Is(err, ErrFitCanceled) {
					t.Fatalf("want ErrFitCanceled, got %v", err)
				}
				if last == nil || last.Iter < killAfter {
					t.Fatalf("no checkpoint at iteration %d (last=%+v)", killAfter, last)
				}

				// Round-trip the checkpoint through the wire format, as the
				// store does, then resume from the decoded copy.
				decoded, err := UnmarshalOptCheckpoint(MarshalOptCheckpoint(last))
				if err != nil {
					t.Fatal(err)
				}
				resumed := mkOpts()
				resumed.Resume = decoded
				eRes := &BTAEvaluator{Model: ds.Model, Prior: prior}
				got, err := Minimize(eRes, ds.Theta0, resumed)
				if err != nil && !errors.Is(err, ErrLineSearchFailed) {
					t.Fatal(err)
				}

				if got.Converged != ref.Converged {
					t.Fatalf("converged: resumed %v, uninterrupted %v", got.Converged, ref.Converged)
				}
				if got.Iterations != ref.Iterations {
					t.Fatalf("iterations: resumed %d, uninterrupted %d", got.Iterations, ref.Iterations)
				}
				for i := range ref.Theta {
					if d := math.Abs(got.Theta[i] - ref.Theta[i]); d > 1e-8 {
						t.Fatalf("θ[%d]: resumed %v vs uninterrupted %v (|Δ|=%.3g)",
							i, got.Theta[i], ref.Theta[i], d)
					}
				}
				if d := math.Abs(got.F - ref.F); d > 1e-8 {
					t.Fatalf("F: resumed %v vs uninterrupted %v", got.F, ref.F)
				}
				// Evaluation bookkeeping continues from the checkpoint, so
				// the total matches the uninterrupted run exactly.
				if got.FEvals != ref.FEvals {
					t.Fatalf("fevals: resumed %d, uninterrupted %d", got.FEvals, ref.FEvals)
				}
				if len(got.Trace) != len(ref.Trace) {
					t.Fatalf("trace length: resumed %d, uninterrupted %d", len(got.Trace), len(ref.Trace))
				}
			})
		}
	}
}

func name2(k1 string, v1 int, k2 string, v2 int) string {
	return k1 + "=" + itoa(v1) + "/" + k2 + "=" + itoa(v2)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestMinimizeCanceledBeforeStart: a context canceled before the first
// iteration aborts immediately with the initial iterate and still emits a
// resumable checkpoint at iteration 0.
func TestMinimizeCanceledBeforeStart(t *testing.T) {
	q := dense.Eye(2)
	e := &quadEvaluator{q: q, c: []float64{1, -1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptOptions()
	opts.Ctx = ctx
	var ck *OptCheckpoint
	opts.Checkpoint = func(c *OptCheckpoint) error { ck = c; return nil }
	res, err := Minimize(e, []float64{0, 0}, opts)
	if !errors.Is(err, ErrFitCanceled) {
		t.Fatalf("want ErrFitCanceled, got %v", err)
	}
	if res == nil || res.Theta[0] != 0 || res.Theta[1] != 0 {
		t.Fatalf("canceled search must return the initial iterate, got %+v", res)
	}
	if ck == nil || ck.Iter != 0 {
		t.Fatalf("want a final checkpoint at iteration 0, got %+v", ck)
	}
}

// TestFitCanceledPropagates: Opt.Ctx reaches the mode search and a
// canceled fit returns ErrFitCanceled without running the posterior stages.
func TestFitCanceledPropagates(t *testing.T) {
	ds := genSmall(t, 1)
	prior := WeakPrior(ds.Theta0, 5)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 10
	opts.Opt.Ctx = ctx
	opts.Checkpoint = func(ck *OptCheckpoint) error {
		if ck.Iter >= 1 {
			cancel()
		}
		return nil
	}
	if _, err := Fit(ds.Model, prior, ds.Theta0, opts); !errorsIsFitCanceled(err) {
		t.Fatalf("want ErrFitCanceled, got %v", err)
	}
}

func errorsIsFitCanceled(err error) bool { return errors.Is(err, ErrFitCanceled) }

// TestMinimizeResumeDimensionMismatch: a checkpoint of the wrong
// dimensionality is rejected up front instead of corrupting the search.
func TestMinimizeResumeDimensionMismatch(t *testing.T) {
	e := &quadEvaluator{q: dense.Eye(2), c: []float64{0, 0}}
	opts := DefaultOptOptions()
	opts.Resume = &OptCheckpoint{Theta: []float64{1}, Grad: []float64{0}}
	if _, err := Minimize(e, []float64{0, 0}, opts); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

// TestCheckpointEveryStride: CheckpointEvery=k emits every k completed
// iterations only.
func TestCheckpointEveryStride(t *testing.T) {
	q := dense.New(2, 2)
	q.Set(0, 0, 4)
	q.Set(1, 1, 1)
	e := &quadEvaluator{q: q, c: []float64{2, -3}}
	opts := DefaultOptOptions()
	opts.CheckpointEvery = 2
	var iters []int
	opts.Checkpoint = func(ck *OptCheckpoint) error { iters = append(iters, ck.Iter); return nil }
	if _, err := Minimize(e, []float64{0, 0}, opts); err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	for _, it := range iters {
		if it%2 != 0 {
			t.Fatalf("checkpoint at odd iteration %d with stride 2 (all: %v)", it, iters)
		}
	}
}

// TestFitCheckpointKeepsOptStride: FitOptions.Checkpoint is forwarded to
// the mode search without touching Opt.CheckpointEvery, so a fit with
// stride 2 emits at even iterations only.
func TestFitCheckpointKeepsOptStride(t *testing.T) {
	ds := genSmall(t, 1)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 6
	opts.Opt.CheckpointEvery = 2
	opts.SkipHyperUncertainty = true
	var iters []int
	opts.Checkpoint = func(ck *OptCheckpoint) error { iters = append(iters, ck.Iter); return nil }
	if _, err := Fit(ds.Model, WeakPrior(ds.Theta0, 5), ds.Theta0, opts); err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	for _, it := range iters {
		if it%2 != 0 {
			t.Fatalf("checkpoint at odd iteration %d with stride 2 (all: %v)", it, iters)
		}
	}
}

// TestCheckpointErrorStopsSearch: a failing Checkpoint callback aborts the
// search with the callback's error attached.
func TestCheckpointErrorStopsSearch(t *testing.T) {
	e := &quadEvaluator{q: dense.Eye(2), c: []float64{5, 5}}
	opts := DefaultOptOptions()
	wantErr := errors.New("disk full")
	opts.Checkpoint = func(*OptCheckpoint) error { return wantErr }
	res, err := Minimize(e, []float64{0, 0}, opts)
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("want checkpoint error, got %v", err)
	}
	if res == nil {
		t.Fatal("failed checkpoint must still return the current iterate")
	}
}

// codecResultFixtures are the Result codec's round-trip fixtures: one with
// every optional section, one with none, and one with only the optimizer
// section.
func codecResultFixtures() []*Result {
	cov := dense.New(2, 2)
	cov.Set(0, 0, 1.25)
	cov.Set(0, 1, -0.5)
	cov.Set(1, 0, -0.5)
	cov.Set(1, 1, 2.75)
	full := &Result{
		Theta:    []float64{1.5, -2.25},
		ThetaSD:  []float64{0.1, 0.2},
		ThetaCov: cov,
		Opt: &OptResult{
			Theta: []float64{1.5, -2.25}, F: -123.456,
			Iterations: 7, FEvals: 91,
			Trace:     []float64{-100, -110, -123.456},
			Converged: true,
		},
		Mu:        []float64{0.1, 0.2, 0.3, math.Pi},
		LatentVar: []float64{1, 2, 3, 4},
		Integrated: &IntegratedPosterior{
			Points:  [][]float64{{1, 2}, {3, 4}, {5, 6}},
			Weights: []float64{0.5, 0.25, 0.25},
			Mu:      []float64{9, 8, 7, 6},
			Var:     []float64{1, 1, 2, 2},
		},
	}
	return []*Result{
		full,
		{Theta: []float64{42}, Mu: []float64{1}, LatentVar: []float64{2}},
		{
			Theta: []float64{1, 2}, Mu: []float64{3, 4, 5}, LatentVar: []float64{6, 7, 8},
			Opt: &OptResult{Theta: []float64{1, 2}, F: -1, Iterations: 2, FEvals: 10,
				Trace: []float64{-0.5, -1}, Converged: true},
		},
	}
}

// TestResultCodecRoundTrip: MarshalResult/UnmarshalResult preserve every
// field bit-for-bit, including the optional sections.
func TestResultCodecRoundTrip(t *testing.T) {
	for _, r := range codecResultFixtures() {
		got, err := UnmarshalResult(MarshalResult(r))
		if err != nil {
			t.Fatal(err)
		}
		assertVecEq(t, "Theta", got.Theta, r.Theta)
		assertVecEq(t, "ThetaSD", got.ThetaSD, r.ThetaSD)
		assertVecEq(t, "Mu", got.Mu, r.Mu)
		assertVecEq(t, "LatentVar", got.LatentVar, r.LatentVar)
		if (got.ThetaCov == nil) != (r.ThetaCov == nil) {
			t.Fatalf("ThetaCov presence mismatch")
		}
		if r.ThetaCov != nil {
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					if got.ThetaCov.At(i, j) != r.ThetaCov.At(i, j) {
						t.Fatalf("ThetaCov[%d,%d] mismatch", i, j)
					}
				}
			}
		}
		if (got.Opt == nil) != (r.Opt == nil) {
			t.Fatal("Opt presence mismatch")
		}
		if r.Opt != nil {
			if got.Opt.F != r.Opt.F || got.Opt.Iterations != r.Opt.Iterations ||
				got.Opt.FEvals != r.Opt.FEvals || got.Opt.Converged != r.Opt.Converged {
				t.Fatalf("Opt scalar mismatch: %+v vs %+v", got.Opt, r.Opt)
			}
			assertVecEq(t, "Opt.Trace", got.Opt.Trace, r.Opt.Trace)
		}
		if (got.Integrated == nil) != (r.Integrated == nil) {
			t.Fatal("Integrated presence mismatch")
		}
		if r.Integrated != nil {
			if len(got.Integrated.Points) != len(r.Integrated.Points) {
				t.Fatal("Integrated.Points length mismatch")
			}
			assertVecEq(t, "Integrated.Weights", got.Integrated.Weights, r.Integrated.Weights)
			assertVecEq(t, "Integrated.Mu", got.Integrated.Mu, r.Integrated.Mu)
		}
	}
}

func assertVecEq(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v vs %v (bits differ)", name, i, got[i], want[i])
		}
	}
}

// TestResultCodecRejectsCorruption: every truncation of a valid encoding and
// a bad version byte are rejected, never silently misdecoded.
func TestResultCodecRejectsCorruption(t *testing.T) {
	r := codecResultFixtures()[2]
	enc := MarshalResult(r)
	for n := 0; n < len(enc); n++ {
		if _, err := UnmarshalResult(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(enc))
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := UnmarshalResult(bad); err == nil {
		t.Fatal("wrong version byte must be rejected")
	}
	if _, err := UnmarshalResult(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing garbage must be rejected")
	}
}

// codecCheckpointFixture is the OptCheckpoint codec's round-trip fixture.
func codecCheckpointFixture() *OptCheckpoint {
	h := dense.New(2, 2)
	h.Set(0, 0, 1.5)
	h.Set(0, 1, 0.25)
	h.Set(1, 0, 0.25)
	h.Set(1, 1, 0.75)
	return &OptCheckpoint{
		Theta: []float64{0.5, -0.5}, Grad: []float64{1e-3, -2e-3},
		F: -42.42, HInv: h, Iter: 5, FEvals: 37,
		Trace: []float64{-40, -41, -42.42},
	}
}

// TestOptCheckpointCodecRoundTrip: checkpoints round-trip bit-for-bit,
// including the inverse Hessian, and reject truncations.
func TestOptCheckpointCodecRoundTrip(t *testing.T) {
	ck := codecCheckpointFixture()
	enc := MarshalOptCheckpoint(ck)
	got, err := UnmarshalOptCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	assertVecEq(t, "Theta", got.Theta, ck.Theta)
	assertVecEq(t, "Grad", got.Grad, ck.Grad)
	assertVecEq(t, "Trace", got.Trace, ck.Trace)
	if got.F != ck.F || got.Iter != ck.Iter || got.FEvals != ck.FEvals {
		t.Fatalf("scalar mismatch: %+v", got)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.HInv.At(i, j) != ck.HInv.At(i, j) {
				t.Fatalf("HInv[%d,%d] mismatch", i, j)
			}
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := UnmarshalOptCheckpoint(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(enc))
		}
	}
}
