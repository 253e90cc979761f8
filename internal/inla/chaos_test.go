package inla

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// chaosDataset is the small spatio-temporal problem the fault-injection
// tests fit — the same shape distCase uses, so the fault-free behaviour is
// already pinned elsewhere.
func chaosDataset(t *testing.T) (*synth.Dataset, Prior) {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 6, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, WeakPrior(ds.Theta0, 5)
}

// With one rank killed mid-exchange and messages randomly delayed, the
// distributed fit shrinks onto the survivors, retries the interrupted
// iteration, and lands on the fault-free θ — collectives are
// all-or-nothing, so every survivor retries from the same state, and the
// shrunken replan changes only the schedule, not the arithmetic (beyond
// reduction-order noise far below the 1e-8 tolerance). World 36 is 9 S1
// groups of 4, so every evaluation runs a four-rank S3 solver that
// exchanges point-to-point messages.
func TestChaosDistributedFitMatchesFaultFree(t *testing.T) {
	ds, prior := chaosDataset(t)
	base := DistConfig{World: 36, Machine: comm.DefaultMachine(), Iterations: 3}

	ref, err := RunDistributed(ds.Model, prior, ds.Theta0, base)
	if err != nil {
		t.Fatal(err)
	}
	// Counted after the fault-free run, which starts the shared executor's
	// workers: what the faulty runs leave behind on top of them leaked.
	goroutines := runtime.NumGoroutine()
	if ref.Shrinks != 0 || ref.Survivors != 36 {
		t.Fatalf("fault-free run reported shrinks=%d survivors=%d", ref.Shrinks, ref.Survivors)
	}
	if !slices.Equal(ref.Plan.GroupSizes, groups(9, 4)) {
		t.Fatalf("plan %+v, want 9 S1 groups of 4", ref.Plan)
	}
	sameTheta := func(label string, rep *DistReport) {
		t.Helper()
		for i := range ref.Opt.Theta {
			if d := math.Abs(rep.Opt.Theta[i] - ref.Opt.Theta[i]); d > 1e-8 {
				t.Fatalf("%s: theta[%d] = %v vs fault-free %v (|Δ| = %.3g > 1e-8)",
					label, i, rep.Opt.Theta[i], ref.Opt.Theta[i], d)
			}
		}
	}

	// Delays move virtual time only: a 1 s delay on a fifth of the messages
	// holds some receiver up, and the iteration's closing world barrier
	// passes that on to the makespan.
	delays := comm.FaultPlan{Seed: 11, DelayProb: 0.2, DelaySeconds: 1}
	delayed := base
	delayed.Faults = &delays
	rep, err := RunDistributed(ds.Model, prior, ds.Theta0, delayed)
	if err != nil {
		t.Fatal(err)
	}
	sameTheta("delayed", rep)
	if rep.Makespan < ref.Makespan+delays.DelaySeconds/2 {
		t.Fatalf("delayed makespan %.4gs, fault-free %.4gs: the delays touched no message",
			rep.Makespan, ref.Makespan)
	}

	faulty := delayed
	faulty.Faults = &comm.FaultPlan{
		Seed: delays.Seed, DelayProb: delays.DelayProb, DelaySeconds: delays.DelaySeconds,
		// Rank 5 dies at its 6th communication operation: past the setup
		// Split and the elimination's success vote, a send of a boundary
		// block to the reduced system in its four-rank S3 solver's PPOBTAF,
		// in the first gradient batch.
		Kill: map[int]int{5: 6},
	}
	rep, err = RunDistributed(ds.Model, prior, ds.Theta0, faulty)
	if err != nil {
		t.Fatalf("faulty run failed instead of recovering: %v", err)
	}
	if len(rep.Stats.Killed) != 1 || rep.Stats.Killed[0] != 5 {
		t.Fatalf("Stats.Killed = %v, want [5]", rep.Stats.Killed)
	}
	if rep.Shrinks != 1 {
		t.Fatalf("Shrinks = %d, want 1", rep.Shrinks)
	}
	if rep.Survivors != 35 {
		t.Fatalf("Survivors = %d, want 35", rep.Survivors)
	}
	if rep.Opt.Iterations != base.Iterations {
		t.Fatalf("%d iterations, want %d (every iteration must commit)", rep.Opt.Iterations, base.Iterations)
	}
	sameTheta("faulty", rep)
	// The wounded world must be fully torn down: no rank goroutines survive.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("goroutines leaked: %d before, %d after", goroutines, n)
	}
}

// The shrink budget is honoured: with recoveries disabled by MaxShrinks the
// same scheduled kill must surface as a typed, retryable error instead of a
// hang or a panic. (MaxShrinks = -1 is the explicit "no recoveries" setting;
// 0 keeps the World−1 default.)
func TestChaosShrinkBudgetExhausted(t *testing.T) {
	ds, prior := chaosDataset(t)
	cfg := DistConfig{
		World: 4, Machine: comm.DefaultMachine(), Iterations: 2,
		Faults:     &comm.FaultPlan{Kill: map[int]int{2: 5}},
		MaxShrinks: -1,
	}
	_, err := RunDistributed(ds.Model, prior, ds.Theta0, cfg)
	if err == nil {
		t.Fatal("exhausted shrink budget must fail the run")
	}
	if !comm.Retryable(err) {
		t.Fatalf("budget-exhaustion error should wrap the retryable fault, got: %v", err)
	}
}

// A θ evaluation that dies inside the solver is quarantined — +Inf for the
// point, structured EvalError on the evaluator — rather than crashing the
// batch or poisoning its neighbours.
func TestEvalBatchQuarantinesFailedPoint(t *testing.T) {
	ds, prior := chaosDataset(t)
	e := &BTAEvaluator{Model: ds.Model, Prior: prior}
	bad := append([]float64(nil), ds.Theta0...)
	bad[0] = math.NaN()
	vals := e.EvalBatch([][]float64{ds.Theta0, bad})
	if !isFinite(vals[0]) {
		t.Fatalf("healthy point poisoned by its neighbour: %v", vals[0])
	}
	if !math.IsInf(vals[1], 1) {
		t.Fatalf("failed point = %v, want +Inf", vals[1])
	}
	if e.EvalFailures() < 1 {
		t.Fatalf("EvalFailures = %d, want ≥ 1", e.EvalFailures())
	}
	ee := e.LastEvalError()
	if ee == nil {
		t.Fatal("LastEvalError = nil after a quarantined evaluation")
	}
	if len(ee.Theta) != len(bad) || !math.IsNaN(ee.Theta[0]) {
		t.Fatalf("EvalError does not record the failing point: %+v", ee)
	}
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
