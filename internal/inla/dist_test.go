package inla

import (
	"errors"
	"math"
	"testing"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/synth"
)

func TestMakePlanFillsS1First(t *testing.T) {
	// 31 evals (trivariate), 8 workers, no memory pressure: 8 S1 groups of 1.
	p := MakePlan(8, 31, 1<<20, 0, 16, 0, 0, 1)
	if p.Groups != 8 {
		t.Fatalf("groups = %d, want 8", p.Groups)
	}
	if p.UseS2 {
		t.Fatal("size-1 groups cannot use S2")
	}
	// 62 workers: 31 groups of 2 → S2 on.
	p = MakePlan(62, 31, 1<<20, 0, 16, 0, 0, 1)
	if p.Groups != 31 || !p.UseS2 {
		t.Fatalf("plan %+v, want 31 groups with S2", p)
	}
	// 124 workers: 31 groups of 4 → S2 + S3 of width 2.
	p = MakePlan(124, 31, 1<<20, 0, 16, 0, 0, 1)
	if p.Groups != 31 || !p.UseS2 {
		t.Fatalf("plan %+v", p)
	}
}

func TestMakePlanMemoryCapForcesS3(t *testing.T) {
	// Matrix of 1 MiB with a 256 KiB cap: S3 width ≥ 4 before S1 widens.
	p := MakePlan(8, 31, 1<<20, 1<<18, 64, 0, 0, 1)
	if p.P3Min != 4 {
		t.Fatalf("P3Min = %d, want 4", p.P3Min)
	}
	if p.Groups != 2 { // 8 workers / 4 = 2 groups
		t.Fatalf("groups = %d, want 2", p.Groups)
	}
}

// TestMakePlanHybridMemoryModel: with the BTA shape known the per-node
// working set includes the fill-chain storage of the partitioned
// elimination, so the memory-forced S3 width grows beyond the slice-only
// model; and when even the widest rank count cannot fit the cap the planner
// sheds streams before giving up (ranks traded against streams).
func TestMakePlanHybridMemoryModel(t *testing.T) {
	// Slice-only model: 1 MiB at a 256 KiB cap forces width 4.
	flat := MakePlan(16, 31, 1<<20, 1<<18, 64, 0, 0, 1)
	if flat.P3Min != 4 {
		t.Fatalf("flat model P3Min = %d, want 4", flat.P3Min)
	}
	// Fill-chain-aware model (b=8, a=0: chains add b/(2b+a) = 50%).
	aware := MakePlan(16, 31, 1<<20, 1<<18, 64, 8, 0, 1)
	if aware.P3Min <= flat.P3Min {
		t.Fatalf("fill-chain model must force a wider S3: %d vs flat %d", aware.P3Min, flat.P3Min)
	}
	// The same footprint with streams: the per-node working set cannot be
	// relaxed by streams (they share the node's memory), so P3Min stays put
	// while the requested stream width survives under no pressure...
	roomy := MakePlan(16, 31, 1<<20, 0, 64, 8, 0, 4)
	if roomy.PartitionsPerRank != 4 {
		t.Fatalf("uncapped plan must keep the requested streams, got %d", roomy.PartitionsPerRank)
	}
	// ...but under a cap no rank width can absorb, streams are shed.
	// nt=64 bounds ranks at 33; make the per-stream scratch the binding
	// term with a tiny cap.
	tight := MakePlan(64, 31, 1<<20, 40<<10, 64, 16, 0, 8)
	if tight.PartitionsPerRank >= 8 {
		t.Fatalf("capped plan must shed streams, kept %d", tight.PartitionsPerRank)
	}
}

func TestMakePlanClampsToPartitionability(t *testing.T) {
	// nt = 4 supports at most 3 partitions; a huge memory demand must clamp.
	p := MakePlan(16, 9, 1<<30, 1<<10, 4, 0, 0, 1)
	if p.P3Min > 3 {
		t.Fatalf("P3Min = %d exceeds partitionability of nt=4", p.P3Min)
	}
}

func TestGroupOfContiguous(t *testing.T) {
	p := Plan{World: 7, Groups: 3, GroupSizes: []int{3, 2, 2}}
	want := []int{0, 0, 0, 1, 1, 2, 2}
	for r, g := range want {
		if p.GroupOf(r) != g {
			t.Fatalf("GroupOf(%d) = %d want %d", r, p.GroupOf(r), g)
		}
	}
}

func TestSpread(t *testing.T) {
	s := spread(10, 3)
	if s[0] != 4 || s[1] != 3 || s[2] != 3 {
		t.Fatalf("spread = %v", s)
	}
}

// distCase runs RunDistributed on a small dataset and cross-checks the
// gradient-batch objective values against the sequential evaluator.
func distCase(t *testing.T, world int, disableS2, disableS3 bool) {
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
	prior := WeakPrior(ds.Theta0, 5)
	rep, err := RunDistributed(ds.Model, prior, ds.Theta0, DistConfig{
		World:      world,
		Machine:    comm.DefaultMachine(),
		Iterations: 1,
		DisableS2:  disableS2,
		DisableS3:  disableS3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("makespan must be positive")
	}
	if len(rep.FTrace) != 1 {
		t.Fatalf("trace length %d", len(rep.FTrace))
	}
	// The distributed center-point objective must match the sequential one.
	e := &BTAEvaluator{Model: ds.Model, Prior: prior}
	want := e.EvalBatch([][]float64{ds.Theta0})[0]
	if math.Abs(rep.FTrace[0]-want) > 1e-12*(1+math.Abs(want)) {
		t.Fatalf("world=%d: distributed F = %v, sequential F = %v", world, rep.FTrace[0], want)
	}
}

// A stencil whose arms the model rejects (process scale e^300: both ±h arms
// of θ[2] are quarantined to +Inf while the centre evaluates) leaves the
// reduced gradient undefined; the run must stop with ErrGradientUndefined
// instead of stepping θ to NaN.
func TestRunDistributedRejectsUndefinedGradient(t *testing.T) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 6, Nr: 1, MeshNx: 3, MeshNy: 3, ObsPerStep: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	theta0 := append([]float64(nil), ds.Theta0...)
	theta0[2] = 300
	rep, err := RunDistributed(ds.Model, WeakPrior(ds.Theta0, 5), theta0,
		DistConfig{World: 6, Machine: comm.DefaultMachine(), Iterations: 2})
	if !errors.Is(err, ErrGradientUndefined) {
		t.Fatalf("err = %v, want ErrGradientUndefined", err)
	}
	if rep != nil {
		t.Fatalf("failed run returned a report with θ = %v", rep.Theta)
	}
}

func TestRunDistributedSingleRank(t *testing.T) { distCase(t, 1, false, false) }

// hybridCase runs RunDistributed with the two-level (ranks × partitions)
// S3 topology and cross-checks the gradient-batch objective against the
// sequential evaluator, exactly like distCase.
func hybridCase(t *testing.T, world, perRank int) {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 8, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	rep, err := RunDistributed(ds.Model, prior, ds.Theta0, DistConfig{
		World:             world,
		Machine:           comm.DefaultMachine(),
		Iterations:        1,
		PartitionsPerRank: perRank,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan.PartitionsPerRank != perRank {
		t.Fatalf("plan per-rank width %d, want %d", rep.Plan.PartitionsPerRank, perRank)
	}
	e := &BTAEvaluator{Model: ds.Model, Prior: prior}
	want := e.EvalBatch([][]float64{ds.Theta0})[0]
	if math.Abs(rep.FTrace[0]-want) > 1e-12*(1+math.Abs(want)) {
		t.Fatalf("world=%d q=%d: distributed F = %v, sequential F = %v", world, perRank, rep.FTrace[0], want)
	}
}

func TestRunDistributedHybrid2x2(t *testing.T) { hybridCase(t, 2, 2) }

func TestRunDistributedHybrid4x3(t *testing.T) { hybridCase(t, 4, 3) }

func TestRunDistributedHybrid1x4(t *testing.T) { hybridCase(t, 1, 4) }

// TestRunDistributedHybridFlatBitForBit pins the acceptance criterion: the
// two-level driver at PartitionsPerRank = 1 must reproduce the flat
// configuration (the zero-value DistConfig) bit for bit — same θ trace,
// same objective values.
func TestRunDistributedHybridFlatBitForBit(t *testing.T) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 6, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	run := func(perRank int) *DistReport {
		rep, err := RunDistributed(ds.Model, prior, ds.Theta0, DistConfig{
			World: 4, Machine: comm.DefaultMachine(), Iterations: 2,
			PartitionsPerRank: perRank,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	flat := run(0)
	one := run(1)
	for i := range flat.FTrace {
		if one.FTrace[i] != flat.FTrace[i] {
			t.Fatalf("iteration %d: F %v (partitions=1) != %v (flat)", i, one.FTrace[i], flat.FTrace[i])
		}
	}
	for i := range flat.Theta {
		if one.Theta[i] != flat.Theta[i] {
			t.Fatalf("theta[%d]: %v (partitions=1) != %v (flat)", i, one.Theta[i], flat.Theta[i])
		}
	}
}

// TestMakePlanPerRank: the per-node stream width is recorded, defaulted,
// and clamped to what the time dimension can absorb.
func TestMakePlanPerRank(t *testing.T) {
	p := MakePlan(8, 31, 1<<20, 0, 16, 0, 0, 0)
	if p.PartitionsPerRank != 1 {
		t.Fatalf("default per-rank width %d, want 1", p.PartitionsPerRank)
	}
	p = MakePlan(8, 31, 1<<20, 0, 64, 0, 0, 4)
	if p.PartitionsPerRank != 4 {
		t.Fatalf("per-rank width %d, want 4", p.PartitionsPerRank)
	}
	// nt = 4 supports at most 3 partitions in total.
	p = MakePlan(8, 31, 1<<20, 0, 4, 0, 0, 16)
	if p.PartitionsPerRank > 3 {
		t.Fatalf("per-rank width %d exceeds partitionability of nt=4", p.PartitionsPerRank)
	}
}

func TestRunDistributedS1Only(t *testing.T) { distCase(t, 3, true, true) }

func TestRunDistributedS1S2(t *testing.T) { distCase(t, 4, false, true) }

func TestRunDistributedS1S2S3(t *testing.T) { distCase(t, 8, false, false) }

func TestRunDistributedWideS3(t *testing.T) { distCase(t, 6, true, false) }

func TestRunDistributedScalingImproves(t *testing.T) {
	// S1 is embarrassingly parallel: at world = nfeval = 9 every rank is its
	// own group evaluating one stencil point.
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 8, Nr: 1,
		MeshNx: 8, MeshNy: 7,
		ObsPerStep: 30,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunDistributed(ds.Model, WeakPrior(ds.Theta0, 5), ds.Theta0, DistConfig{
		World: 9, Machine: comm.DefaultMachine(), Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Virtual time is charged from measured wall time, so compare within
	// this one run only: every rank computes, and the critical path (one
	// point plus communication) is shorter than the nine points summed over
	// the ranks — which a slow host episode stretches on both sides of the
	// inequality.
	if rep.Plan.Groups != 9 {
		t.Fatalf("plan %+v: want 9 S1 groups at world 9", rep.Plan)
	}
	for r, rs := range rep.Stats.Ranks {
		if rs.ComputeSeconds <= 0 {
			t.Fatalf("rank %d charged no compute time", r)
		}
	}
	if total := rep.Stats.TotalCompute(); rep.Makespan >= total {
		t.Fatalf("makespan %v s not below the %v s of compute summed over 9 ranks", rep.Makespan, total)
	}
}

// TestPlanStreamLayoutSpreads pins the SpreadStreams planner policy: when
// the time dimension cannot absorb the uniform ranks × PartitionsPerRank
// grid, the layout spreads the widest partitionable total unevenly across
// the ranks instead of shedding a stream from every rank.
func TestPlanStreamLayoutSpreads(t *testing.T) {
	// nt=10 absorbs at most 6 partitions; 4 ranks × 2 streams would need 8.
	p := Plan{GroupSizes: []int{4}, PartitionsPerRank: 2}
	got := p.StreamLayout(10)
	want := []int{2, 2, 1, 1}
	if len(got) != len(want) {
		t.Fatalf("layout %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("layout %v, want %v", got, want)
		}
	}
	// A grid the time dimension absorbs stays uniform.
	got = Plan{GroupSizes: []int{4}, PartitionsPerRank: 2}.StreamLayout(16)
	for _, q := range got {
		if q != 2 {
			t.Fatalf("uniform layout %v, want [2 2 2 2]", got)
		}
	}
}

// TestRunDistributedSpreadStreams drives the unequal stream layout end to
// end: 12 workers over 9 evals leave S1 groups of 2 ranks, whose 2 ranks ×
// 4 streams exceed what nt=10 absorbs — the evaluation runs the [3,3]
// spread layout and must still reproduce the sequential objective.
func TestRunDistributedSpreadStreams(t *testing.T) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 10, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	rep, err := RunDistributed(ds.Model, prior, ds.Theta0, DistConfig{
		World:             12,
		Machine:           comm.DefaultMachine(),
		Iterations:        1,
		PartitionsPerRank: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &BTAEvaluator{Model: ds.Model, Prior: prior}
	want := e.EvalBatch([][]float64{ds.Theta0})[0]
	if math.Abs(rep.FTrace[0]-want) > 1e-12*(1+math.Abs(want)) {
		t.Fatalf("spread layout: distributed F = %v, sequential F = %v", rep.FTrace[0], want)
	}
}
