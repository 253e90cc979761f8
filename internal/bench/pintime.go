package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// PintimeResult is one measured point of the parallel-in-time experiment.
type PintimeResult struct {
	// Kind is "evalbatch1" (a full width-1 EvalBatch: assembly + closed-form
	// prior + Q_c factorization + solve), "factor" (Refactorize + Solve +
	// LogDet on Q_c), or "selinv" (SelectedInversionInto on the factor).
	Kind string
	// Partitions is the parallel-in-time width the point ran at.
	Partitions int
	Seconds    float64 // latency per operation
	PerSec     float64
	// Speedup is relative to the same kind's partitions=1 row.
	Speedup float64
}

// PintimeReport is the parallel-in-time measurement: single-evaluation
// latency and selected-inversion throughput of the shared-memory PPOBTAF
// engine versus the sequential chain. NumCPU records the hardware
// parallelism the numbers were taken at — speedups are only meaningful
// when it matches or exceeds the partition width (a 1-core host measures
// scheduling overhead, not parallel speedup).
type PintimeReport struct {
	GoMaxProcs int
	NumCPU     int
	Nt         int
	BlockSize  int
	ArrowSize  int
	Results    []PintimeResult
}

// pintimeParts is the fixed partition sweep of the factor-level rows.
var pintimeParts = []int{1, 2, 4}

// Pintime measures the parallel-in-time BTA engine on a time-deep
// trivariate model (nt = 64, b = 90): width-1 EvalBatch latency on the
// sequential path versus the width-1 scheduling plan, then the raw
// factorization and selected-inversion rates across partition counts.
// quick trims repetitions, not the grid.
func Pintime(quick bool) (*PintimeReport, error) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 3, Nt: 64, Nr: 2,
		MeshNx: 6, MeshNy: 5,
		ObsPerStep: 40,
		Seed:       23,
	})
	if err != nil {
		return nil, err
	}
	m := ds.Model
	n, b, a := m.Dims.BTAShape()
	out := &PintimeReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Nt:         n, BlockSize: b, ArrowSize: a,
	}
	reps := 5
	if quick {
		reps = 2
	}
	prior := inla.WeakPrior(ds.Theta0, 5)
	point := [][]float64{ds.Theta0}

	// Width-1 EvalBatch: the line-search / posterior latency wall. The
	// sequential row pins Partitions=1; the planned row lets the width-1
	// scheduling plan spend the spare cores inside the factorization.
	plan := inla.PlanBatch(1, 0, n, true)
	var seqEval float64
	for _, partitions := range []int{1, plan.Partitions} {
		e := &inla.BTAEvaluator{Model: m, Prior: prior, S2: true, Partitions: partitions}
		e.EvalBatch(point) // warm the scratch pool
		secs := timeIt(reps, func() { e.EvalBatch(point) })
		r := PintimeResult{Kind: "evalbatch1", Partitions: partitions,
			Seconds: secs, PerSec: 1 / secs}
		if partitions == 1 {
			seqEval = secs
		} else if seqEval > 0 {
			r.Speedup = seqEval / secs
		}
		out.Results = append(out.Results, r)
		if partitions == 1 && plan.Partitions == 1 {
			// Single-core plan: the rows coincide; keep one.
			break
		}
	}

	// Factor-level rows: Refactorize + Solve + LogDet, and the selected
	// inversion, across the partition sweep on Q_c(θ0).
	th, err := m.DecodeTheta(ds.Theta0)
	if err != nil {
		return nil, err
	}
	qc, err := m.Qc(th)
	if err != nil {
		return nil, err
	}
	rhs0 := make([]float64, qc.Dim())
	for i := range rhs0 {
		rhs0[i] = float64(i%7) - 3
	}
	rhs := make([]float64, len(rhs0))
	sig := bta.NewMatrix(n, b, a)
	var seqFactor, seqSelinv float64
	for _, p := range pintimeParts {
		// Mirror NewSolver's clamp: a width it would silently reduce must
		// not be reported under the requested label.
		if p > bta.MaxUsefulPartitions(n) {
			continue
		}
		s, err := bta.NewSolver(n, b, a, p)
		if err != nil {
			return nil, err
		}
		if err := s.Refactorize(qc); err != nil {
			return nil, err
		}
		if err := s.SelectedInversionInto(sig); err != nil {
			return nil, err
		}
		secs := timeIt(reps, func() {
			if err := s.Refactorize(qc); err != nil {
				panic(err)
			}
			copy(rhs, rhs0)
			s.Solve(rhs)
			_ = s.LogDet()
		})
		r := PintimeResult{Kind: "factor", Partitions: p, Seconds: secs, PerSec: 1 / secs}
		if p == 1 {
			seqFactor = secs
		} else {
			r.Speedup = seqFactor / secs
		}
		out.Results = append(out.Results, r)

		secs = timeIt(reps, func() {
			if err := s.SelectedInversionInto(sig); err != nil {
				panic(err)
			}
		})
		r = PintimeResult{Kind: "selinv", Partitions: p, Seconds: secs, PerSec: 1 / secs}
		if p == 1 {
			seqSelinv = secs
		} else {
			r.Speedup = seqSelinv / secs
		}
		out.Results = append(out.Results, r)
	}
	return out, nil
}

// PrintPintime renders the parallel-in-time table.
func PrintPintime(b *PintimeReport, w io.Writer) {
	fmt.Fprintf(w, "  parallel-in-time BTA engine (nt=%d, b=%d, a=%d, GOMAXPROCS=%d, %d hardware CPUs)\n",
		b.Nt, b.BlockSize, b.ArrowSize, b.GoMaxProcs, b.NumCPU)
	if b.NumCPU < 2 {
		fmt.Fprintf(w, "  note: single hardware CPU — partition rows measure scheduling overhead, not speedup\n")
	}
	fmt.Fprintf(w, "  %-12s %10s %12s %10s %8s\n", "kind", "partitions", "latency", "ops/s", "speedup")
	for _, r := range b.Results {
		sp := "-"
		if r.Speedup > 0 {
			sp = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(w, "  %-12s %10d %12s %10.1f %8s\n",
			r.Kind, r.Partitions, fmtDuration(r.Seconds), r.PerSec, sp)
	}
}

// timeIt runs fn reps times and returns the best wall time in seconds
// (min-of-reps suppresses scheduler noise).
func timeIt(reps int, fn func()) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		dt := time.Since(t0).Seconds()
		if r == 0 || dt < best {
			best = dt
		}
	}
	return best
}

// fmtDuration renders a latency in adaptive units.
func fmtDuration(secs float64) string {
	return time.Duration(float64(time.Second) * secs).Round(time.Microsecond).String()
}
