package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// ReducedResult is one measured point of the reduced-system-engine
// experiment: a (partitions, recursion depth, pipelined) configuration's
// factorization latency and reduced-phase share.
type ReducedResult struct {
	Partitions int  `json:"partitions"`
	Depth      int  `json:"depth"`
	Pipeline   bool `json:"pipeline"`
	// Seconds is the Refactorize + Solve latency per cycle.
	Seconds float64 `json:"seconds"`
	PerSec  float64 `json:"per_sec"`
	// RedShare is the reduced-phase share of the factorization wall time:
	// the tail after the last interior elimination finished, over the
	// total. The serial fraction the engine attacks — pipelining overlaps
	// it into the interior sweeps, recursion parallelizes what remains.
	RedShare float64 `json:"red_share"`
	// Speedup is relative to the sequential-reduced baseline row
	// (depth 0, pipeline off) at the same partition count.
	Speedup float64 `json:"speedup,omitempty"`
}

// ReducedBaseline is the serialized reduced-system-engine baseline
// (BENCH_5.json). Like pintime/hybrid, latencies scale with the scheduler
// width, so runs are only gate-comparable at matching GOMAXPROCS; NumCPU
// records the hardware parallelism — reduced-share drops and speedups need
// at least as many real cores as partitions to show.
type ReducedBaseline struct {
	GoMaxProcs int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Nt         int             `json:"nt"`
	BlockSize  int             `json:"block_size"`
	ArrowSize  int             `json:"arrow_size"`
	Results    []ReducedResult `json:"results"`
}

// reducedConfigs is the engine sweep per partition count: the sequential
// baseline, each mechanism alone, and both together.
var reducedConfigs = []struct {
	depth    int
	pipeline bool
}{
	{0, false}, {0, true}, {1, false}, {1, true},
}

// reducedParts sweeps the partition width across the recursion crossover:
// P = 4 (reduced size 6, below the default crossover — recursion must cost
// nothing) and P = 8 (reduced size 14 — the §V-B knee the engine exists
// for).
var reducedParts = []int{4, 8}

// Reduced measures the parallel recursive reduced-system engine on a
// time-deep bivariate model: for each partition count × (recursion depth,
// pipelined handoff) configuration, the Refactorize + Solve latency and the
// reduced-phase share of the factorization wall time. quick trims
// repetitions, not the grid.
func Reduced(quick bool) (*ReducedBaseline, error) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 2, Nt: 64, Nr: 1,
		MeshNx: 5, MeshNy: 4,
		ObsPerStep: 30,
		Seed:       37,
	})
	if err != nil {
		return nil, err
	}
	m := ds.Model
	n, b, a := m.Dims.BTAShape()
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
	out := &ReducedBaseline{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Nt:         n, BlockSize: b, ArrowSize: a,
	}
	reps := 10
	if quick {
		reps = 3
	}
	for _, p := range reducedParts {
		if p > bta.MaxUsefulPartitions(n) {
			continue
		}
		var base float64
		for _, cfg := range reducedConfigs {
			pf, err := bta.NewParallelFactorOpts(n, b, a, bta.ParallelOptions{
				Partitions: p,
				Reduced:    bta.ReducedOptions{Depth: cfg.depth, Pipeline: cfg.pipeline},
			})
			if err != nil {
				return nil, err
			}
			if err := pf.Refactorize(qc); err != nil {
				return nil, err
			}
			var elimSum, tailSum float64
			secs := timeIt(reps, func() {
				if err := pf.Refactorize(qc); err != nil {
					panic(err)
				}
				elim, tail := pf.FactorPhaseSeconds()
				elimSum += elim
				tailSum += tail
				copy(rhs, rhs0)
				pf.Solve(rhs)
			})
			r := ReducedResult{
				Partitions: p, Depth: cfg.depth, Pipeline: cfg.pipeline,
				Seconds: secs, PerSec: 1 / secs,
			}
			if elimSum+tailSum > 0 {
				r.RedShare = tailSum / (elimSum + tailSum)
			}
			if cfg.depth == 0 && !cfg.pipeline {
				base = secs
			} else if base > 0 {
				r.Speedup = base / secs
			}
			out.Results = append(out.Results, r)
		}
	}
	return out, nil
}

// WriteReducedBaseline serializes the reduced-engine baseline.
func WriteReducedBaseline(b *ReducedBaseline, path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReducedBaseline reads a stored reduced-engine baseline back in.
func LoadReducedBaseline(path string) (*ReducedBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b ReducedBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse reduced baseline %s: %w", path, err)
	}
	return &b, nil
}

// ReducedComparable reports whether two reduced runs can be gated against
// each other (latencies scale with the scheduler width).
func ReducedComparable(cur, base *ReducedBaseline) bool {
	return cur.GoMaxProcs == base.GoMaxProcs
}

// CompareReduced checks the current measurements against a stored baseline
// and returns one description per regression: a configuration whose cycle
// rate fell below (1−maxRegress) of the baseline. Incomparable runs yield
// no regressions; points too short to time reliably are skipped.
func CompareReduced(cur, base *ReducedBaseline, maxRegress float64) []string {
	if !ReducedComparable(cur, base) {
		return nil
	}
	key := func(r ReducedResult) string {
		return fmt.Sprintf("p=%d/depth=%d/pipe=%v", r.Partitions, r.Depth, r.Pipeline)
	}
	baseRate := map[string]float64{}
	for _, r := range base.Results {
		if r.PerSec > 0 && r.Seconds >= minCompareSeconds {
			baseRate[key(r)] = r.PerSec
		}
	}
	var regressions []string
	for _, r := range cur.Results {
		if r.PerSec <= 0 || r.Seconds < minCompareSeconds {
			continue
		}
		want, ok := baseRate[key(r)]
		if !ok {
			continue
		}
		floor := want * (1 - maxRegress)
		if r.PerSec < floor {
			regressions = append(regressions,
				fmt.Sprintf("reduced %s: %.2f cycles/s vs baseline %.2f (floor %.2f, −%.0f%%)",
					key(r), r.PerSec, want, floor, 100*(1-r.PerSec/want)))
		}
	}
	return regressions
}

// PrintReduced renders the reduced-engine table.
func PrintReduced(b *ReducedBaseline, w *os.File) {
	fmt.Fprintf(w, "  parallel recursive reduced-system engine (nt=%d, b=%d, a=%d, GOMAXPROCS=%d, %d hardware CPUs)\n",
		b.Nt, b.BlockSize, b.ArrowSize, b.GoMaxProcs, b.NumCPU)
	fmt.Fprintf(w, "  factorize+solve latency; red%% = reduced-phase share of factorization wall time\n")
	if b.NumCPU < 2 {
		fmt.Fprintf(w, "  note: single hardware CPU — the reduced-share drop needs ≥ 2 real cores to show\n")
	}
	fmt.Fprintf(w, "  %10s %6s %9s %12s %10s %7s %8s\n",
		"partitions", "depth", "pipelined", "cycle", "cycles/s", "red%", "speedup")
	for _, r := range b.Results {
		sp := "-"
		if r.Speedup > 0 {
			sp = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(w, "  %10d %6d %9v %12s %10.1f %6.1f%% %8s\n",
			r.Partitions, r.Depth, r.Pipeline, fmtDuration(r.Seconds), r.PerSec, 100*r.RedShare, sp)
	}
}
