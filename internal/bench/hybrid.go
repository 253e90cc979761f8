package bench

import (
	"fmt"
	"io"
	"runtime"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// HybridResult is one measured point of the two-level scheduling
// experiment: a (ranks × partitions-per-rank) topology's virtual time for
// one full distributed solver cycle (PPOBTAF + PPOBTAS + PPOBTASI).
type HybridResult struct {
	Ranks             int
	PartitionsPerRank int
	Width             int // total partitions = ranks × per-rank
	Seconds           float64
	PerSec            float64
	// Speedup is relative to the 1×1 topology.
	Speedup float64
}

// HybridReport is the two-level scheduling measurement:
// virtual cycle times of the hybrid (ranks × partitions) distributed BTA
// solver across topologies of equal and growing total width. Virtual times
// derive from measured kernel wall clocks, so — like the pintime numbers —
// runs are only comparable at matching GOMAXPROCS.
type HybridReport struct {
	GoMaxProcs int
	NumCPU     int
	Nt         int
	BlockSize  int
	ArrowSize  int
	Results    []HybridResult
}

// hybridConfigs is the (ranks, partitions-per-rank) sweep: flat rank-only
// rows, node-only rows, and the mixed two-level topologies the paper's
// GPU-node layout corresponds to.
var hybridConfigs = []struct{ ranks, perRank int }{
	{1, 1}, {2, 1}, {1, 2}, {4, 1}, {2, 2}, {1, 4}, {4, 2}, {2, 4},
}

// Hybrid measures the two-level distributed BTA solver on a bivariate
// spatio-temporal precision matrix: for each (ranks × partitions-per-rank)
// topology, the virtual makespan of a factorize + solve + selected-invert
// cycle on the simulated machine, with each rank running its owned
// partitions as a concurrent node-local gang over the shared partition
// cores. quick trims repetitions, not the topology grid.
func Hybrid(quick bool) (*HybridReport, error) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 2, Nt: 32, Nr: 1,
		MeshNx: 5, MeshNy: 4,
		ObsPerStep: 30,
		Seed:       29,
	})
	if err != nil {
		return nil, err
	}
	m := ds.Model
	th, err := m.DecodeTheta(ds.Theta0)
	if err != nil {
		return nil, err
	}
	qc, err := m.Qc(th)
	if err != nil {
		return nil, err
	}
	rhs := make([]float64, qc.Dim())
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	out := &HybridReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Nt:         qc.N, BlockSize: qc.B, ArrowSize: qc.A,
	}
	reps := 5
	if quick {
		reps = 2
	}
	var base float64
	for _, cfg := range hybridConfigs {
		secs, err := hybridCycleSeconds(qc, rhs, cfg.ranks, cfg.perRank, reps)
		if err != nil {
			return nil, fmt.Errorf("bench: hybrid %d×%d: %w", cfg.ranks, cfg.perRank, err)
		}
		r := HybridResult{
			Ranks: cfg.ranks, PartitionsPerRank: cfg.perRank,
			Width: cfg.ranks * cfg.perRank, Seconds: secs, PerSec: 1 / secs,
		}
		if cfg.ranks == 1 && cfg.perRank == 1 {
			base = secs
		} else if base > 0 {
			r.Speedup = base / secs
		}
		out.Results = append(out.Results, r)
	}
	return out, nil
}

// hybridCycleSeconds runs reps refill/factor/solve/selinv cycles on one
// persistent factor per rank over the given topology and returns the virtual
// seconds per cycle.
func hybridCycleSeconds(g *bta.Matrix, rhs []float64, ranks, perRank, reps int) (float64, error) {
	parts, err := bta.PartitionBlocks(g.N, ranks*perRank, 1)
	if err != nil {
		return 0, err
	}
	st, err := comm.Run(ranks, comm.DefaultMachine(), nil, func(c *comm.Comm) error {
		local, err := bta.NewLocalBTA(parts, bta.UniformStreams(ranks, perRank), c.Rank(), g.N, g.B, g.A)
		if err != nil {
			return err
		}
		f, err := bta.NewDistFactor(local)
		if err != nil {
			return err
		}
		span := local.Part
		rhsLocal := make([]float64, span.Size()*g.B)
		var rhsTip []float64
		if g.A > 0 {
			rhsTip = rhs[g.N*g.B:]
		}
		for rep := 0; rep < reps; rep++ {
			local.FillFrom(g)
			if err := bta.PPOBTAF(c, f, local); err != nil {
				return err
			}
			copy(rhsLocal, rhs[span.Lo*g.B:(span.Hi+1)*g.B])
			if _, _, err := bta.PPOBTAS(c, f, rhsLocal, rhsTip); err != nil {
				return err
			}
			if _, err := bta.PPOBTASI(c, f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return st.Makespan() / float64(reps), nil
}

// PrintHybrid renders the two-level scheduling table.
func PrintHybrid(b *HybridReport, w io.Writer) {
	fmt.Fprintf(w, "  hybrid two-level distributed BTA solver (nt=%d, b=%d, a=%d, GOMAXPROCS=%d, %d hardware CPUs)\n",
		b.Nt, b.BlockSize, b.ArrowSize, b.GoMaxProcs, b.NumCPU)
	fmt.Fprintf(w, "  virtual seconds per factor+solve+selinv cycle; speedup vs the 1×1 topology\n")
	if b.NumCPU < 2 {
		fmt.Fprintf(w, "  note: single hardware CPU — node-gang rows measure scheduling overhead, not speedup\n")
	}
	fmt.Fprintf(w, "  %6s %11s %6s %12s %10s %8s\n", "ranks", "parts/rank", "width", "cycle", "cycles/s", "speedup")
	for _, r := range b.Results {
		sp := "-"
		if r.Speedup > 0 {
			sp = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(w, "  %6d %11d %6d %12s %10.1f %8s\n",
			r.Ranks, r.PartitionsPerRank, r.Width, fmtDuration(r.Seconds), r.PerSec, sp)
	}
}
