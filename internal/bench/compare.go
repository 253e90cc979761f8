package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// LoadServingBaseline reads a stored serving baseline (BENCH_2.json) back
// in.
func LoadServingBaseline(path string) (*ServingBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b ServingBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse serving baseline %s: %w", path, err)
	}
	return &b, nil
}

// CompareServing checks current serving throughput against a stored
// baseline and returns one description per regression: an engine-path
// point whose predictions/sec fell below (1−maxRegress) of the baseline
// rate. HTTP-path rows are skipped — they fold in client scheduling and
// kernel-irrelevant JSON costs, far too noisy for a gate — as are rows
// too short to time reliably and rows present in only one set.
func CompareServing(cur, base *ServingBaseline, maxRegress float64) []string {
	key := func(r ServingResult) string {
		return fmt.Sprintf("%s/batch=%d/conc=%d", r.Path, r.Batch, r.Concurrency)
	}
	baseRate := map[string]float64{}
	for _, r := range base.Results {
		if r.Path == "engine" && r.PerSec > 0 {
			baseRate[key(r)] = r.PerSec
		}
	}
	var regressions []string
	for _, r := range cur.Results {
		if r.Path != "engine" || r.PerSec <= 0 || r.Seconds < minCompareSeconds {
			continue
		}
		want, ok := baseRate[key(r)]
		if !ok {
			continue
		}
		floor := want * (1 - maxRegress)
		if r.PerSec < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f pred/s vs baseline %.0f (floor %.0f, −%.0f%%)",
					key(r), r.PerSec, want, floor, 100*(1-r.PerSec/want)))
		}
	}
	return regressions
}

// LoadBaseline reads a kernels baseline (BENCH_<pr>.json) back in.
func LoadBaseline(path string) (*KernelBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b KernelBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse baseline %s: %w", path, err)
	}
	return &b, nil
}

// minCompareSeconds is the shortest measurement the regression gate
// trusts: a point finishing faster than this (n=64 GEMM runs in ~20µs) is
// dominated by timer granularity and scheduler noise on shared CI runners,
// so it is reported but never gates.
const minCompareSeconds = 1e-4

// CompareKernels checks the current kernel measurements against a stored
// baseline and returns one description per regression: a GEMM point whose
// GFLOP/s fell below (1−maxRegress) of the baseline rate. Points present in
// only one of the two sets are skipped (sizes may evolve across PRs), as
// are points too short to time reliably (minCompareSeconds); non-GEMM rows
// are informational and never fail the comparison.
func CompareKernels(cur, base *KernelBaseline, maxRegress float64) []string {
	baseRate := map[string]float64{}
	key := func(name string, n int) string { return fmt.Sprintf("%s/n=%d", name, n) }
	for _, r := range base.Results {
		if r.GFlops > 0 {
			baseRate[key(r.Name, r.N)] = r.GFlops
		}
	}
	var regressions []string
	for _, r := range cur.Results {
		if r.Name != "gemm" || r.GFlops <= 0 || r.Seconds < minCompareSeconds {
			continue
		}
		want, ok := baseRate[key(r.Name, r.N)]
		if !ok {
			continue
		}
		floor := want * (1 - maxRegress)
		if r.GFlops < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2f GFLOP/s vs baseline %.2f (floor %.2f, −%.0f%%)",
					key(r.Name, r.N), r.GFlops, want, floor, 100*(1-r.GFlops/want)))
		}
	}
	return regressions
}
