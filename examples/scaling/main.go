// Scaling demo: run the same trivariate BFGS iteration (a line search and a
// gradient batch, after the first gradient batch at θ0) on the simulated
// distributed machine at several widths and watch the parallel layers (S1
// evaluations, then the S3 distributed solver) engage — a miniature of the
// paper's Fig. 7.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	dalia "github.com/dalia-hpc/dalia"
)

func main() {
	ds, err := dalia.Generate(dalia.GenConfig{
		Nv: 3, Nt: 8, Nr: 1,
		MeshNx: 5, MeshNy: 4,
		ObsPerStep: 15,
		Seed:       31,
	})
	if err != nil {
		log.Fatal(err)
	}
	m := ds.Model
	prior := dalia.WeakPrior(ds.Theta0, 5)
	fmt.Printf("trivariate model: dim(θ)=%d, gradient batch width %d\n\n", m.NumHyper(), 2*m.NumHyper()+1)
	fmt.Printf("%8s  %10s  %10s  %8s  %s\n", "workers", "s/iter", "speedup", "eff %", "layers")

	var t1 float64
	for _, w := range []int{1, 4, 16, 31, 62} {
		rep, err := dalia.RunCluster(m, prior, ds.Theta0, dalia.ClusterConfig{
			World:      w,
			Machine:    dalia.DefaultMachine(),
			Iterations: 1,
			LB:         1.6,
		})
		if err != nil {
			log.Fatal(err)
		}
		if w == 1 {
			t1 = rep.PerIter
		}
		layers := fmt.Sprintf("S1×%d", rep.Plan.Groups)
		if g := rep.Plan.SolverWidths[0]; g > 1 {
			layers += fmt.Sprintf(" +S3×%d", g)
		}
		fmt.Printf("%8d  %10.3f  %9.1fx  %8.1f  %s\n",
			w, rep.PerIter, t1/rep.PerIter, 100*t1/(float64(w)*rep.PerIter), layers)
	}
	fmt.Println("\n(virtual time on the simulated machine; see README, Substitutions)")
}
