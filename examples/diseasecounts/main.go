// Disease counts: the classic epidemiological INLA use case — weekly case
// counts observed at surveillance sites, modeled as a Poisson process with
// a latent spatio-temporal log-intensity field. This exercises the
// non-Gaussian extension of the library: the Laplace approximation's inner
// Newton loop, with every step a structured BTA solve.
//
//	go run ./examples/diseasecounts
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	dalia "github.com/dalia-hpc/dalia"
)

func main() {
	// Counts y ~ Poisson(exp(η)) with η = latent field + intercept +
	// population-density covariate.
	ds, err := dalia.Generate(dalia.GenConfig{
		Nv: 1, Nt: 4, Nr: 2,
		MeshNx: 5, MeshNy: 5,
		Width: 200, Height: 200,
		ObsPerStep: 50,
		Seed:       11,
		Family:     dalia.LikPoisson,
	})
	if err != nil {
		log.Fatal(err)
	}
	m := ds.Model
	var total, mx float64
	for _, y := range m.Obs.Y[0] {
		total += y
		if y > mx {
			mx = y
		}
	}
	fmt.Printf("surveillance data: %d site-weeks, %d cases total, busiest site-week %d cases\n",
		m.Obs.M(), int(total), int(mx))
	fmt.Printf("model: Poisson log-link, dim(θ)=%d (no noise precision — counts carry their own variance)\n\n",
		m.NumHyper())

	prior := dalia.WeakPrior(m.EncodeTheta(ds.TrueTheta), 3)
	opts := dalia.DefaultFitOptions()
	opts.Opt.MaxIter = 10
	res, err := dalia.Fit(m, prior, ds.Theta0, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fit: %d outer iterations, %d objective evaluations (each with an inner Newton loop)\n\n",
		res.Opt.Iterations, res.Opt.FEvals)

	if hms := dalia.HyperMarginals(m, res); hms != nil {
		fmt.Println("hyperparameters (posterior median [95% CI]):")
		for _, hm := range hms {
			if hm.LogScale {
				fmt.Printf("  %-12s %8.2f  [%8.2f, %8.2f]\n", hm.Name, hm.NaturalMedian, hm.NaturalQ025, hm.NaturalQ975)
			}
		}
	}

	fmt.Println("\nfixed effects (log relative risk):")
	for _, fe := range dalia.FixedEffects(m, res) {
		name := []string{"baseline", "density"}[fe.Index]
		fmt.Printf("  %-9s %+.3f [%+.3f, %+.3f]\n", name, fe.Mean, fe.Q025, fe.Q975)
	}

	// Outbreak-risk surface: P(intensity > threshold) at unmonitored
	// locations on the final week, from joint posterior samples.
	rng := rand.New(rand.NewSource(2))
	_, samples, err := dalia.SamplePosterior(m, res.Theta, 250, rng)
	if err != nil {
		log.Fatal(err)
	}
	sites := []dalia.Point{{X: 40, Y: 40}, {X: 100, Y: 100}, {X: 160, Y: 160}}
	week := m.Dims.Nt - 1
	tidx := []int{week, week, week}
	cov := dalia.NewDenseMatrix(3, 2)
	for i := range sites {
		cov.Set(i, 0, 1)
		cov.Set(i, 1, 0.5)
	}
	// Threshold on the intensity scale: 5 expected cases.
	logThresh := math.Log(5)
	probs, err := dalia.Exceedance(m, res.Theta, samples, sites, tidx, cov, 0, logThresh)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noutbreak risk P(expected cases > 5) in week %d:\n", week)
	for i, p := range probs {
		fmt.Printf("  site (%.0f,%.0f): %.2f\n", sites[i].X, sites[i].Y, p)
	}

	// The same sites through the prediction snapshot: the log-intensity's
	// posterior mean and sd per site, read from the selected inverse of Q_c
	// at the Laplace mode — no sampling, a fraction of a microsecond each.
	snap, err := dalia.NewPredictSnapshot(m, res)
	if err != nil {
		log.Fatal(err)
	}
	qs := make([]dalia.PredictQuery, len(sites))
	for i, p := range sites {
		qs[i] = dalia.PredictQuery{Point: p, T: week, Covariates: []float64{1, 0.5}}
	}
	means, vars, err := snap.Predict(qs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexpected cases in week %d (exp of the log-intensity, median [95%% CI]):\n", week)
	for i, p := range sites {
		sd := math.Sqrt(vars[i])
		fmt.Printf("  site (%.0f,%.0f): %5.1f [%5.1f, %5.1f]\n", p.X, p.Y,
			math.Exp(means[i]), math.Exp(means[i]-1.96*sd), math.Exp(means[i]+1.96*sd))
	}

	// Latent recovery check against the generating truth.
	var num, da, db float64
	for i := range res.Mu {
		num += res.Mu[i] * ds.TrueX[i]
		da += res.Mu[i] * res.Mu[i]
		db += ds.TrueX[i] * ds.TrueX[i]
	}
	fmt.Printf("\nlatent log-intensity recovery: correlation %.2f with the generating field\n",
		num/math.Sqrt(da*db))
}
