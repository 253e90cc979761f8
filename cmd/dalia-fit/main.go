// dalia-fit fits a multivariate spatio-temporal model described by a JSON
// configuration to synthetic data and prints the posterior summary. It is
// the command-line face of the dalia.Fit API.
//
// Usage:
//
//	dalia-fit -config model.json
//	dalia-fit -print-config          # emit a commented default config
//
// Config schema (JSON):
//
//	{
//	  "nv": 3, "nt": 6, "nr": 2,
//	  "meshNx": 7, "meshNy": 5,
//	  "width": 560, "height": 220,
//	  "obsPerStep": 60,
//	  "seed": 1,
//	  "maxIter": 10,
//	  "hyperUncertainty": true
//	}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	dalia "github.com/dalia-hpc/dalia"
)

type config struct {
	Family           string  `json:"family"` // "gaussian" (default) or "poisson"
	Nv               int     `json:"nv"`
	Nt               int     `json:"nt"`
	Nr               int     `json:"nr"`
	MeshNx           int     `json:"meshNx"`
	MeshNy           int     `json:"meshNy"`
	Width            float64 `json:"width"`
	Height           float64 `json:"height"`
	ObsPerStep       int     `json:"obsPerStep"`
	Seed             int64   `json:"seed"`
	MaxIter          int     `json:"maxIter"`
	HyperUncertainty bool    `json:"hyperUncertainty"`
}

func defaultConfig() config {
	return config{
		Nv: 1, Nt: 4, Nr: 2,
		MeshNx: 6, MeshNy: 5,
		Width: 400, Height: 300,
		ObsPerStep: 40, Seed: 1,
		MaxIter: 20, HyperUncertainty: true,
	}
}

// parseConfig overlays a JSON configuration on the defaults. Unknown keys
// are an error naming the key: a typo or a key from an older schema must not
// be silently ignored.
func parseConfig(raw []byte) (config, error) {
	cfg := defaultConfig()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return config{}, err
	}
	return cfg, nil
}

func main() {
	cfgPath := flag.String("config", "", "path to a JSON model configuration")
	printCfg := flag.Bool("print-config", false, "print the default configuration and exit")
	flag.Parse()

	cfg := defaultConfig()
	if *printCfg {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *cfgPath != "" {
		raw, err := os.ReadFile(*cfgPath)
		if err != nil {
			log.Fatal(err)
		}
		if cfg, err = parseConfig(raw); err != nil {
			log.Fatalf("parsing %s: %v", *cfgPath, err)
		}
	}

	family := dalia.LikGaussian
	if cfg.Family == "poisson" {
		family = dalia.LikPoisson
	}
	ds, err := dalia.Generate(dalia.GenConfig{
		Nv: cfg.Nv, Nt: cfg.Nt, Nr: cfg.Nr,
		MeshNx: cfg.MeshNx, MeshNy: cfg.MeshNy,
		Width: cfg.Width, Height: cfg.Height,
		ObsPerStep: cfg.ObsPerStep,
		Seed:       cfg.Seed,
		Family:     family,
	})
	if err != nil {
		log.Fatal(err)
	}
	m := ds.Model
	fmt.Printf("model: nv=%d ns=%d nt=%d nr=%d  latent dim %d  dim(θ)=%d  obs %d\n",
		m.Dims.Nv, m.Dims.Ns, m.Dims.Nt, m.Dims.Nr, m.Dims.Total(), m.NumHyper(), m.Obs.M()*m.Dims.Nv)

	prior := dalia.WeakPrior(ds.Theta0, 3)
	opts := dalia.DefaultFitOptions()
	opts.Opt.MaxIter = cfg.MaxIter
	opts.SkipHyperUncertainty = !cfg.HyperUncertainty
	res, err := dalia.Fit(m, prior, ds.Theta0, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer: %d iterations, %d evaluations, converged=%v, -fobj=%.4f\n\n",
		res.Opt.Iterations, res.Opt.FEvals, res.Opt.Converged, res.Opt.F)

	dec, err := m.DecodeTheta(res.Theta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hyperparameters (fitted | truth):")
	for k := 0; k < cfg.Nv; k++ {
		fmt.Printf("  process %d: range_s %7.1f | %7.1f   range_t %5.2f | %5.2f   sd %5.2f | %5.2f",
			k,
			dec.Process[k].RangeS, ds.TrueTheta.Process[k].RangeS,
			dec.Process[k].RangeT, ds.TrueTheta.Process[k].RangeT,
			dec.Lambda.Sigmas[k], ds.TrueTheta.Lambda.Sigmas[k])
		if family == dalia.LikGaussian {
			fmt.Printf("   noise sd %5.3f | %5.3f", 1/math.Sqrt(dec.TauY[k]), 1/math.Sqrt(ds.TrueTheta.TauY[k]))
		}
		fmt.Println()
	}
	if hms := dalia.HyperMarginals(m, res); hms != nil {
		fmt.Println("\nhyperparameter marginals (natural scale where log-parametrized):")
		for _, hm := range hms {
			if hm.LogScale {
				fmt.Printf("  %-12s median %8.3f  [%8.3f, %8.3f]\n", hm.Name, hm.NaturalMedian, hm.NaturalQ025, hm.NaturalQ975)
			} else {
				fmt.Printf("  %-12s mean   %+8.3f  [%+8.3f, %+8.3f]\n", hm.Name, hm.Mean, hm.Q025, hm.Q975)
			}
		}
	}
	fmt.Println("\nfixed effects:")
	for _, fe := range dalia.FixedEffects(m, res) {
		fmt.Printf("  process %d effect %d: %+.3f [%+.3f, %+.3f]\n",
			fe.Process, fe.Index, fe.Mean, fe.Q025, fe.Q975)
	}
}
