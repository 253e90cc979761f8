package bench

import (
	"fmt"
	"io"
	"math"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// AppReport carries the §VI air-pollution reproduction outputs.
type AppReport struct {
	Fig *Figure
	// ElevationEffect[k] is the posterior (mean, q025, q975) of the
	// elevation fixed effect of pollutant k.
	ElevationEffect [][3]float64
	// Correlations is the fitted inter-pollutant correlation matrix.
	Correlations [][]float64
	// DownscaleRMSE compares fine-grid prediction error of the fitted model
	// vs the coarse-aggregate baseline.
	DownscaleRMSE, CoarseRMSE float64
}

// App reproduces the §VI application study on the synthetic CAMS-like
// dataset (AP1-scaled): fit the trivariate LMC model, report the elevation
// fixed-effect posteriors and inter-pollutant correlations, and perform the
// spatial downscaling comparison.
func App(quick bool) (*AppReport, error) {
	spec := synth.AP1()
	ds, err := synth.Generate(spec.Gen)
	if err != nil {
		return nil, err
	}
	truth := ds.Model.EncodeTheta(ds.TrueTheta)
	prior := inla.WeakPrior(truth, 3)
	opts := inla.DefaultFitOptions()
	opts.Opt.MaxIter = 8
	opts.SkipHyperUncertainty = true
	if quick {
		opts.Opt.MaxIter = 3
	}
	res, err := inla.Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		return nil, err
	}

	rep := &AppReport{Fig: NewFigure("App", "§VI air-pollution application (AP1-scaled, synthetic CAMS-like data)", "", "")}
	rep.Fig.Note("paper: elevation effects −0.45 (PM2.5), −0.55 (PM10), +1.27 (O₃) µg/m³ per km; correlations +0.97 PM2.5↔PM10, −0.61/−0.63 vs O₃")
	names := []string{"PM2.5", "PM10", "O3"}

	// Fixed-effect posteriors (index 1 = elevation).
	fes := inla.FixedEffects(ds.Model, res)
	for _, fe := range fes {
		if fe.Index != 1 {
			continue
		}
		rep.ElevationEffect = append(rep.ElevationEffect, [3]float64{fe.Mean, fe.Q025, fe.Q975})
		truthBeta := []float64{-0.45, -0.55, 1.27}[fe.Process]
		rep.Fig.Note("elevation effect %-6s: %+.3f [%+.3f, %+.3f]  (generating truth %+.2f)",
			names[fe.Process], fe.Mean, fe.Q025, fe.Q975, truthBeta)
	}

	// Inter-pollutant correlations at the fitted mode.
	dec, err := ds.Model.DecodeTheta(res.Theta)
	if err != nil {
		return nil, err
	}
	corr := dec.Lambda.ImpliedCorrelation()
	trueCorr := ds.TrueTheta.Lambda.ImpliedCorrelation()
	for i := 0; i < 3; i++ {
		row := make([]float64, 3)
		for j := 0; j < 3; j++ {
			row[j] = corr.At(i, j)
		}
		rep.Correlations = append(rep.Correlations, row)
	}
	rep.Fig.Note("fitted correlations: PM2.5↔PM10 %+.2f (truth %+.2f), PM2.5↔O3 %+.2f (truth %+.2f), PM10↔O3 %+.2f (truth %+.2f)",
		corr.At(1, 0), trueCorr.At(1, 0), corr.At(2, 0), trueCorr.At(2, 0), corr.At(2, 1), trueCorr.At(2, 1))

	// Downscaling: predict on a fine grid and compare to the true latent
	// surface vs a coarse-aggregate baseline (the paper's 0.1°→0.02°, our
	// 5× refinement).
	if err := downscale(ds, res, rep); err != nil {
		return nil, err
	}
	rep.Fig.Note("downscaling RMSE (O3): fitted fine-grid %.3f vs coarse-aggregate %.3f (lower is better)",
		rep.DownscaleRMSE, rep.CoarseRMSE)
	return rep, nil
}

// downscale evaluates fine-grid predictions for the last day and compares
// them against the noiseless truth, alongside the coarse-cell aggregate
// baseline (what the raw satellite product provides).
func downscale(ds *synth.Dataset, res *inla.Result, rep *AppReport) error {
	spec := synth.AP1()
	w, h := spec.Gen.Width, spec.Gen.Height
	const fineN = 24 // fine-grid resolution per axis (5× the coarse 5×5)
	const coarseN = 5
	day := spec.Gen.Nt - 1

	var finePts []mesh.Point
	var fineT []int
	for i := 0; i < fineN; i++ {
		for j := 0; j < fineN; j++ {
			finePts = append(finePts, mesh.Point{
				X: (float64(i) + 0.5) * w / fineN,
				Y: (float64(j) + 0.5) * h / fineN,
			})
			fineT = append(fineT, day)
		}
	}
	cov := covariatesFor(finePts, w, h)

	// Truth at the fine grid: noiseless response from the generating state.
	truthPred, err := ds.Model.PredictMean(ds.TrueTheta, ds.TrueX, finePts, fineT, cov)
	if err != nil {
		return err
	}
	// Fitted model prediction at the fine grid.
	theta, err := ds.Model.DecodeTheta(res.Theta)
	if err != nil {
		return err
	}
	fitPred, err := ds.Model.PredictMean(theta, res.Mu, finePts, fineT, cov)
	if err != nil {
		return err
	}
	// Coarse baseline: average the truth within each coarse cell and assign
	// the block value to every fine point inside it.
	const k = 2 // O₃
	coarseVal := make([]float64, coarseN*coarseN)
	coarseCnt := make([]int, coarseN*coarseN)
	cellOf := func(p mesh.Point) int {
		ci := int(p.X / w * coarseN)
		cj := int(p.Y / h * coarseN)
		if ci >= coarseN {
			ci = coarseN - 1
		}
		if cj >= coarseN {
			cj = coarseN - 1
		}
		return cj*coarseN + ci
	}
	for i, p := range finePts {
		c := cellOf(p)
		coarseVal[c] += truthPred[k][i]
		coarseCnt[c]++
	}
	for c := range coarseVal {
		if coarseCnt[c] > 0 {
			coarseVal[c] /= float64(coarseCnt[c])
		}
	}
	var ssFit, ssCoarse float64
	for i, p := range finePts {
		dFit := fitPred[k][i] - truthPred[k][i]
		dCoarse := coarseVal[cellOf(p)] - truthPred[k][i]
		ssFit += dFit * dFit
		ssCoarse += dCoarse * dCoarse
	}
	n := float64(len(finePts))
	rep.DownscaleRMSE = math.Sqrt(ssFit / n)
	rep.CoarseRMSE = math.Sqrt(ssCoarse / n)
	return nil
}

// covariatesFor builds the [intercept, elevation] covariate matrix for
// prediction points.
func covariatesFor(pts []mesh.Point, w, h float64) *dense.Matrix {
	m := dense.New(len(pts), 2)
	for i, p := range pts {
		m.Set(i, 0, 1)
		m.Set(i, 1, synth.Elevation(p, w, h))
	}
	return m
}

// PrintApp renders the application report.
func PrintApp(rep *AppReport, w io.Writer) {
	rep.Fig.Fprint(w)
	fmt.Fprintf(w, "  elevation effects (mean [q025, q975]):\n")
	names := []string{"PM2.5", "PM10", "O3"}
	for i, e := range rep.ElevationEffect {
		fmt.Fprintf(w, "    %-6s %+.3f [%+.3f, %+.3f]\n", names[i], e[0], e[1], e[2])
	}
}
