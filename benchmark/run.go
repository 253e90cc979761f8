package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/dalia-hpc/dalia"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/serve"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// Estimator constants (README.md, "Why these estimators").
const (
	burstLen       = 100 * time.Millisecond // requests after every fit rep
	setupEvery     = 4                      // a fresh set-up every so many cycles
	minCycles      = 16                     // cycles per run, whatever --seconds says
	domainWidthKm  = 400                    // synth.Generate's default domain
	domainHeightKm = 300
)

// session is a workload taken up to the point where measuring can start:
// built, warmed by one untimed fit, published, with its request pools, their
// expected answers and the load client in place.
type session struct {
	w    *workload
	seed int64
	ds   *synth.Dataset
	warm fitRep
	p    *pools
	tg   target
	lc   *loadClient
	c    checks
	// publish puts the server-fitted model behind HTTP (http workloads).
	publish publisher
	// firstSetupS is what the session's own set-up took: the process's
	// first, with cold pages and lazy initialisation in it.
	firstSetupS float64
}

func openSession(w *workload, seed int64) (*session, error) {
	s := &session{w: w, seed: seed}
	t0 := time.Now()
	ds, err := w.construct(seed)
	if err != nil {
		return nil, err
	}
	s.ds, s.firstSetupS = ds, time.Since(t0).Seconds()
	checkDenseOracle(&s.c, s.ds)

	// One untimed fit: the first fit of a process ran 10–20 % slow in every
	// series measured (cold arenas, executor workers, page faults).
	warm, err := w.fitOnce(s.ds)
	if err != nil {
		return nil, fmt.Errorf("warm-up fit: %w", err)
	}
	s.warm = warm
	w.checkFit(&s.c, warm)

	s.p = buildPools(seed, s.ds.Model.Dims, domainWidthKm, domainHeightKm)
	if err := s.p.fillExpected(s.ds.Model, warm.res); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if s.tg, err = newInProcessTarget(s.ds.Model, warm.res); err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}
	s.firstSetupS += time.Since(t0).Seconds()
	if w.http {
		if s.publish, err = fitOnServer(serveOptions(), w.genConfig(seed), w.k); err != nil {
			return nil, err
		}
		t0 = time.Now()
		ht, err := s.publish(&s.p.small[0])
		if err != nil {
			return nil, err
		}
		s.firstSetupS += time.Since(t0).Seconds()
		s.tg = ht
		if err := s.alignWithServer(ht); err != nil {
			ht.close()
			return nil, err
		}
	}
	s.lc = newLoadClient(s.tg, s.p, seed)
	return s, nil
}

// alignWithServer makes the request oracle describe the server's own fit.
// The server stops its mode search on a gradient test the benchmark's fixed
// work switches off; unless that test fired before iteration k the two fits
// are the same computation, which the model card's θ shows.
func (s *session) alignWithServer(ht *httpTarget) error {
	var card serve.ModelInfo
	if err := ht.getJSON("/v1/models/bench", &card); err != nil {
		return err
	}
	same := len(card.Theta) == len(s.warm.res.Theta)
	for i := 0; same && i < len(card.Theta); i++ {
		same = card.Theta[i] == s.warm.res.Theta[i]
	}
	if same {
		return nil
	}
	// Converged early on the server: repeat its exact recipe for the oracle.
	o := s.w.fitOptions()
	o.Opt.GradTol = dalia.DefaultFitOptions().Opt.GradTol
	res, err := inla.Fit(s.ds.Model, inla.WeakPrior(s.ds.Theta0, priorSD), s.ds.Theta0, o)
	if err != nil {
		return fmt.Errorf("server-recipe fit: %w", err)
	}
	return s.p.fillExpected(s.ds.Model, res)
}

func (s *session) close() { s.tg.close() }

// setupOnce times one fresh set-up of the workload and throws it away: the
// dataset, mesh, FEM matrices and model with its BTA mappings, the first
// gradient-stencil batch on a cold evaluator, the prediction engine built
// from the warm-up fit, and on an http workload a new server with the model
// registered and one request answered. Taking its listener down is not timed.
func (s *session) setupOnce() (float64, error) {
	t0 := time.Now()
	ds, err := s.w.construct(s.seed)
	if err != nil {
		return 0, err
	}
	if _, err := newInProcessTarget(ds.Model, s.warm.res); err != nil {
		return 0, err
	}
	if s.publish == nil {
		return time.Since(t0).Seconds(), nil
	}
	ht, err := s.publish(&s.p.small[0])
	if err != nil {
		return 0, err
	}
	secs := time.Since(t0).Seconds()
	ht.stopListening()
	return secs, nil
}

// result is what one run reports.
type result struct {
	workload string
	seed     int64
	defs     []metricDef // the metrics of this mode, in print order
	values   map[string]float64
	notes    []string // informational lines printed above the metrics
	// na names the per-layer metrics that do not apply to this workload:
	// they print as n/a and read 0 in the result object.
	na map[string]bool
	c  checks
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// notApplicable marks metrics this workload has no value for.
func (r *result) notApplicable(names ...string) {
	if r.na == nil {
		r.na = map[string]bool{}
	}
	for _, n := range names {
		r.na[n] = true
		r.values[n] = 0
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// series holds the samples of a run's cycles.
type series struct {
	setupS               []float64 // per fresh set-up
	fitS, iterS, allocMB []float64 // per fit rep
	scalarMS, streamGBs  []float64 // host probes, sampled with the set-ups
	smallMS, largeMS     []float64 // per request, by size class
	rates                []float64 // per burst
	// per-burst medians of the two classes, for the noise columns
	burstSmallMS, burstLargeMS []float64
}

// timeFit runs one timed fit and checks it against the warm-up fit.
func (s *session) timeFit(m *series) bool {
	rep, err := s.w.fitOnce(s.ds)
	if !s.c.ok(err == nil, "fit failed: %v", err) {
		return false
	}
	s.w.checkFit(&s.c, rep)
	checkSameFit(&s.c, s.warm, rep)
	m.fitS, m.iterS, m.allocMB = append(m.fitS, rep.fitS), append(m.iterS, rep.iterS), append(m.allocMB, rep.allocMB)
	return true
}

// burst sends one burst of requests and files its samples.
func (s *session) burst(m *series) {
	b := s.lc.burst(burstLen)
	m.smallMS, m.largeMS = append(m.smallMS, b.smallMS...), append(m.largeMS, b.largeMS...)
	m.burstSmallMS, m.burstLargeMS = append(m.burstSmallMS, median(b.smallMS)), append(m.burstLargeMS, median(b.largeMS))
	m.rates = append(m.rates, b.rate)
}

// runUntraced measures the six end-to-end metrics of a workload. The run is
// a sequence of cycles — one fit rep, one burst of requests, and every
// setupEvery-th time a fresh set-up — so that every metric samples the whole
// run: the host stays slow for tens of seconds at a time, and a metric
// measured in a block of its own spends whole runs inside such a stretch.
func runUntraced(w *workload, seed int64, seconds float64, log io.Writer) (*result, error) {
	s, err := openSession(w, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	fmt.Fprintf(log, "# set-up and warm-up fit done\n")
	res := &result{workload: w.name, seed: seed, defs: endToEnd, values: map[string]float64{}}
	m := series{setupS: []float64{s.firstSetupS}}
	stream := newStreamProbe()
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < minCycles || time.Since(start) < budget; i++ {
		if i%setupEvery == 0 {
			secs, err := s.setupOnce()
			if err != nil {
				return nil, fmt.Errorf("set-up repeat: %w", err)
			}
			m.setupS = append(m.setupS, secs)
			m.scalarMS, m.streamGBs = append(m.scalarMS, probeScalar()), append(m.streamGBs, stream.run())
		}
		if !s.timeFit(&m) {
			break
		}
		s.burst(&m)
	}
	s.c.merge(s.lc.c)
	fmt.Fprintf(log, "# %d cycles done\n", len(m.fitS))

	res.set("setup_s", quiet(m.setupS))
	res.set("fit_s", quiet(m.fitS))
	res.set("bfgs_iter_s", quiet(m.iterS))
	res.set("predict_small_ms", quiet(m.smallMS))
	res.set("predict_large_ms", quiet(m.largeMS))
	res.set("predictions_per_s", quietRate(m.rates))

	res.notef("host.nproc %d  host.gomaxprocs %d  clients 1", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res.notef("host.probe_scalar_ms %.4f  host.probe_stream_gbs %.3f  (medians of %d samples through the run)",
		median(m.scalarMS), median(m.streamGBs), len(m.scalarMS))
	res.notef("proc.peak_rss_mb %.1f  proc.heap_alloc_mb_per_fit %.1f", peakRSSMB(), median(m.allocMB))
	res.notef("%d cycles in %.1f s: %d fit reps (K=%d iterations, %d mode-search evaluations each), %d set-ups, %d + %d requests of %d and %d queries",
		len(m.fitS), time.Since(start).Seconds(), len(m.fitS), w.k, s.warm.res.Opt.FEvals, len(m.setupS), len(m.smallMS), len(m.largeMS), smallQueries, largeQueries)
	res.notef("medians, for comparison with the lower deciles below: setup_s %.6g  fit_s %.6g  bfgs_iter_s %.6g  predict_small_ms %.6g  predict_large_ms %.6g  predictions_per_s %.6g",
		median(m.setupS), median(m.fitS), median(m.iterS), median(m.smallMS), median(m.largeMS), median(m.rates))
	res.notef("noise cv: setup_s %.3f  fit_s %.3f  bfgs_iter_s %.3f  predict_small_ms %.3f  predict_large_ms %.3f  predictions_per_s %.3f  (over set-ups, reps and per-burst medians)",
		cv(m.setupS), cv(m.fitS), cv(m.iterS), cv(m.burstSmallMS), cv(m.burstLargeMS), cv(m.rates))
	res.c = s.c
	return res, nil
}
