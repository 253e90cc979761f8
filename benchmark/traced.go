package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/serve"
	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/store"
)

// tracedFitReps is how many untraced and how many traced fits the traced
// run interleaves; their medians give the tracing overhead.
const tracedFitReps = 3

// tracingEvaluator decorates the evaluator inla.Fit would build: every
// EvalBatch becomes a span under the current stage. It forwards StencilPlan
// so the Hessian stage splits its batch exactly as it does inside inla.Fit.
type tracingEvaluator struct {
	inner  *inla.BTAEvaluator
	tr     *tracer
	parent int // span of the running stage
	evals  int
	spent  time.Duration // inside EvalBatch
}

func (e *tracingEvaluator) EvalBatch(points [][]float64) []float64 {
	id := e.tr.begin(e.parent, "inla", "inla.eval_batch")
	out := e.inner.EvalBatch(points)
	e.spent += e.tr.end(id)
	e.evals += len(points)
	return out
}

func (e *tracingEvaluator) Posterior(theta []float64) ([]float64, []float64, error) {
	return e.inner.Posterior(theta)
}

func (e *tracingEvaluator) StencilPlan(width int) inla.SharedPlan { return e.inner.StencilPlan(width) }

// stageTimes is one traced fit's decomposition.
type stageTimes struct {
	fit, modeSearch, hessian, posterior float64 // seconds
	optimizerSelfMS                     float64
	evals, iters                        int
}

// tracedFit composes the three public stages inla.Fit composes — Minimize,
// HessianAtMode (+ covariance), Posterior — behind the tracing decorator.
func (w *workload) tracedFit(s *session, tr *tracer) (*inla.Result, stageTimes, error) {
	ds := s.ds
	e := &tracingEvaluator{inner: newEvaluator(ds), tr: tr}
	opts := w.fitOptions()
	var st stageTimes
	fit := tr.begin(0, "inla", "fit")

	e.parent = tr.begin(fit, "inla", "inla.mode_search")
	opt, err := inla.Minimize(e, ds.Theta0, opts.Opt)
	st.modeSearch = tr.end(e.parent).Seconds()
	if err != nil {
		return nil, st, fmt.Errorf("mode search: %w", err)
	}
	st.optimizerSelfMS = (st.modeSearch - e.spent.Seconds()) * 1e3
	st.iters = opt.Iterations
	res := &inla.Result{Theta: opt.Theta, Opt: opt}

	if w.hessian {
		e.parent = tr.begin(fit, "inla", "inla.hessian")
		if hess, herr := inla.HessianAtMode(e, opt.Theta, opts.HessStep); herr == nil {
			if cov, cerr := dense.Inverse(hess); cerr == nil {
				res.ThetaCov = cov
			}
		}
		st.hessian = tr.end(e.parent).Seconds()
	}

	post := tr.begin(fit, "inla", "inla.posterior")
	res.Mu, res.LatentVar, err = e.Posterior(opt.Theta)
	st.posterior = tr.end(post).Seconds()
	st.fit = tr.end(fit).Seconds()
	st.evals = e.evals
	if err != nil {
		return nil, st, fmt.Errorf("posterior: %w", err)
	}
	return res, st, nil
}

// poissonFactorizer is the inner-Newton solver hook inla uses for count
// models (map the CSR into BTA form, factorize, solve on process-major
// vectors), with each part a span when tr is set.
func poissonFactorizer(m *model.Model, tr *tracer, parent int) func(*sparse.CSR) (func([]float64) []float64, error) {
	return func(qc *sparse.CSR) (func([]float64) []float64, error) {
		var qb *bta.Matrix
		var f *bta.Factor
		var err error
		tr.in(parent, "model", "model.qc_from_csr", func() { qb, err = m.QcFromCSR(qc) })
		if err != nil {
			return nil, err
		}
		tr.in(parent, "bta", "bta.factorize", func() { f, err = bta.Factorize(qb) })
		if err != nil {
			return nil, err
		}
		return func(rhs []float64) []float64 {
			var out []float64
			tr.in(parent, "bta", "bta.solve", func() {
				x := m.ApplyPerm(rhs)
				f.Solve(x)
				out = m.UnPerm(x)
			})
			return out
		}, nil
	}
}

// replay times one sequential objective evaluation (a width-1 batch on a
// one-worker evaluator, warm) and, right after it, the evaluation's parts
// in the order the evaluator calls them, each a span under one
// inla.eval_fobj span. Whole and parts alternate so that the host's drift
// falls on both. It returns per-repetition milliseconds: the whole, the sum
// of the parts, the assembly parts, the factorizations.
func (lb *layerBench) replay(tr *tracer) (whole, parts, assembly, factor []float64, err error) {
	m, t := lb.m, lb.t
	seq := &inla.BTAEvaluator{Model: m, Prior: inla.WeakPrior(lb.s.ds.Theta0, priorSD), Workers: 1}
	one := [][]float64{lb.s.warm.res.Theta}
	n, b, a := m.Dims.BTAShape()
	qp, qc := bta.NewMatrix(n, b, a), bta.NewMatrix(n, b, a)
	fp, fc := bta.NewFactor(n, b, a), bta.NewFactor(n, b, a)
	tot := m.Dims.Total()
	mu, tmp, pm, obs := make([]float64, tot), make([]float64, tot), make([]float64, tot), make([]float64, m.Obs.M())
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	for rep := 0; rep <= layerCalls; rep++ { // repetition 0 warms and is dropped
		var sum, asm, fac time.Duration
		t0 := time.Now()
		seq.EvalBatch(one)
		all := time.Since(t0)
		root := tr.begin(0, "inla", "inla.eval_fobj")
		part := func(layer, name string, kind *time.Duration, f func()) {
			d := tr.in(root, layer, name, f)
			sum += d
			if kind != nil {
				*kind += d
			}
		}
		part("model", "model.decode_theta", nil, func() { _, e := m.DecodeTheta(one[0]); keep(e) })
		if m.Lik == model.LikPoisson {
			var mode *model.PoissonMode
			cm := tr.begin(root, "model", "model.conditional_mode")
			mode, e := m.ConditionalModePoisson(t, poissonFactorizer(m, tr, cm))
			total := tr.end(cm)
			keep(e)
			if e != nil {
				return
			}
			// Inside the Newton loop the hook's spans are the solver's
			// share; the rest is the model assembling and line-searching.
			var hookFac, hookOther time.Duration
			for _, s := range tr.spans[cm:] {
				if s.Parent == cm {
					if s.Name == "bta.factorize" {
						hookFac += time.Duration(s.EndNS - s.StartNS)
					} else if s.Layer == "bta" {
						hookOther += time.Duration(s.EndNS - s.StartNS)
					}
				}
			}
			sum, fac, asm = sum+total, fac+hookFac, asm+total-hookFac-hookOther
			var qcB, qpB *bta.Matrix
			var f1, f2 *bta.Factor
			part("model", "model.qc_from_csr", &asm, func() { qcB, e = m.QcFromCSR(mode.QcCSR); keep(e) })
			part("bta", "bta.factorize", &fac, func() { f1, e = bta.Factorize(qcB); keep(e) })
			part("model", "model.qp", &asm, func() { qpB, e = m.Qp(t); keep(e) })
			part("bta", "bta.factorize", &fac, func() { f2, e = bta.Factorize(qpB); keep(e) })
			if err != nil {
				return
			}
			part("bta", "bta.logdet", nil, func() { probeSink += f1.LogDet() + f2.LogDet() })
			part("bta", "bta.mulvec", nil, func() { qpB.MulVec(mode.XPerm, tmp) })
		} else {
			part("model", "model.qp_into", &asm, func() { keep(m.QpInto(t, qp)) })
			part("bta", "bta.refactorize", &fac, func() { keep(fp.Refactorize(qp)) })
			part("bta", "bta.logdet", nil, func() { probeSink += fp.LogDet() })
			part("model", "model.qc_into", &asm, func() { keep(m.QcInto(t, qc)) })
			part("bta", "bta.refactorize", &fac, func() { keep(fc.Refactorize(qc)) })
			part("model", "model.cond_rhs_into", nil, func() { m.CondRHSInto(t, mu, pm, obs) })
			part("bta", "bta.solve", nil, func() { fc.Solve(mu) })
			part("bta", "bta.logdet", nil, func() { probeSink += fc.LogDet() })
			part("bta", "bta.mulvec", nil, func() { qp.MulVec(mu, tmp) })
			part("model", "model.loglik", nil, func() { probeSink += m.LogLik(t, mu) })
		}
		tr.end(root)
		if err != nil {
			return
		}
		if rep > 0 {
			whole, parts = append(whole, all.Seconds()*1e3), append(parts, sum.Seconds()*1e3)
			assembly, factor = append(assembly, asm.Seconds()*1e3), append(factor, fac.Seconds()*1e3)
		}
	}
	return
}

// phiReplay replays a snapshot request's parts with public functions —
// query assembly into φ columns, the half solve through the mode factor,
// the reduction to variances — and returns its answer.
type phiReplay struct {
	m   *model.Model
	t   *model.Theta
	f   *bta.Factor
	mu  []float64
	ms  *bta.MultiSolve
	out struct{ means, vars []float64 }
}

func newPhiReplay(m *model.Model, res *inla.Result) (*phiReplay, error) {
	t, f, err := inla.ModeFactor(m, res.Theta)
	if err != nil {
		return nil, err
	}
	n, b, a := m.Dims.BTAShape()
	p := &phiReplay{m: m, t: t, f: f, mu: res.Mu, ms: bta.NewMultiSolve(n, b, a, largeQueries)}
	p.out.means, p.out.vars = make([]float64, largeQueries), make([]float64, largeQueries)
	return p, nil
}

func (p *phiReplay) run(tr *tracer, r *request) error {
	ms := p.ms.Narrow(len(r.qs))
	root := tr.begin(0, "predict", "predict.request.replay")
	defer tr.end(root)
	var err error
	tr.in(root, "predict", "predict.query_assembly", func() {
		ms.RHS.Zero()
		for col, q := range r.qs {
			var mean float64
			if err = phi(p.m, p.t, q, func(idx int, w float64) {
				ms.RHS.Set(idx, col, ms.RHS.At(idx, col)+w)
				mean += w * p.mu[idx]
			}); err != nil {
				return
			}
			p.out.means[col] = mean
		}
	})
	if err != nil {
		return err
	}
	tr.in(root, "bta", "bta.forward_multi", func() { p.f.ForwardSolveMultiInto(ms) })
	tr.in(root, "predict", "predict.reduce", func() {
		vars := p.out.vars[:len(r.qs)]
		for i := range vars {
			vars[i] = 0
		}
		for row := 0; row < ms.Dim(); row++ {
			for i, v := range ms.RHS.Row(row)[:len(vars)] {
				vars[i] += v * v
			}
		}
	})
	return nil
}

// traceRequests sends n requests of the seeded mix through the in-process
// path one at a time, each a predict.request span, with the parts replayed
// beside it on the same queries (snapshot paths) and both answers checked.
func (lb *layerBench) traceRequests(tr *tracer, n int) error {
	s := lb.s
	tg, err := newInProcessTarget(s.ds.Model, s.warm.res)
	if err != nil {
		return err
	}
	var replay *phiReplay
	if tg.hasVariance() {
		if replay, err = newPhiReplay(s.ds.Model, s.warm.res); err != nil {
			return err
		}
	}
	fn := tg.client()
	gen := newMixGen(s.seed, 0, s.p)
	means, vars := make([]float64, largeQueries), make([]float64, largeQueries)
	for i := 0; i < n; i++ {
		r := gen.next()
		id := tr.begin(0, "predict", "predict.request")
		err := fn(r, means, vars, true)
		tr.end(id)
		if !s.c.ok(err == nil, "traced request: %v", err) {
			continue
		}
		checkAnswer(&s.c, r, means, vars, tg.hasVariance())
		if replay == nil {
			continue
		}
		if err := replay.run(tr, r); err != nil {
			return err
		}
		same := true
		for j := range r.qs {
			same = same && closeTo(replay.out.means[j], means[j], 1e-9) && closeTo(replay.out.vars[j], vars[j], 1e-9)
		}
		s.c.ok(same, "the replayed request parts give another answer than PredictInto")
	}
	return nil
}

// postJSON sends a JSON body and decodes a 200 reply into v (when non-nil).
func (t *httpTarget) postJSON(path string, body, v any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	res, err := t.hc.Post(t.ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	reply, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST %s: status %d: %s", path, res.StatusCode, bytes.TrimSpace(reply))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(reply, v)
}

// serveLayer measures the serving tier with a store attached: per-request
// HTTP spans beside the in-process call on the server's own snapshot and the
// same queries, a fit and a refit over HTTP, and the batcher's counters.
func (lb *layerBench) serveLayer(tr *tracer, dir string) error {
	s := lb.s
	gen := s.w.genConfig(s.seed)
	root, err := os.MkdirTemp(dir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	st, stats, err := store.Open(root)
	if err != nil {
		return err
	}
	defer st.Close()
	opts := serveOptions()
	opts.Store, opts.Recovery = st, stats
	publish, err := fitOnServer(opts, gen, s.w.k)
	if err != nil {
		return err
	}
	ht, err := publish(&s.p.small[0])
	if err != nil {
		return err
	}
	defer ht.close()

	snap := ht.model.Snapshot()
	fn := ht.client()
	mix := newMixGen(s.seed, 0, s.p)
	hm, hv := make([]float64, largeQueries), make([]float64, largeQueries)
	pm, pv := make([]float64, largeQueries), make([]float64, largeQueries)
	var httpSmall, inSmall, replyBytes []float64
	for i := 0; i < 1500; i++ {
		r := mix.next()
		id := tr.begin(0, "serve", "serve.http_request")
		err := fn(r, hm, hv, true)
		dh := tr.end(id)
		if !s.c.ok(err == nil, "http request: %v", err) {
			continue
		}
		id = tr.begin(0, "predict", "predict.request")
		err = snap.PredictInto(r.qs, pm, pv)
		dp := tr.end(id)
		same := err == nil
		for j := range r.qs {
			same = same && closeTo(hm[j], pm[j], 1e-9) && closeTo(hv[j], pv[j], 1e-9) && hv[j] > 0
		}
		s.c.ok(same, "the HTTP answer differs from the in-process answer on the same snapshot")
		if len(r.qs) == smallQueries {
			httpSmall = append(httpSmall, dh.Seconds()*1e6)
			inSmall = append(inSmall, dp.Seconds()*1e6)
			replyBytes = append(replyBytes, float64(ht.replyBytes.Load()))
		}
	}
	lb.res.set("serve.http_overhead_us", median(httpSmall)-median(inSmall))
	lb.res.set("serve.response_bytes", median(replyBytes))
	lb.res.notef("  serve: 4-query request p50 %.1f us over HTTP, %.1f us in-process on the same snapshot (%d requests)",
		median(httpSmall), median(inSmall), len(httpSmall))

	fit := serve.FitRequest{Name: "rtt", Gen: genSpec(gen), MaxIter: s.w.k, MaxBatch: maxBatch}
	t0 := time.Now()
	if err := ht.postJSON("/v1/models", fit, nil); err != nil {
		return err
	}
	lb.res.set("serve.fit_rtt_s", time.Since(t0).Seconds())
	t0 = time.Now()
	if err := ht.postJSON("/v1/models/rtt/refit", serve.RefitRequest{}, nil); err != nil {
		return err
	}
	lb.res.set("serve.refit_rtt_s", time.Since(t0).Seconds())

	var stt serve.Stats
	if err := ht.getJSON("/stats", &stt); err != nil {
		return err
	}
	lb.res.set("serve.avg_batch_size", stt.AvgBatchSize)
	lb.res.set("serve.batches", float64(stt.Batches))
	lb.res.set("serve.slo_flushes", float64(stt.SLOFlushes))
	lb.res.set("serve.shed_requests", float64(stt.ShedRequests))
	return nil
}

// layerMetrics names the per-layer metrics that start with one of the
// prefixes.
func layerMetrics(prefixes ...string) []string {
	var out []string
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				out = append(out, d.name)
			}
		}
	}
	return out
}

// runTraced is the separate traced run: it yields every per-layer metric
// and writes the spans it recorded.
func runTraced(w *workload, seed int64, path string, log io.Writer) (*result, error) {
	s, err := openSession(w, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := &result{workload: w.name, seed: seed, defs: perLayer, values: map[string]float64{}}
	tr := newTracer(w.name)

	// Fits: untraced dalia.Fit and the traced composition, interleaved.
	stream := newStreamProbe()
	var untraced, traced, iterS, allocMB, scalarMS, streamGBs []float64
	var stages []stageTimes
	for rep := 0; rep < tracedFitReps; rep++ {
		tr.setRep(rep)
		scalarMS, streamGBs = append(scalarMS, probeScalar()), append(streamGBs, stream.run())
		u, err := w.fitOnce(s.ds)
		if !s.c.ok(err == nil, "fit failed: %v", err) {
			return nil, err
		}
		checkSameFit(&s.c, s.warm, u)
		untraced, iterS, allocMB = append(untraced, u.fitS), append(iterS, u.iterS), append(allocMB, u.allocMB)

		r, st, err := w.tracedFit(s, tr)
		if !s.c.ok(err == nil, "traced fit failed: %v", err) {
			return nil, err
		}
		same := closeTo(r.Opt.F, s.warm.res.Opt.F, 1e-10)
		for i := range r.Theta {
			same = same && closeTo(r.Theta[i], s.warm.res.Theta[i], 1e-10)
		}
		s.c.ok(same, "the traced composition does not reproduce inla.Fit's θ and F to 1e-10")
		sum := st.modeSearch + st.hessian + st.posterior
		s.c.ok(math.Abs(sum-st.fit) <= 0.02*st.fit, "stage spans sum to %.4fs, the traced fit took %.4fs", sum, st.fit)
		traced, stages = append(traced, st.fit), append(stages, st)
	}
	sort.Slice(stages, func(a, b int) bool { return stages[a].fit < stages[b].fit })
	mid := stages[len(stages)/2]
	res.set("inla.mode_search_s", mid.modeSearch)
	res.set("inla.posterior_s", mid.posterior)
	res.set("inla.optimizer_self_ms", mid.optimizerSelfMS)
	res.set("inla.evals_per_fit", float64(mid.evals))
	res.set("inla.bfgs_iters", float64(mid.iters))
	res.set("trace.overhead_pct", 100*(median(traced)-median(untraced))/median(untraced))
	res.set("proc.heap_alloc_mb_per_fit", median(allocMB))
	res.notef("fit_s untraced %.4f s, traced %.4f s (medians of %d); stages of the median traced fit: mode search %.4f + hessian %.4f + posterior %.4f s",
		median(untraced), median(traced), tracedFitReps, mid.modeSearch, mid.hessian, mid.posterior)
	if w.hessian {
		res.set("inla.hessian_s", mid.hessian)
	} else {
		res.notApplicable("inla.hessian_s") // not a stage of this fit recipe
	}
	fmt.Fprintln(log, "# fits done")

	lb, err := newLayerBench(s, res)
	if err != nil {
		return nil, err
	}
	res.notef("layer timings (ms unless the name says otherwise):")
	lb.denseLayer()
	lb.modelLayers()
	if err := lb.btaLayer(); err != nil {
		return nil, err
	}
	lb.schedLayer()
	whole, parts, assembly, factor, err := lb.replay(tr)
	if err != nil {
		return nil, fmt.Errorf("evaluation replay: %w", err)
	}
	fobj := median(whole)
	res.set("inla.eval_fobj_ms", fobj)
	res.notef("  %-28s median %.6g  min %.6g  (%d calls, alternating with the replay of its parts)", "inla.eval_fobj_ms", fobj, minOf(whole), len(whole))
	lb.inlaLayer(fobj)
	gap := 100 * math.Abs(median(parts)-fobj) / fobj
	res.set("trace.ledger_gap_pct", gap)
	res.set("model.assembly_share", median(assembly)/fobj)
	res.set("bta.factorize_share", median(factor)/fobj)
	if gap > 15 {
		res.notef("WARNING: the replayed parts sum to %.3f ms, one evaluation takes %.3f ms: ledger gap %.1f%% > 15%%", median(parts), fobj, gap)
	}
	fmt.Fprintln(log, "# evaluation layers done")

	lb.predictLayer()
	if err := lb.traceRequests(tr, 600); err != nil {
		return nil, fmt.Errorf("traced requests: %w", err)
	}
	// serve and store belong to the served workload, comm to the distributed
	// one (ISSUE 13); elsewhere their metrics do not apply.
	if w.http {
		// The temporary stores sit beside the span file.
		outDir := filepath.Dir(path)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := lb.serveLayer(tr, outDir); err != nil {
			return nil, fmt.Errorf("serve layer: %w", err)
		}
		if err := lb.storeLayer(outDir); err != nil {
			return nil, fmt.Errorf("store layer: %w", err)
		}
	} else {
		res.notApplicable(layerMetrics("serve.", "store.")...)
	}
	if w.dist {
		if err := lb.commLayer(); err != nil {
			return nil, fmt.Errorf("comm layer: %w", err)
		}
	} else {
		res.notApplicable(layerMetrics("comm.")...)
	}
	fmt.Fprintln(log, "# serving layers done")

	// As many set-ups and bursts as the untraced run's shortest makes, for
	// the whole-phase p99 and the noise columns.
	ps := series{setupS: []float64{s.firstSetupS}}
	for i := 0; i < minCycles; i++ {
		if i%setupEvery == 0 {
			secs, err := s.setupOnce()
			if err != nil {
				return nil, fmt.Errorf("set-up repeat: %w", err)
			}
			ps.setupS = append(ps.setupS, secs)
		}
		s.burst(&ps)
	}
	s.c.merge(s.lc.c)
	all := append(ps.smallMS[:len(ps.smallMS):len(ps.smallMS)], ps.largeMS...)
	s.c.ok(percentileSupported(len(all), 0.99), "%d requests: their p99 has fewer than %d samples beyond it", len(all), tailSamples)
	res.set(predictP99.name, quantile(all, 0.99))

	res.set("host.nproc", float64(runtime.NumCPU()))
	res.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	res.set("host.probe_scalar_ms", median(scalarMS))
	res.set("host.probe_stream_gbs", median(streamGBs))
	res.set("proc.peak_rss_mb", peakRSSMB())
	res.set("noise.setup_s_cv", cv(ps.setupS))
	res.set("noise.fit_s_cv", cv(untraced))
	res.set("noise.bfgs_iter_s_cv", cv(iterS))
	res.set("noise.predict_small_ms_cv", cv(ps.burstSmallMS))
	res.set("noise.predict_large_ms_cv", cv(ps.burstLargeMS))
	res.set("noise.predictions_per_s_cv", cv(ps.rates))

	res.notef("self time per layer over %d spans:", len(tr.spans))
	self := selfTimes(tr.spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		res.notef("  %-8s %10.3f ms", l, self[l].Seconds()*1e3)
	}
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.notef("spans written to %s", path)
	res.c = s.c
	return res, nil
}
