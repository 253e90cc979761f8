package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/predict"
	"github.com/dalia-hpc/dalia/internal/serve"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// clientFn answers one pooled request for one closed-loop client. With
// decode false an HTTP client reads the reply without parsing it, so the
// load generator's JSON decoding does not compete with the server for the
// two cores; in-process clients always fill means and vars.
type clientFn func(r *request, means, vars []float64, decode bool) error

// target is what the predict phase sends requests to.
type target interface {
	client() clientFn
	// hasVariance is false for the count-model path, which serves means only.
	hasVariance() bool
	close()
}

// snapshotTarget is the in-process path of the Gaussian fit workloads:
// dalia.NewPredictSnapshot behind a PredictHandle.
type snapshotTarget struct{ h *predict.Handle }

func (t snapshotTarget) client() clientFn {
	return func(r *request, means, vars []float64, _ bool) error {
		return t.h.PredictInto(r.qs, means, vars)
	}
}
func (snapshotTarget) hasVariance() bool { return true }
func (snapshotTarget) close()            {}

// meanTarget is the prediction path of the count workload. predict.Snapshot
// cannot be built over a Poisson model (its Q_c assembly reads the Gaussian
// noise precisions and panics), so requests go through Model.PredictMean at
// the fitted mode — the only prediction the library offers for counts. The
// workload's predict metrics therefore time PredictMean (means only, and it
// allocates), not the snapshot path, and its answers are checked against an
// oracle of the benchmark's own (pools.fillExpected).
type meanTarget struct {
	m  *model.Model
	t  *model.Theta
	mu []float64
}

func (t meanTarget) client() clientFn {
	return func(r *request, means, _ []float64, _ bool) error {
		all, err := t.m.PredictMean(t.t, t.mu, r.pts, r.tidx, r.cov)
		if err != nil {
			return err
		}
		for i, q := range r.qs {
			means[i] = all[q.Response][i]
		}
		return nil
	}
}
func (meanTarget) hasVariance() bool { return false }
func (meanTarget) close()            {}

// maxBatch is the multi-RHS width of every snapshot the benchmark builds
// (one large request fits one sweep with room to coalesce).
const maxBatch = 256

// newInProcessTarget freezes a fit into the in-process prediction path of
// its model family.
func newInProcessTarget(m *model.Model, res *inla.Result) (target, error) {
	if m.Lik != model.LikGaussian {
		t, err := m.DecodeTheta(res.Theta)
		if err != nil {
			return nil, err
		}
		return meanTarget{m: m, t: t, mu: res.Mu}, nil
	}
	s, err := predict.NewSnapshot(m, res, predict.WithMaxBatch(maxBatch))
	if err != nil {
		return nil, err
	}
	return snapshotTarget{h: predict.NewHandle(s)}, nil
}

// serveOptions has no timer on the request path: no batch window, no SLO
// policy, so a faster solve shows in the latency.
func serveOptions() serve.Options {
	return serve.Options{BatchWindow: 0, QueueDepth: 128}
}

// served is the exported surface of serve's unexported model type.
type served interface {
	Snapshot() *predict.Snapshot
}

// httpTarget is a loopback dalia-serve with one registered model.
type httpTarget struct {
	srv   *serve.Server
	ts    *httptest.Server
	model served
	url   string
	hc    *http.Client
	// replyBytes is the size of the last reply body any client read.
	replyBytes atomic.Int64
}

func genSpec(g synth.GenConfig) *serve.GenSpec {
	return &serve.GenSpec{Nv: g.Nv, Nt: g.Nt, Nr: g.Nr, MeshNx: g.MeshNx, MeshNy: g.MeshNy,
		ObsPerStep: g.ObsPerStep, Seed: g.Seed}
}

// publisher puts a fitted model behind HTTP: serve.New, Register, an
// httptest listener and the first round trip — what publishing costs.
type publisher func(first *request) (*httpTarget, error)

// fitOnServer fits the workload's model the way a client of dalia-serve
// gets it fitted (the fit is a fit, not set-up, and is not timed here) and
// returns the publisher of that model.
func fitOnServer(opts serve.Options, g synth.GenConfig, k int) (publisher, error) {
	// The fitting server has no store: with one, the fit's optimizer state
	// would stay behind and the serving server would resume it on start.
	fitOpts := opts
	fitOpts.Store, fitOpts.Recovery = nil, nil
	sm, err := serve.New(fitOpts).FitModel(serve.FitRequest{Name: "bench", Gen: genSpec(g), MaxIter: k, MaxBatch: maxBatch})
	if err != nil {
		return nil, fmt.Errorf("serve fit: %w", err)
	}
	return func(first *request) (*httpTarget, error) {
		srv := serve.New(opts)
		if err := srv.Register(sm); err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		t := &httpTarget{srv: srv, ts: ts, model: sm,
			url: ts.URL + "/v1/models/bench/predict",
			hc: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 4, DisableCompression: true}}}
		if err := t.client()(first, make([]float64, len(first.qs)), make([]float64, len(first.qs)), true); err != nil {
			t.close()
			return nil, fmt.Errorf("first round trip: %w", err)
		}
		return t, nil
	}, nil
}

func (t *httpTarget) hasVariance() bool { return true }

// stopListening takes the listener and the client's connections down and
// leaves the model's batcher alive: a set-up repeat shares the served model
// with the session's own server, and Shutdown would stop its batcher.
func (t *httpTarget) stopListening() {
	t.ts.Close()
	t.hc.CloseIdleConnections()
}

func (t *httpTarget) close() {
	t.stopListening()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = t.srv.Shutdown(ctx) // drain only; nothing is persisted
}

func (t *httpTarget) client() clientFn {
	var buf bytes.Buffer
	var resp serve.PredictResponse
	return func(r *request, means, vars []float64, decode bool) error {
		res, err := t.hc.Post(t.url, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return err
		}
		buf.Reset()
		_, err = buf.ReadFrom(res.Body)
		res.Body.Close()
		if err != nil {
			return err
		}
		t.replyBytes.Store(int64(buf.Len()))
		if res.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", res.StatusCode, bytes.TrimSpace(buf.Bytes()))
		}
		if !decode {
			return nil
		}
		resp.Mean, resp.Variance = resp.Mean[:0], resp.Variance[:0]
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			return err
		}
		if len(resp.Mean) != len(r.qs) || len(resp.Variance) != len(r.qs) {
			return fmt.Errorf("reply has %d means for %d queries", len(resp.Mean), len(r.qs))
		}
		copy(means, resp.Mean)
		copy(vars, resp.Variance)
		return nil
	}
}

// getJSON reads one of the server's JSON endpoints.
func (t *httpTarget) getJSON(path string, v any) error {
	res, err := t.hc.Get(t.ts.URL + path)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, res.StatusCode)
	}
	return json.NewDecoder(res.Body).Decode(v)
}

// checkEvery is the stride, in predictions, of the answer check.
const checkEvery = 256

// checkAnswer compares one decoded answer with the request's oracle.
func checkAnswer(c *checks, r *request, means, vars []float64, hasVar bool) {
	good := true
	for i := range r.qs {
		good = good && closeTo(means[i], r.want[i], 1e-9) && (!hasVar || vars[i] > 0)
	}
	c.ok(good, "prediction differs from the oracle at θ* (first mean %.12g, want %.12g)", means[0], r.want[0])
}

// loadClient is the one closed-loop client behind every burst of requests:
// it sends its next request when the previous one completes. One client, because two
// busy threads on this host's two processors never both run undisturbed
// (README.md, "Why these estimators").
type loadClient struct {
	fn          clientFn
	gen         *mixGen
	means, vars []float64
	hasVar      bool
	since       int // predictions since the last checked answer
	c           checks
}

func newLoadClient(tg target, p *pools, seed int64) *loadClient {
	lc := &loadClient{fn: tg.client(), gen: newMixGen(seed, 0, p), hasVar: tg.hasVariance(),
		means: make([]float64, largeQueries), vars: make([]float64, largeQueries)}
	// Untimed warm-up: the connection, pooled scratch, both batch widths.
	for i := 0; i < 8; i++ {
		_ = lc.fn(&p.small[i], lc.means, lc.vars, false)
		_ = lc.fn(&p.large[i], lc.means, lc.vars, false)
	}
	return lc
}

// burstStat is what one burst of requests measured: every request's latency
// by size class (ms) and the queries answered per second.
type burstStat struct {
	smallMS, largeMS []float64
	rate             float64
}

// burst sends whole blocks of the seeded mix until d has passed, so every
// burst is the same work per block. Each request counts as one attempted
// operation, and every checkEvery-th prediction is compared with the oracle.
func (lc *loadClient) burst(d time.Duration) burstStat {
	var b burstStat
	blocks := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < mixBlock; i++ {
			r := lc.gen.next()
			lc.since += len(r.qs)
			decode := lc.since >= checkEvery
			t0 := time.Now()
			err := lc.fn(r, lc.means, lc.vars, decode)
			ms := time.Since(t0).Seconds() * 1e3
			if !lc.c.ok(err == nil, "request failed: %v", err) {
				continue
			}
			if len(r.qs) == largeQueries {
				b.largeMS = append(b.largeMS, ms)
			} else {
				b.smallMS = append(b.smallMS, ms)
			}
			if decode {
				lc.since = 0
				checkAnswer(&lc.c, r, lc.means, lc.vars, lc.hasVar)
			}
		}
		blocks++
	}
	b.rate = float64(blocks*blockQueries) / time.Since(start).Seconds()
	return b
}
