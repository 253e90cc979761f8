// Package serve implements the dalia-serve batch inference server: a
// long-lived HTTP JSON service holding a registry of fitted
// spatio-temporal models (fit once, serve many) and answering posterior
// prediction queries through the internal/predict engine. Each model's
// posterior (latent mean and the selected inverse of Q_c at the mode) is
// frozen into an immutable predict.Snapshot that a pool of worker replicas
// queries concurrently with zero locking; concurrent point queries are
// coalesced by a per-model batcher into single snapshot passes, with an
// SLO-driven flush policy bounding tail latency. Refits publish a new
// snapshot through an atomic handle swap without blocking in-flight reads.
//
// Endpoints:
//
//	GET    /healthz                   liveness probe
//	GET    /readyz                    readiness probe (ready/degraded/draining)
//	GET    /stats                     serving counters (JSON)
//	GET    /v1/models                 list registered models
//	POST   /v1/models                 fit + register a model from a dataset spec
//	GET    /v1/models/{name}          model card (dims, θ*, fit time)
//	DELETE /v1/models/{name}          unregister
//	POST   /v1/models/{name}/predict  batched posterior prediction
//	POST   /v1/models/{name}/refit    refit and atomically swap the snapshot
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/predict"
	"github.com/dalia-hpc/dalia/internal/store"
	"github.com/dalia-hpc/dalia/internal/synth"
)

var errStopped = errors.New("serve: model unregistered while request was queued")

// persistFlushTimeout bounds the drain-time checkpoint flush independently
// of the batcher drain: the drain context may already be exhausted when the
// flush starts, and dalia-serve exits right after Shutdown returns, so
// riding on that context would silently drop still-queued checkpoints.
const persistFlushTimeout = 10 * time.Second

// ErrServerClosed is what queued and subsequent prediction requests fail
// with once a graceful drain (Server.Shutdown) has begun; the HTTP layer
// maps it to 503 + Retry-After.
var ErrServerClosed = errors.New("serve: server is shutting down")

// ErrOverloaded is returned when a model's bounded admission queue is full;
// the HTTP layer maps it to 429 + Retry-After so well-behaved clients back
// off instead of piling on.
var ErrOverloaded = errors.New("serve: request queue is full")

// Options configures a Server.
type Options struct {
	// BatchWindow is how long a batch worker holds the first query of a
	// batch open for concurrent arrivals. 0 flushes as soon as the queue
	// momentarily drains (lowest latency, still coalescing bursts).
	BatchWindow time.Duration
	// SLO is the per-request latency target the flush policy protects: a
	// collecting batch flushes early once the oldest queued request's
	// remaining budget (SLO − time already waited) drops below the
	// expected batch-solve time, estimated from a decaying latency model.
	// Layered on the width/window triggers; 0 disables the policy.
	SLO time.Duration
	// Replicas sizes each model's batch-worker pool. Every replica reads
	// the model's immutable snapshot lock-free, so replicas scale
	// concurrent solves across cores. ≤ 0 = GOMAXPROCS.
	Replicas int
	// RequestTimeout bounds each prediction request end to end (admission
	// wait + batched solve); expiry answers 504. 0 = no deadline.
	RequestTimeout time.Duration
	// QueueDepth bounds each model's admission queue: that many pending
	// requests may wait for a batch slot before further arrivals are shed
	// with 429 + Retry-After. ≤ 0 = the default of 64.
	QueueDepth int
	// DrainTimeout bounds how long Shutdown waits for in-flight batches
	// before giving up. 0 = wait indefinitely (callers usually bound the
	// enclosing context instead).
	DrainTimeout time.Duration
	// Store, when set, makes fitted models durable: every fit/refit is
	// checkpointed asynchronously, in-flight fits persist their optimizer
	// state for resume, and New rebuilds the registry from the store
	// without re-optimizing. nil = memory-only (the historical behavior).
	Store *store.Store
	// Recovery carries the store's own open-time repair stats (what
	// store.Open quarantined or rolled back) so /readyz can surface them.
	Recovery *store.RecoveryStats
	// CheckpointEvery is the BFGS iteration stride of in-flight fit-state
	// persistence (≤ 0 = every iteration). Only meaningful with Store.
	CheckpointEvery int
	// Logf, when set, receives operational log lines (recovery, persistence,
	// flush summaries). nil = silent.
	Logf func(format string, args ...any)
}

// Server is the dalia-serve HTTP application state.
type Server struct {
	opts  Options
	start time.Time
	mux   *http.ServeMux

	reg *registry

	// counters surfaced by /stats
	fits        atomic.Int64
	refits      atomic.Int64
	predictReqs atomic.Int64
	queries     atomic.Int64

	// resilience state: draining flips when Shutdown begins (readiness goes
	// 503 so load balancers stop routing here); panics counts requests the
	// recovery middleware turned into 500s instead of letting the process
	// die. Either sheds or panics > 0 degrades /readyz (still serving, but
	// an operator should look).
	draining atomic.Bool
	panics   atomic.Int64

	// persistence state: fitCtx is canceled by Shutdown so in-flight fits
	// and refits abort at their next checkpoint boundary; persist is the
	// async checkpoint writer (nil without a store). The counters feed
	// /stats and the /readyz degraded signal.
	fitCtx    context.Context
	fitCancel context.CancelFunc
	persist   *persister
	// fitStateSaved, when set, runs after every fit-state write; tests
	// use it to interrupt a fit at an exact iteration.
	fitStateSaved    func()
	recoveredModels  atomic.Int64
	resumedFits      atomic.Int64
	recoveryFailures atomic.Int64
	persisted        atomic.Int64
	persistErrors    atomic.Int64
}

// fitMeta is the part of a model card a refit replaces: published through
// an atomic pointer next to the snapshot handle so /v1/models/{name} never
// reads a half-updated card.
type fitMeta struct {
	theta      []float64
	fitSeconds float64
}

// servedModel couples one fitted model with its snapshot handle and request
// batcher. The handle is the publication point: the batcher's worker
// replicas load the current immutable snapshot per batch, and a refit swaps
// a new one in without blocking them.
type servedModel struct {
	name      string
	spec      string
	req       FitRequest      // the fit recipe, kept for refits
	gen       synth.GenConfig // resolved generation config of the serving fit
	dims      coreg.Dims
	width     float64 // spatial domain extent [0,width]×[0,height] (km)
	height    float64
	createdAt time.Time
	handle    *predict.Handle
	batcher   *batcher
	meta      atomic.Pointer[fitMeta]
	refitting atomic.Bool // single-flight guard for refits
	refits    atomic.Int64
	// pending is the not-yet-persisted fit outcome Register hands to the
	// checkpoint writer (nil once enqueued, and always nil without a store).
	pending *fitOutcome
}

// New builds a server. With Options.Store set the registry is first
// rebuilt from the durable checkpoints (no re-optimization) and interrupted
// fits are resumed from their last BFGS iterate; otherwise the registry
// starts empty.
func New(opts Options) *Server {
	s := &Server{opts: opts, start: time.Now(), reg: newRegistry()}
	s.fitCtx, s.fitCancel = context.WithCancel(context.Background())
	if opts.Store != nil {
		s.persist = newPersister(opts.Store, s.logf, func(e flushEntry) {
			if e.err != nil {
				s.persistErrors.Add(1)
				s.logf("store: publish %s: %v", e.name, e.err)
				return
			}
			s.persisted.Add(1)
			s.logf("store: published %s generation %d", e.name, e.gen)
		})
		s.recoverFromStore()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /v1/models", s.handleListModels)
	mux.HandleFunc("POST /v1/models", s.handleFitModel)
	mux.HandleFunc("GET /v1/models/{name}", s.handleGetModel)
	mux.HandleFunc("DELETE /v1/models/{name}", s.handleDeleteModel)
	mux.HandleFunc("POST /v1/models/{name}/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/models/{name}/refit", s.handleRefit)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree (also used by httptest servers and
// the serving benchmarks), wrapped in the panic-recovery middleware: a
// panicking handler answers its own request with a 500 and increments the
// panic counter instead of killing the connection (or, for a panic that
// escapes the handler goroutine entirely, the process).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				writeErr(w, http.StatusInternalServerError, "internal error: %v", rec)
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Shutdown begins a graceful drain: readiness flips to 503 (so load
// balancers stop routing here), in-flight fits and refits are canceled at
// their next checkpoint boundary (the persisted optimizer state lets a
// restart resume them), every model batcher stops accepting work — queued
// and subsequent requests fail with ErrServerClosed (503 + Retry-After) —
// in-flight batches run to completion, and pending model checkpoints are
// flushed to the store with a per-model summary logged — the flush runs
// under its own short deadline even when the batcher drain timed out, so a
// slow drain never drops checkpoints. Returns once the drain has completed
// (or Options.DrainTimeout / ctx cut it short) and the flush has finished
// or hit its deadline. Safe to call repeatedly.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.fitCancel()
	if s.opts.DrainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.DrainTimeout)
		defer cancel()
	}
	models := s.reg.snapshotAll()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, m := range models {
			m.batcher.shutdown(ErrServerClosed)
		}
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}
	if s.persist != nil {
		// The flush runs even when the batcher drain timed out, and under a
		// fresh deadline of its own — the documented contract is that pending
		// checkpoints reach the store before the process exits. The persister
		// logs one line per model as each checkpoint lands; this summary line
		// bounds what the drain still had in flight.
		flushCtx, cancel := context.WithTimeout(context.Background(), persistFlushTimeout)
		pending, err := s.persist.close(flushCtx)
		cancel()
		s.logf("persistence flush: %d checkpoint(s) pending at drain, %d published, %d errors",
			pending, s.persisted.Load(), s.persistErrors.Load())
		if err != nil {
			rem := s.persist.remaining()
			s.logf("persistence flush: gave up after %v with %d checkpoint(s) still queued (%s)",
				persistFlushTimeout, len(rem), strings.Join(rem, ", "))
			if drainErr == nil {
				drainErr = err
			}
		}
	}
	return drainErr
}

// --- request/response schemas ---

// GenSpec is the JSON shape of a custom synthetic dataset configuration
// (mirrors synth.GenConfig; Gaussian likelihood only — the serving API
// predicts on the response scale).
type GenSpec struct {
	Nv         int     `json:"nv"`
	Nt         int     `json:"nt"`
	Nr         int     `json:"nr"`
	MeshNx     int     `json:"mesh_nx"`
	MeshNy     int     `json:"mesh_ny"`
	Width      float64 `json:"width,omitempty"`
	Height     float64 `json:"height,omitempty"`
	ObsPerStep int     `json:"obs_per_step"`
	Seed       int64   `json:"seed"`
}

// FitRequest registers a new model. Exactly one of Spec (a Table IV dataset
// ID such as "MB1") or Gen must be given.
type FitRequest struct {
	Name string   `json:"name"`
	Spec string   `json:"spec,omitempty"`
	Gen  *GenSpec `json:"gen,omitempty"`
	// MaxIter caps the BFGS mode search (default 25).
	MaxIter int `json:"max_iter,omitempty"`
	// IncludeNoise folds Gaussian observation noise into every predictive
	// variance served by this model.
	IncludeNoise bool `json:"include_noise,omitempty"`
	// MaxBatch overrides the batcher's coalescing width, in queries per
	// snapshot pass (default 64).
	MaxBatch int `json:"max_batch,omitempty"`
}

// RefitRequest re-runs a model's fit and atomically swaps the published
// snapshot. With no body (or an empty one) the original recipe is repeated;
// Seed refits against a regenerated dataset (the rolling-data case),
// MaxIter overrides the BFGS cap for this refit only.
type RefitRequest struct {
	Seed    *int64 `json:"seed,omitempty"`
	MaxIter int    `json:"max_iter,omitempty"`
}

// QueryJSON is one prediction query.
type QueryJSON struct {
	X          float64   `json:"x"`
	Y          float64   `json:"y"`
	T          int       `json:"t"`
	Response   int       `json:"response"`
	Covariates []float64 `json:"covariates,omitempty"`
}

// PredictRequest asks for posterior predictive laws at a set of locations.
type PredictRequest struct {
	Queries []QueryJSON `json:"queries"`
}

// PredictResponse returns the predictive means, variances and standard
// deviations in query order.
type PredictResponse struct {
	Mean     []float64 `json:"mean"`
	Variance []float64 `json:"variance"`
	SD       []float64 `json:"sd"`
}

// ModelInfo is the model card returned by the registry endpoints.
type ModelInfo struct {
	Name       string    `json:"name"`
	Spec       string    `json:"spec,omitempty"`
	Nv         int       `json:"nv"`
	Ns         int       `json:"ns"`
	Nt         int       `json:"nt"`
	Nr         int       `json:"nr"`
	LatentDim  int       `json:"latent_dim"`
	Width      float64   `json:"width"`
	Height     float64   `json:"height"`
	Theta      []float64 `json:"theta"`
	FitSeconds float64   `json:"fit_seconds"`
	CreatedAt  time.Time `json:"created_at"`
	MaxBatch   int       `json:"max_batch"`
	Refits     int64     `json:"refits,omitempty"`
}

// Stats is the /stats payload.
type Stats struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Models          int     `json:"models"`
	Fits            int64   `json:"fits"`
	Refits          int64   `json:"refits"`
	PredictRequests int64   `json:"predict_requests"`
	Queries         int64   `json:"queries"`
	Batches         int64   `json:"batches"`
	AvgBatchSize    float64 `json:"avg_batch_size"`
	MaxBatchSize    int64   `json:"max_batch_size"`
	SLOFlushes      int64   `json:"slo_flushes"`
	ShedRequests    int64   `json:"shed_requests"`
	RecoveredPanics int64   `json:"recovered_panics"`
	Replicas        int     `json:"replicas_per_model"`
	// Persistence counters (all zero without a store). RecoveredModels is
	// how many models startup restored from durable checkpoints without
	// re-optimizing; ResumedFits how many interrupted fits continued from
	// their last BFGS iterate.
	RecoveredModels      int64 `json:"recovered_models,omitempty"`
	ResumedFits          int64 `json:"resumed_fits,omitempty"`
	RecoveryFailures     int64 `json:"recovery_failures,omitempty"`
	PersistedCheckpoints int64 `json:"persisted_checkpoints,omitempty"`
	PersistErrors        int64 `json:"persist_errors,omitempty"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before touching the response so an encoding failure can still
	// surface as a 500 instead of a 200 with an empty body.
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(data, '\n'))
}

// writePredictResponse hand-encodes the prediction reply. The predict hot
// path writes thousands of replies per second, and reflective
// encoding/json marshaling of three float arrays costs more than the
// solves they carry; strconv.AppendFloat's shortest-round-trip format
// produces numbers that parse back to the same float64 at a fraction of
// the cost.
func writePredictResponse(w http.ResponseWriter, resp *PredictResponse) {
	buf := make([]byte, 0, 32+20*3*len(resp.Mean))
	buf = append(buf, `{"mean":`...)
	buf = appendFloats(buf, resp.Mean)
	buf = append(buf, `,"variance":`...)
	buf = appendFloats(buf, resp.Variance)
	buf = append(buf, `,"sd":`...)
	buf = appendFloats(buf, resp.SD)
	buf = append(buf, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// appendFloats appends a JSON array of finite float64s (predictive means
// and variances are validated finite upstream; a non-finite value would
// already have failed the solve).
func appendFloats(buf []byte, vs []float64) []byte {
	buf = append(buf, '[')
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, ']')
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports serving readiness: 503 "draining" once Shutdown has
// begun (liveness stays green — the process is healthy, just leaving the
// pool), 200 "degraded" when the server has shed load, recovered handler
// panics, or the persistence layer repaired/quarantined anything on the
// way up (still serving — possibly an older generation — but an operator
// should look), 200 "ready" otherwise. With a store attached the body
// carries the recovery counters either way.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	degraded := s.reg.totals().sheds > 0 || s.panics.Load() > 0
	body := map[string]any{}
	if s.opts.Store != nil {
		body["recovered_models"] = s.recoveredModels.Load()
		body["resumed_fits"] = s.resumedFits.Load()
		body["recovery_failures"] = s.recoveryFailures.Load()
		body["persist_errors"] = s.persistErrors.Load()
		if s.recoveryFailures.Load() > 0 || s.persistErrors.Load() > 0 {
			degraded = true
		}
		if rec := s.opts.Recovery; rec != nil {
			body["store_recovery"] = rec
			if rec.Degraded() {
				degraded = true
			}
		}
	}
	if degraded {
		body["status"] = "degraded"
	} else {
		body["status"] = "ready"
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	t := s.reg.totals()
	st := Stats{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Models:          t.models,
		Fits:            s.fits.Load(),
		Refits:          s.refits.Load(),
		PredictRequests: s.predictReqs.Load(),
		Queries:         s.queries.Load(),
		Batches:         t.batches,
		MaxBatchSize:    t.maxBatch,
		SLOFlushes:      t.sloFlushes,
		ShedRequests:    t.sheds,
		RecoveredPanics: s.panics.Load(),
		Replicas:        s.replicas(),

		RecoveredModels:      s.recoveredModels.Load(),
		ResumedFits:          s.resumedFits.Load(),
		RecoveryFailures:     s.recoveryFailures.Load(),
		PersistedCheckpoints: s.persisted.Load(),
		PersistErrors:        s.persistErrors.Load(),
	}
	if t.batches > 0 {
		st.AvgBatchSize = float64(t.batchedQs) / float64(t.batches)
	}
	writeJSON(w, http.StatusOK, st)
}

// replicas reports the effective per-model worker pool size.
func (s *Server) replicas() int {
	if s.opts.Replicas > 0 {
		return s.opts.Replicas
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Server) handleListModels(w http.ResponseWriter, _ *http.Request) {
	models := s.reg.snapshotAll()
	infos := make([]ModelInfo, 0, len(models))
	for _, m := range models {
		infos = append(infos, m.info())
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	m, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no model %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, m.info())
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, ok := s.reg.get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "no model %q", name)
		return
	}
	// Join the workers first so their final flushes are counted, then fold
	// the dead batcher's counters and remove the model in one critical
	// section — /stats (which reads under the same registry lock) never sees
	// the counters move backwards. Requests arriving while the batcher
	// winds down fail with errStopped and are answered 404.
	m.batcher.shutdown(nil)
	if !s.reg.remove(m) {
		writeErr(w, http.StatusNotFound, "no model %q", name)
		return
	}
	if s.opts.Store != nil {
		if err := s.opts.Store.Delete(name); err != nil {
			s.persistErrors.Add(1)
			s.logf("store: delete %s: %v", name, err)
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleFitModel(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req FitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, "missing model name")
		return
	}
	// Names become store directory keys; "." and ".." would escape the
	// store's models/ directory, so reject them here with a 400 rather than
	// letting the async persister fail after the fit already ran.
	if err := store.ValidateName(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Reserve the name before the (potentially multi-second) fit so a
	// concurrent duplicate request conflicts immediately instead of both
	// running the full INLA fit and one result being discarded.
	if !s.reg.reserve(req.Name) {
		writeErr(w, http.StatusConflict, "model %q already registered", req.Name)
		return
	}
	defer s.reg.release(req.Name)
	m, err := s.FitModel(req)
	if err != nil {
		if errors.Is(err, inla.ErrFitCanceled) {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "fit aborted: server is draining")
			return
		}
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.Register(m); err != nil {
		m.batcher.shutdown(nil)
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, m.info())
}

// handleRefit re-runs a registered model's fit (optionally against a
// reseeded dataset) and publishes the resulting snapshot through the atomic
// handle swap — in-flight predictions finish against the old snapshot, new
// batches read the fresh one, and no reader ever blocks on the fit.
func (s *Server) handleRefit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.PathValue("name")
	m, ok := s.reg.get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "no model %q", name)
		return
	}
	var req RefitRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
			return
		}
	}
	// Refits are single-flight per model: the fit is seconds of work, and
	// two concurrent refits would race their swaps in arbitrary order.
	if !m.refitting.CompareAndSwap(false, true) {
		writeErr(w, http.StatusConflict, "model %q is already refitting", name)
		return
	}
	defer m.refitting.Store(false)
	fitReq := m.req
	if req.MaxIter > 0 {
		fitReq.MaxIter = req.MaxIter
	}
	out, err := s.fitSnapshot(fitReq, req.Seed)
	if err != nil {
		if errors.Is(err, inla.ErrFitCanceled) {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "refit aborted: server is draining")
			return
		}
		writeErr(w, http.StatusBadRequest, "refit: %v", err)
		return
	}
	m.meta.Store(out.meta)
	m.handle.Swap(out.snap)
	m.refits.Add(1)
	s.refits.Add(1)
	s.persistModel(m, out)
	writeJSON(w, http.StatusOK, m.info())
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	m, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no model %q", r.PathValue("name"))
		return
	}
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, "no queries")
		return
	}
	qs := make([]predict.Query, len(req.Queries))
	for i, q := range req.Queries {
		// Validate here so one malformed query cannot fail an entire
		// coalesced batch of unrelated requests.
		// The domain check below is false for NaN, and a NaN coordinate
		// reaching mesh location would take down the whole coalesced batch
		// — reject non-finite numbers explicitly.
		if !isFinite(q.X) || !isFinite(q.Y) {
			writeErr(w, http.StatusBadRequest, "query %d: non-finite coordinates (%g,%g)", i, q.X, q.Y)
			return
		}
		if q.X < 0 || q.X > m.width || q.Y < 0 || q.Y > m.height {
			writeErr(w, http.StatusBadRequest, "query %d: point (%g,%g) outside the model domain [0,%g]×[0,%g]",
				i, q.X, q.Y, m.width, m.height)
			return
		}
		for _, c := range q.Covariates {
			if !isFinite(c) {
				writeErr(w, http.StatusBadRequest, "query %d: non-finite covariate %g", i, c)
				return
			}
		}
		if q.T < 0 || q.T >= m.dims.Nt {
			writeErr(w, http.StatusBadRequest, "query %d: time index %d outside [0,%d)", i, q.T, m.dims.Nt)
			return
		}
		if q.Response < 0 || q.Response >= m.dims.Nv {
			writeErr(w, http.StatusBadRequest, "query %d: response %d outside [0,%d)", i, q.Response, m.dims.Nv)
			return
		}
		if q.Covariates != nil && len(q.Covariates) != m.dims.Nr {
			writeErr(w, http.StatusBadRequest, "query %d: %d covariates, want %d", i, len(q.Covariates), m.dims.Nr)
			return
		}
		qs[i] = predict.Query{
			Point:      mesh.Point{X: q.X, Y: q.Y},
			T:          q.T,
			Response:   q.Response,
			Covariates: q.Covariates,
		}
	}
	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	means, vars, err := m.batcher.do(ctx, qs)
	switch {
	case errors.Is(err, errStopped):
		// The model was deleted while this request was queued: a client
		// condition, not a server fault.
		writeErr(w, http.StatusNotFound, "model %q was unregistered", r.PathValue("name"))
		return
	case errors.Is(err, ErrServerClosed):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, "request deadline exceeded after %v", s.opts.RequestTimeout)
		return
	case errors.Is(err, context.Canceled):
		// The client went away; nobody reads this reply, but close the
		// exchange cleanly.
		writeErr(w, http.StatusServiceUnavailable, "request canceled")
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.predictReqs.Add(1)
	s.queries.Add(int64(len(qs)))
	resp := PredictResponse{Mean: means, Variance: vars, SD: make([]float64, len(vars))}
	for i, v := range vars {
		resp.SD[i] = sqrt(v)
	}
	writePredictResponse(w, &resp)
}

// fitOutcome bundles everything a completed fit produced: the frozen
// snapshot for serving, the resolved recipe for persistence and refits,
// and the raw inla.Result whose serialized bytes are the durable
// checkpoint payload.
type fitOutcome struct {
	snap   *predict.Snapshot
	req    FitRequest
	gen    synth.GenConfig // resolved (possibly reseeded) generation config
	specID string
	dims   coreg.Dims
	meta   *fitMeta
	res    *inla.Result
}

// FitModel generates the dataset, runs the INLA fit and freezes the
// prediction snapshot — the fit-once step of the registry. Exported so the
// serving benchmarks and the dalia-serve preload path can register models
// without going through HTTP.
func (s *Server) FitModel(req FitRequest) (*servedModel, error) {
	out, err := s.fitSnapshot(req, nil)
	if err != nil {
		return nil, err
	}
	return s.buildServedModel(req, out), nil
}

// buildServedModel wraps a fit outcome in its serving shell (handle +
// batcher), leaving the outcome attached for Register to persist.
func (s *Server) buildServedModel(req FitRequest, out *fitOutcome) *servedModel {
	width, height := out.gen.Width, out.gen.Height
	if width == 0 {
		width = 400 // synth.Generate's domain defaults
	}
	if height == 0 {
		height = 300
	}
	handle := predict.NewHandle(out.snap)
	m := &servedModel{
		name:      req.Name,
		spec:      out.specID,
		req:       req,
		gen:       out.gen,
		dims:      out.dims,
		width:     width,
		height:    height,
		createdAt: time.Now(),
		handle:    handle,
		batcher:   newBatcher(handle, s.opts),
	}
	m.meta.Store(out.meta)
	m.pending = out
	return m
}

// fitSnapshot is the shared fit core of FitModel and refits: resolve the
// dataset recipe (optionally reseeded) and run the fit.
func (s *Server) fitSnapshot(req FitRequest, seed *int64) (*fitOutcome, error) {
	gen, specID, err := resolveGen(req)
	if err != nil {
		return nil, err
	}
	if seed != nil {
		gen.Seed = *seed
	}
	return s.fitResolved(req, gen, specID, nil)
}

// fitResolved generates the dataset from an already-resolved recipe, runs
// the INLA fit (optionally resumed from a persisted optimizer checkpoint)
// and freezes the result into an immutable snapshot. The fit observes the
// server's shutdown context and, with a store attached, checkpoints its
// optimizer state so a kill mid-fit resumes instead of restarting.
func (s *Server) fitResolved(req FitRequest, gen synth.GenConfig, specID string, resume *inla.OptCheckpoint) (*fitOutcome, error) {
	ds, err := synth.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("dataset generation: %w", err)
	}
	maxIter := req.MaxIter
	if maxIter <= 0 {
		maxIter = 25
	}
	opts := inla.DefaultFitOptions()
	opts.Opt.MaxIter = maxIter
	// Serving needs the mode and the latent posterior; the θ-uncertainty
	// Hessian stage is skipped to keep registration fast.
	opts.SkipHyperUncertainty = true
	opts.Opt.Ctx = s.fitCtx
	opts.Opt.Resume = resume
	s.fitStateHooks(req, gen, specID, &opts)
	t0 := time.Now()
	prior := inla.WeakPrior(ds.Theta0, 5)
	res, err := inla.Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	fitSecs := time.Since(t0).Seconds()
	popts := []predict.Option{}
	if req.IncludeNoise {
		popts = append(popts, predict.WithObservationNoise())
	}
	if req.MaxBatch > 0 {
		popts = append(popts, predict.WithMaxBatch(req.MaxBatch))
	}
	snap, err := predict.NewSnapshot(ds.Model, res, popts...)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	meta := &fitMeta{theta: append([]float64(nil), res.Theta...), fitSeconds: fitSecs}
	return &fitOutcome{
		snap: snap, req: req, gen: gen, specID: specID,
		dims: ds.Model.Dims, meta: meta, res: res,
	}, nil
}

// Register inserts an externally fitted model into the registry (the
// non-HTTP twin of POST /v1/models, used by preloading and benchmarks) and
// hands its checkpoint to the async persister when a store is attached.
func (s *Server) Register(m *servedModel) error {
	if !s.reg.put(m) {
		return fmt.Errorf("serve: model %q already registered", m.name)
	}
	s.fits.Add(1)
	if out := m.pending; out != nil {
		m.pending = nil
		s.persistModel(m, out)
	}
	return nil
}

// resolveGen turns a FitRequest into a concrete generation config.
func resolveGen(req FitRequest) (synth.GenConfig, string, error) {
	switch {
	case req.Spec != "" && req.Gen != nil:
		return synth.GenConfig{}, "", fmt.Errorf("give either spec or gen, not both")
	case req.Spec != "":
		id := strings.ToUpper(req.Spec)
		for _, sp := range synth.AllSpecs() {
			if sp.ID == id {
				return sp.Gen, sp.ID, nil
			}
		}
		return synth.GenConfig{}, "", fmt.Errorf("unknown dataset spec %q", req.Spec)
	case req.Gen != nil:
		g := req.Gen
		if g.Nv < 1 || g.Nt < 1 || g.MeshNx < 2 || g.MeshNy < 2 || g.ObsPerStep < 1 {
			return synth.GenConfig{}, "", fmt.Errorf("invalid gen config: need nv≥1, nt≥1, mesh≥2×2, obs_per_step≥1")
		}
		if g.Width < 0 || g.Height < 0 {
			return synth.GenConfig{}, "", fmt.Errorf("invalid gen config: negative domain extent %g×%g", g.Width, g.Height)
		}
		return synth.GenConfig{
			Nv: g.Nv, Nt: g.Nt, Nr: g.Nr,
			MeshNx: g.MeshNx, MeshNy: g.MeshNy,
			Width: g.Width, Height: g.Height,
			ObsPerStep: g.ObsPerStep,
			Seed:       g.Seed,
		}, "", nil
	default:
		return synth.GenConfig{}, "", fmt.Errorf("missing dataset spec: give spec or gen")
	}
}

// Snapshot exposes the model's currently published prediction snapshot
// (used by the serving benchmarks to measure the raw engine path next to
// the HTTP path).
func (m *servedModel) Snapshot() *predict.Snapshot { return m.handle.Load() }

// Handle exposes the model's snapshot publication point.
func (m *servedModel) Handle() *predict.Handle { return m.handle }

// Dims exposes the model's dimensions.
func (m *servedModel) Dims() coreg.Dims { return m.dims }

func (m *servedModel) info() ModelInfo {
	meta := m.meta.Load()
	return ModelInfo{
		Name:       m.name,
		Spec:       m.spec,
		Nv:         m.dims.Nv,
		Ns:         m.dims.Ns,
		Nt:         m.dims.Nt,
		Nr:         m.dims.Nr,
		LatentDim:  m.dims.Total(),
		Width:      m.width,
		Height:     m.height,
		Theta:      meta.theta,
		FitSeconds: meta.fitSeconds,
		CreatedAt:  m.createdAt,
		MaxBatch:   m.handle.Load().MaxBatch(),
		Refits:     m.refits.Load(),
	}
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sqrt clamps tiny negative roundoff to zero before math.Sqrt.
func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
