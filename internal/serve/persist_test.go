package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/store"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// openStore opens a store for a serve test.
func openStore(t *testing.T, dir string) (*store.Store, *store.RecoveryStats) {
	t.Helper()
	st, stats, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, stats
}

// predictBody runs one fixed predict request and returns the raw response
// bytes — the unit of the bitwise-identical recovery contract.
func recoveredPredictBody(t *testing.T, ts *httptest.Server, model string) []byte {
	t.Helper()
	req := PredictRequest{Queries: []QueryJSON{
		{X: 120, Y: 80, T: 1, Response: 0, Covariates: []float64{1, 0.5}},
		{X: 310.5, Y: 211.25, T: 2, Response: 0, Covariates: []float64{1, -1.5}},
		{X: 42, Y: 42, T: 0, Response: 0},
	}}
	buf, _ := jsonMarshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/models/"+model+"/predict", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, out.Bytes())
	}
	return out.Bytes()
}

func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// TestRestartRecoversBitwiseIdenticalPredictions is the core durability
// contract: fit a model with a store attached, tear the server down, build
// a fresh server over the same store, and the recovered model must answer
// the same predict request with byte-identical output — without running a
// single fit.
func TestRestartRecoversBitwiseIdenticalPredictions(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	srv := New(Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/models",
		FitRequest{Name: "m", Gen: tinyGen(), MaxIter: 6})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fit status %d: %s", resp.StatusCode, body)
	}
	before := recoveredPredictBody(t, ts, "m")
	var stBefore Stats
	getJSON(t, ts.Client(), ts.URL+"/stats", &stBefore)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	st.Close()

	// "Restart": a fresh store handle and a fresh server over the same dir.
	st2, stats2 := openStore(t, dir)
	if stats2.Degraded() {
		t.Fatalf("clean restart reports degraded store: %s", stats2)
	}
	srv2 := New(Options{Store: st2, Recovery: stats2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var st2nd Stats
	getJSON(t, ts2.Client(), ts2.URL+"/stats", &st2nd)
	if st2nd.Models != 1 {
		t.Fatalf("recovered %d models, want 1", st2nd.Models)
	}
	if st2nd.Fits != 0 {
		t.Fatalf("restart ran %d fits; recovery must not re-optimize", st2nd.Fits)
	}
	if st2nd.RecoveredModels != 1 {
		t.Fatalf("recovered_models = %d, want 1", st2nd.RecoveredModels)
	}
	after := recoveredPredictBody(t, ts2, "m")
	if !bytes.Equal(before, after) {
		t.Fatalf("recovered predictions differ:\n pre-restart %s\npost-restart %s", before, after)
	}
	// The model card survives too (θ, spec identity).
	var info ModelInfo
	if code := getJSON(t, ts2.Client(), ts2.URL+"/v1/models/m", &info); code != http.StatusOK {
		t.Fatalf("model card status %d", code)
	}
	if len(info.Theta) == 0 {
		t.Fatal("recovered model card lost θ")
	}
	// Readiness is clean after an orderly restart.
	var ready map[string]any
	if code := getJSON(t, ts2.Client(), ts2.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	if ready["status"] != "ready" {
		t.Fatalf("readyz = %v, want ready", ready)
	}
}

// TestRefitPersistsNewGeneration: a refit durably publishes a new
// generation, and a restart serves the refitted model.
func TestRefitPersistsNewGeneration(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	srv := New(Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/models",
		FitRequest{Name: "m", Gen: tinyGen(), MaxIter: 6}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	seed := int64(99)
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/models/m/refit",
		RefitRequest{Seed: &seed}); resp.StatusCode != http.StatusOK {
		t.Fatalf("refit: %d %s", resp.StatusCode, body)
	}
	refitted := recoveredPredictBody(t, ts, "m")
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	gen, ok := st.Generation("m")
	if !ok || gen != 2 {
		t.Fatalf("store generation = %d (ok=%v), want 2 after refit", gen, ok)
	}
	st.Close()

	st2, stats2 := openStore(t, dir)
	srv2 := New(Options{Store: st2, Recovery: stats2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	after := recoveredPredictBody(t, ts2, "m")
	if !bytes.Equal(refitted, after) {
		t.Fatal("restart does not serve the refitted (reseeded) generation")
	}
}

// TestCorruptCheckpointServesPreviousGenerationDegraded: flip a byte in the
// current generation on disk; the restarted server quarantines it, serves
// the previous generation, and reports degraded with recovery counters on
// /readyz.
func TestCorruptCheckpointServesPreviousGenerationDegraded(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	srv := New(Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/models",
		FitRequest{Name: "m", Gen: tinyGen(), MaxIter: 6}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	gen1Body := recoveredPredictBody(t, ts, "m")
	seed := int64(99)
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/models/m/refit",
		RefitRequest{Seed: &seed}); resp.StatusCode != http.StatusOK {
		t.Fatalf("refit: %d %s", resp.StatusCode, body)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	st.Close()

	// Corrupt generation 2 (the current one).
	genPath := filepath.Join(dir, "models", "m", "gen-000000000002.ckpt")
	data, err := os.ReadFile(genPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(genPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, stats2 := openStore(t, dir)
	if !stats2.Degraded() || stats2.Quarantined != 1 || stats2.FellBack != 1 {
		t.Fatalf("store recovery stats = %s", stats2)
	}
	srv2 := New(Options{Store: st2, Recovery: stats2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// Serving the previous generation, bitwise.
	after := recoveredPredictBody(t, ts2, "m")
	if !bytes.Equal(gen1Body, after) {
		t.Fatal("fallback does not serve generation 1's predictions")
	}
	var ready map[string]any
	if code := getJSON(t, ts2.Client(), ts2.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("readyz status %d (degraded still serves)", code)
	}
	if ready["status"] != "degraded" {
		t.Fatalf("readyz status = %v, want degraded", ready["status"])
	}
	rec, ok := ready["store_recovery"].(map[string]any)
	if !ok {
		t.Fatalf("readyz body lacks store_recovery counters: %v", ready)
	}
	if rec["quarantined"].(float64) != 1 {
		t.Fatalf("store_recovery = %v", rec)
	}
}

// TestInterruptedFitResumesOnRestart: kill a fit mid-search (via the
// server's own shutdown cancellation), then restart — the fit-state
// checkpoint resumes the mode search from its last iterate and the model
// comes up registered, matching the uninterrupted fit's θ.
func TestInterruptedFitResumesOnRestart(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	srv := New(Options{Store: st})

	// Cancel the fit right after its first checkpoint hit disk: the moral
	// equivalent of SIGKILL after iteration 1's state was written. The
	// optimizer sees the cancellation at the next iteration boundary, so the
	// fit cannot finish first however the goroutines are scheduled.
	srv.fitStateSaved = srv.fitCancel
	_, fitErr := srv.FitModel(FitRequest{Name: "m", Gen: tinyGen(), MaxIter: 6})
	if fitErr == nil {
		t.Fatal("canceled fit reported success")
	}
	st.Close()

	// Restart: the interrupted fit resumes and registers.
	st2, stats2 := openStore(t, dir)
	if stats2.FitStates != 1 {
		t.Fatalf("fit states found = %d, want 1", stats2.FitStates)
	}
	srv2 := New(Options{Store: st2, Recovery: stats2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var stats Stats
	getJSON(t, ts2.Client(), ts2.URL+"/stats", &stats)
	if stats.Models != 1 || stats.ResumedFits != 1 {
		t.Fatalf("models=%d resumed_fits=%d, want 1/1", stats.Models, stats.ResumedFits)
	}

	// The resumed fit must land on the same θ as an uninterrupted fit.
	ds, err := synth.Generate(synth.GenConfig{Nv: 1, Nt: 3, Nr: 2, MeshNx: 4, MeshNy: 4, ObsPerStep: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts := inla.DefaultFitOptions()
	opts.Opt.MaxIter = 6
	opts.SkipHyperUncertainty = true
	ref, err := inla.Fit(ds.Model, inla.WeakPrior(ds.Theta0, 5), ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfo
	getJSON(t, ts2.Client(), ts2.URL+"/v1/models/m", &info)
	if len(info.Theta) != len(ref.Theta) {
		t.Fatalf("θ dimension %d vs %d", len(info.Theta), len(ref.Theta))
	}
	for i := range ref.Theta {
		d := info.Theta[i] - ref.Theta[i]
		if d < -1e-8 || d > 1e-8 {
			t.Fatalf("resumed θ[%d]=%v, uninterrupted %v", i, info.Theta[i], ref.Theta[i])
		}
	}
	// The fit state was consumed: no stale resume on the next restart. The
	// resumed fit's checkpoint is published (and its fit state cleared) by the
	// async persister, so flush it first — as a real restart's shutdown would.
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	states, err := st2.FitStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatalf("fit state not cleared after resume: %d left", len(states))
	}
}

// TestShutdownFlushesPendingCheckpoints: a model registered right before
// Shutdown still reaches the store — the drain flushes the persister queue
// and logs a per-model summary.
func TestShutdownFlushesPendingCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	var logMu sync.Mutex
	var logLines []string
	srv := New(Options{Store: st, Logf: func(format string, args ...any) {
		logMu.Lock()
		logLines = append(logLines, sprintf(format, args...))
		logMu.Unlock()
	}})
	m, err := srv.FitModel(FitRequest{Name: "m", Gen: tinyGen(), MaxIter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(m); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("m"); err != nil {
		t.Fatalf("checkpoint not flushed by Shutdown: %v", err)
	}
	logMu.Lock()
	defer logMu.Unlock()
	joined := strings.Join(logLines, "\n")
	if !strings.Contains(joined, "published m generation 1") {
		t.Fatalf("no per-model flush line in shutdown log:\n%s", joined)
	}
	if !strings.Contains(joined, "persistence flush") {
		t.Fatalf("no flush summary line in shutdown log:\n%s", joined)
	}
}

// TestDrainingRejectsFitAndRefit: once Shutdown begins, fit and refit
// requests answer 503 + Retry-After instead of starting seconds of doomed
// BFGS work.
func TestDrainingRejectsFitAndRefit(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/models", FitRequest{Name: "m", Gen: tinyGen()})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("fit during drain: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/models/m/refit", RefitRequest{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("refit during drain: status %d", resp.StatusCode)
	}
}

// TestDeleteRemovesFromStore: DELETE on a model with a store removes its
// durable generations too — a restart does not resurrect it.
func TestDeleteRemovesFromStore(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	srv := New(Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/models",
		FitRequest{Name: "m", Gen: tinyGen(), MaxIter: 4}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	if err := waitStoreHas(st, "m"); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/m", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	srv.Shutdown(context.Background())
	ts.Close()
	st.Close()

	st2, stats2 := openStore(t, dir)
	srv2 := New(Options{Store: st2, Recovery: stats2})
	_ = srv2
	var stats Stats
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	getJSON(t, ts2.Client(), ts2.URL+"/stats", &stats)
	if stats.Models != 0 {
		t.Fatalf("deleted model resurrected: %d models", stats.Models)
	}
}

// waitStoreHas polls until the async persister has published the model.
func waitStoreHas(st *store.Store, name string) error {
	for i := 0; ; i++ {
		if _, err := st.Load(name); err == nil {
			return nil
		} else if i > 2000 {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownWithExpiredContextStillFlushes: the drain context being
// already exhausted must not drop queued checkpoints — the flush runs
// under its own deadline, independent of the drain's.
func TestShutdownWithExpiredContextStillFlushes(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	srv := New(Options{Store: st})
	m, err := srv.FitModel(FitRequest{Name: "m", Gen: tinyGen(), MaxIter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(m); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Shutdown reports the drain-context error, but the checkpoint must be
	// durable regardless.
	_ = srv.Shutdown(ctx)
	if _, err := st.Load("m"); err != nil {
		t.Fatalf("expired drain context dropped the pending checkpoint: %v", err)
	}
}

// TestFitRejectsPathTraversalNames: "." and ".." would escape the store's
// models/ directory; the HTTP layer answers 400 before running the fit.
func TestFitRejectsPathTraversalNames(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, name := range []string{".", ".."} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/models", FitRequest{Name: name, Gen: tinyGen()})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("fit with name %q: status %d, body %s", name, resp.StatusCode, body)
		}
	}
}
