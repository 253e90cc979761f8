package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// registerTiny fits and registers the tiny test model under name.
func registerTiny(t *testing.T, srv *Server, name string) *servedModel {
	t.Helper()
	m, err := srv.FitModel(FitRequest{Name: name, Gen: tinyGen(), MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func predictBody() PredictRequest {
	return PredictRequest{Queries: []QueryJSON{{X: 1, Y: 1, T: 0, Response: 0}}}
}

// Overload must shed deterministically: with the model's one in-flight
// slot occupied, the next request answers 429 + Retry-After, /stats counts
// the shed, and /readyz reports degraded — all without crashing or hanging.
// Once the slot frees, requests are answered again.
func TestOverloadSheds429(t *testing.T) {
	srv := New(Options{QueueDepth: 1})
	m := registerTiny(t, srv, "frozen")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Occupy the only admission slot, as a request in PredictInto would.
	m.inflight.Add(1)
	resp, _ := postJSON(t, client, ts.URL+"/v1/models/frozen/predict", predictBody())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded predict = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 reply missing Retry-After")
	}

	var st Stats
	if code := getJSON(t, client, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.ShedRequests < 1 {
		t.Fatalf("stats shed_requests = %d, want ≥ 1", st.ShedRequests)
	}
	var ready map[string]string
	if code := getJSON(t, client, ts.URL+"/readyz", &ready); code != http.StatusOK || ready["status"] != "degraded" {
		t.Fatalf("readyz after shedding: %d %v, want 200 degraded", code, ready)
	}

	// Free the slot: the next request is admitted and answered.
	m.inflight.Add(-1)
	if resp, body := postJSON(t, client, ts.URL+"/v1/models/frozen/predict", predictBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after the slot freed = %d (%s), want 200", resp.StatusCode, body)
	}
	if n := m.inflight.Load(); n != 0 {
		t.Fatalf("in-flight count %d after every request answered, want 0", n)
	}
}

// Graceful drain: Shutdown flips readiness to 503 "draining", subsequent
// requests fail with ErrServerClosed (503 + Retry-After over HTTP), and no
// goroutines are left behind.
func TestShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Options{})
	registerTiny(t, srv, "drainme")
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	// A pre-drain request succeeds.
	if resp, body := postJSON(t, client, ts.URL+"/v1/models/drainme/predict", predictBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain predict = %d (%s)", resp.StatusCode, body)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	var ready map[string]string
	if code := getJSON(t, client, ts.URL+"/readyz", &ready); code != http.StatusServiceUnavailable || ready["status"] != "draining" {
		t.Fatalf("readyz during drain: %d %v, want 503 draining", code, ready)
	}
	resp, body := postJSON(t, client, ts.URL+"/v1/models/drainme/predict", predictBody())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain predict = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("post-drain 503 missing Retry-After")
	}
	var out errorJSON
	if err := json.Unmarshal(body, &out); err != nil || out.Error != ErrServerClosed.Error() {
		t.Fatalf("post-drain body %q, want the ErrServerClosed message", body)
	}

	ts.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// Predictions racing Shutdown each answer 200 (admitted before the drain
// began) or 503 + Retry-After, never another status and never hanging, and
// no goroutine outlives the server.
func TestPredictRacingShutdownAnswers200Or503(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Options{})
	registerTiny(t, srv, "race")
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	body, err := json.Marshal(predictBody())
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	var served, refused atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each client runs until the drain refuses it; the bound only
			// stops a broken drain from looping forever.
			for n := 0; n < 20000; n++ {
				resp, err := client.Post(ts.URL+"/v1/models/race/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("predict racing shutdown: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("503 racing shutdown missing Retry-After")
					}
					refused.Add(1)
					return
				default:
					t.Errorf("predict racing shutdown = %d, want 200 or 503", resp.StatusCode)
					return
				}
			}
			t.Errorf("client never saw the drain")
		}()
	}
	waitFor(t, func() bool { return served.Load() >= clients })
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if refused.Load() != clients {
		t.Errorf("%d of %d clients refused after the drain", refused.Load(), clients)
	}
	client.CloseIdleConnections()
	ts.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// The recovery middleware turns a panicking handler into a 500 on that
// request, counts it, degrades readiness, and keeps the server serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv := New(Options{})
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var out errorJSON
	if code := getJSON(t, client, ts.URL+"/boom", &out); code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", code)
	}
	// Still serving.
	if code := getJSON(t, client, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after panic = %d", code)
	}
	var ready map[string]string
	if code := getJSON(t, client, ts.URL+"/readyz", &ready); code != http.StatusOK || ready["status"] != "degraded" {
		t.Fatalf("readyz after panic: %d %v, want 200 degraded", code, ready)
	}
	var st Stats
	getJSON(t, client, ts.URL+"/stats", &st)
	if st.RecoveredPanics != 1 {
		t.Fatalf("stats recovered_panics = %d, want 1", st.RecoveredPanics)
	}
}

// A fresh server is ready.
func TestReadyzReady(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	var ready map[string]string
	if code := getJSON(t, ts.Client(), ts.URL+"/readyz", &ready); code != http.StatusOK || ready["status"] != "ready" {
		t.Fatalf("readyz: %d %v, want 200 ready", code, ready)
	}
}

// waitFor polls cond with a generous deadline — used for worker/goroutine
// settling, never for correctness-bearing ordering.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
