// Serving walkthrough: stand up the dalia-serve batch inference server,
// register a model fitted from a synthetic dataset, and answer posterior
// prediction queries over HTTP — the fit-once/serve-many workflow.
//
//	go run ./examples/serving
//
// The program drives its own server through real HTTP requests, printing
// each exchange the way a curl session would show it (see README.md in
// this directory for the equivalent curl transcript against a standalone
// `dalia-serve` process).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	dalia "github.com/dalia-hpc/dalia"
)

func show(method, path string, body, reply []byte) {
	fmt.Printf("$ curl -s -X %s localhost:8042%s", method, path)
	if body != nil {
		fmt.Printf(" -d '%s'", body)
	}
	fmt.Println()
	fmt.Printf("%s\n", bytes.TrimRight(reply, "\n"))
	fmt.Println()
}

// serverDraining asks /readyz whether the server is shutting down for good.
// A draining server answers 503 with status "draining" — retrying against it
// is wasted work, because a drain never un-drains.
func serverDraining(client *http.Client, base string) bool {
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var ready struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		return false
	}
	return ready.Status == "draining"
}

// call sends one request as a well-behaved client, distinguishing the two
// shedding replies: 429 (queue momentarily full) is transient, so it retries
// with exponential backoff seeded from the server's Retry-After hint; 503
// during a graceful drain is terminal, so the client checks /readyz and
// gives up immediately instead of retrying against a server that is going
// away. A 503 on a server that is NOT draining (e.g. a refit briefly
// rejected) still gets the backoff treatment.
func call(client *http.Client, base, method, path string, payload any) ([]byte, []byte) {
	var body []byte
	if payload != nil {
		body, _ = json.Marshal(payload)
	}
	backoff := 50 * time.Millisecond
	const maxAttempts = 6
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			log.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			if serverDraining(client, base) {
				log.Fatalf("%s %s: server is draining (503 + Retry-After %q); not retrying — find another replica",
					method, path, resp.Header.Get("Retry-After"))
			}
			fallthrough
		case http.StatusTooManyRequests:
			if attempt >= maxAttempts {
				log.Fatalf("%s %s: still shedding after %d attempts: %d: %s", method, path, attempt, resp.StatusCode, reply)
			}
			wait := backoff
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil {
				if d := time.Duration(secs) * time.Second; d > wait {
					wait = d
				}
			}
			time.Sleep(wait)
			backoff *= 2
			continue
		}
		if resp.StatusCode >= 300 {
			log.Fatalf("%s %s: %d: %s", method, path, resp.StatusCode, reply)
		}
		return body, reply
	}
}

func main() {
	// A server with a 1 ms batching window: concurrent queries arriving
	// within the window coalesce into one pass over the model's snapshot.
	srv := dalia.NewServer(dalia.ServeOptions{BatchWindow: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// 1. Liveness.
	_, reply := call(client, ts.URL, "GET", "/healthz", nil)
	show("GET", "/healthz", nil, reply)

	// 2. Fit-once: register a bivariate spatio-temporal model fitted from a
	// synthetic dataset (two correlated pollutant-like fields, intercept +
	// elevation covariates). Registration runs the full INLA fit and
	// selectively inverts Q_c at the mode; every later query reads that Σ.
	fit := map[string]any{
		"name": "demo",
		"gen": map[string]any{
			"nv": 2, "nt": 4, "nr": 2,
			"mesh_nx": 5, "mesh_ny": 4,
			"obs_per_step": 30, "seed": 42,
		},
		"max_iter": 12,
	}
	body, reply := call(client, ts.URL, "POST", "/v1/models", fit)
	show("POST", "/v1/models", body, reply)

	// 3. Serve-many: posterior predictive means and variances at new
	// space-time locations none of which were observed.
	pred := map[string]any{
		"queries": []map[string]any{
			{"x": 120.0, "y": 45.0, "t": 0, "response": 0, "covariates": []float64{1, 0.3}},
			{"x": 120.0, "y": 45.0, "t": 0, "response": 1, "covariates": []float64{1, 0.3}},
			{"x": 333.0, "y": 280.0, "t": 3, "response": 0, "covariates": []float64{1, 1.8}},
		},
	}
	body, reply = call(client, ts.URL, "POST", "/v1/models/demo/predict", pred)
	show("POST", "/v1/models/demo/predict", body, reply)

	// 4. Serving counters: batches formed, average coalesced batch size.
	_, reply = call(client, ts.URL, "GET", "/stats", nil)
	show("GET", "/stats", nil, reply)
}
