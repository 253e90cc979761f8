package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/predict"
	"github.com/dalia-hpc/dalia/internal/serve"
)

// LatencyResult is one measured point of the serving latency benchmark:
// closed-loop clients at a fixed concurrency hammering the HTTP predict
// path, with the full per-request latency distribution summarized by its
// tail percentiles.
type LatencyResult struct {
	// Concurrency is the number of closed-loop clients.
	Concurrency int
	// Requests is the total number of timed round trips.
	Requests int
	// PerRequest is queries per request.
	PerRequest int
	// P50/P99/P999 are request-latency percentiles in milliseconds.
	P50Millis  float64
	P99Millis  float64
	P999Millis float64
	// Seconds is the scenario wall time; PerSec the prediction throughput.
	Seconds float64
	PerSec  float64
}

// LatencyReport is the serving latency measurement: tail latency and
// throughput of the lock-free snapshot path under concurrent closed-loop
// load.
type LatencyReport struct {
	GoMaxProcs int
	NumCPU     int
	LatentDim  int
	Nv         int
	FitSeconds float64
	Results    []LatencyResult
}

// Latency measures end-to-end serving latency under concurrent closed-loop
// load: a trivariate bench model (nv=3, nt=8), each request answered on its
// handler's goroutine from the lock-free snapshot, hit by {1, 8, 32, 64}
// concurrent clients posting 8-query requests. Each scenario records the
// full per-request latency distribution (p50/p99/p999) and the aggregate
// prediction throughput. quick trims the request counts, not the
// concurrency grid.
func Latency(quick bool) (*LatencyReport, error) {
	// The in-flight bound must exceed the widest client grid so closed-loop
	// load never sheds (a 429 would abort the scenario).
	srv := serve.New(serve.Options{QueueDepth: 128})
	t0 := time.Now()
	m, err := srv.FitModel(serve.FitRequest{
		Name: "bench",
		Gen: &serve.GenSpec{
			Nv: 3, Nt: 8, Nr: 2,
			MeshNx: 6, MeshNy: 5,
			ObsPerStep: 20,
			Seed:       42,
		},
		MaxIter: 8,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Register(m); err != nil {
		return nil, err
	}
	fitSecs := time.Since(t0).Seconds()

	dims := m.Dims()
	out := &LatencyReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		LatentDim:  dims.Total(),
		Nv:         dims.Nv,
		FitSeconds: fitSecs,
	}

	rng := rand.New(rand.NewSource(5))
	const perReq = 8
	body := func() []byte {
		qr := serve.PredictRequest{}
		for i := 0; i < perReq; i++ {
			q := predict.Query{
				Point:      mesh.Point{X: rng.Float64() * 400, Y: rng.Float64() * 300},
				T:          rng.Intn(dims.Nt),
				Response:   rng.Intn(dims.Nv),
				Covariates: []float64{1, rng.NormFloat64()},
			}
			qr.Queries = append(qr.Queries, serve.QueryJSON{
				X: q.Point.X, Y: q.Point.Y, T: q.T, Response: q.Response, Covariates: q.Covariates,
			})
		}
		b, _ := json.Marshal(qr)
		return b
	}()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/bench/predict"

	// Per-scenario request budget: enough samples that p999 is a real
	// percentile, not the max of a handful.
	total := 4096
	if quick {
		total = 512
	}
	for _, conc := range []int{1, 8, 32, 64} {
		perClient := total / conc
		if perClient < 8 {
			perClient = 8
		}
		nReq := perClient * conc
		lats := make([]float64, nReq) // milliseconds, one slot per request
		var wg sync.WaitGroup
		errCh := make(chan error, conc)
		start := time.Now()
		for c := 0; c < conc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := ts.Client()
				for i := 0; i < perClient; i++ {
					r0 := time.Now()
					resp, err := client.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						errCh <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("predict status %d", resp.StatusCode)
						resp.Body.Close()
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					lats[c*perClient+i] = float64(time.Since(r0)) / float64(time.Millisecond)
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		sort.Float64s(lats)
		out.Results = append(out.Results, LatencyResult{
			Concurrency: conc,
			Requests:    nReq,
			PerRequest:  perReq,
			P50Millis:   percentile(lats, 0.50),
			P99Millis:   percentile(lats, 0.99),
			P999Millis:  percentile(lats, 0.999),
			Seconds:     secs,
			PerSec:      float64(nReq*perReq) / secs,
		})
	}
	return out, nil
}

// percentile reads the q-quantile from an ascending-sorted sample by the
// nearest-rank method.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// PrintLatency renders the serving latency table.
func PrintLatency(b *LatencyReport, w io.Writer) {
	fmt.Fprintf(w, "  serving latency under closed-loop load (latent dim %d, nv=%d, GOMAXPROCS=%d, %d CPUs)\n",
		b.LatentDim, b.Nv, b.GoMaxProcs, b.NumCPU)
	fmt.Fprintf(w, "  %6s %9s %10s %10s %10s %14s\n", "conc", "requests", "p50 ms", "p99 ms", "p999 ms", "pred/s")
	for _, r := range b.Results {
		fmt.Fprintf(w, "  %6d %9d %10.3f %10.3f %10.3f %14.0f\n",
			r.Concurrency, r.Requests, r.P50Millis, r.P99Millis, r.P999Millis, r.PerSec)
	}
}
