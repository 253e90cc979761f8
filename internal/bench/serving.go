package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/predict"
	"github.com/dalia-hpc/dalia/internal/serve"
)

// ServingResult is one measured point of the serving benchmark.
type ServingResult struct {
	// Path is "engine" (direct snapshot batches) or "http" (full JSON
	// round trips through the coalescing batcher).
	Path string `json:"path"`
	// Batch is queries per PredictInto call (engine) or per request (http).
	Batch int `json:"batch"`
	// Concurrency is the number of parallel clients (http only).
	Concurrency int     `json:"concurrency,omitempty"`
	Predictions int     `json:"predictions"`
	Seconds     float64 `json:"seconds"`
	PerSec      float64 `json:"predictions_per_sec"`
}

// ServingBaseline is the serialized serving-throughput baseline
// (BENCH_2.json): the prediction-engine and HTTP-service rates the serving
// subsystem establishes, for future PRs to compare against.
type ServingBaseline struct {
	GoMaxProcs int             `json:"gomaxprocs"`
	LatentDim  int             `json:"latent_dim"`
	Nv         int             `json:"nv"`
	FitSeconds float64         `json:"fit_seconds"`
	Results    []ServingResult `json:"results"`
}

// Serving measures posterior-prediction throughput on a trivariate model:
// the raw engine path at several coalescing widths, then full HTTP JSON
// round trips at several client concurrencies. quick trims the query
// counts, not the scenario grid.
func Serving(quick bool) (*ServingBaseline, error) {
	srv := serve.New(serve.Options{})
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

	pr := m.Snapshot()
	dims := m.Dims()
	out := &ServingBaseline{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		LatentDim:  dims.Total(),
		Nv:         dims.Nv,
		FitSeconds: fitSecs,
	}
	rng := rand.New(rand.NewSource(5))
	mkQuery := func() predict.Query {
		return predict.Query{
			Point:      mesh.Point{X: rng.Float64() * 400, Y: rng.Float64() * 300},
			T:          rng.Intn(dims.Nt),
			Response:   rng.Intn(dims.Nv),
			Covariates: []float64{1, rng.NormFloat64()},
		}
	}

	// Engine path: repeated coalesced batches straight into the predictor.
	total := 4096
	if quick {
		total = 1024
	}
	for _, batch := range []int{1, 16, 64} {
		qs := make([]predict.Query, batch)
		for i := range qs {
			qs[i] = mkQuery()
		}
		means := make([]float64, batch)
		vars := make([]float64, batch)
		iters := total / batch
		if iters < 1 {
			iters = 1
		}
		t := time.Now()
		for it := 0; it < iters; it++ {
			if err := pr.PredictInto(qs, means, vars); err != nil {
				return nil, err
			}
		}
		secs := time.Since(t).Seconds()
		n := iters * batch
		out.Results = append(out.Results, ServingResult{
			Path: "engine", Batch: batch, Predictions: n,
			Seconds: secs, PerSec: float64(n) / secs,
		})
	}

	// HTTP path: JSON round trips through the coalescing batcher.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	httpTotal := 1024
	if quick {
		httpTotal = 256
	}
	const perReq = 8
	for _, conc := range []int{1, 8} {
		reqs := httpTotal / perReq
		body := func() []byte {
			qr := serve.PredictRequest{}
			for i := 0; i < perReq; i++ {
				q := mkQuery()
				qr.Queries = append(qr.Queries, serve.QueryJSON{
					X: q.Point.X, Y: q.Point.Y, T: q.T, Response: q.Response, Covariates: q.Covariates,
				})
			}
			b, _ := json.Marshal(qr)
			return b
		}()
		t := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, conc)
		for c := 0; c < conc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := ts.Client()
				for i := 0; i < reqs/conc; i++ {
					resp, err := client.Post(ts.URL+"/v1/models/bench/predict", "application/json", bytes.NewReader(body))
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
				}
			}()
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			return nil, err
		}
		secs := time.Since(t).Seconds()
		n := (reqs / conc) * conc * perReq
		out.Results = append(out.Results, ServingResult{
			Path: "http", Batch: perReq, Concurrency: conc, Predictions: n,
			Seconds: secs, PerSec: float64(n) / secs,
		})
	}
	return out, nil
}

// WriteServingBaseline serializes the serving baseline as indented JSON.
func WriteServingBaseline(b *ServingBaseline, path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PrintServing renders the serving throughput table.
func PrintServing(b *ServingBaseline, w *os.File) {
	fmt.Fprintf(w, "  serving throughput (latent dim %d, nv=%d, fit %.2fs, GOMAXPROCS=%d)\n",
		b.LatentDim, b.Nv, b.FitSeconds, b.GoMaxProcs)
	fmt.Fprintf(w, "  %-8s %6s %6s %12s %14s\n", "path", "batch", "conc", "predictions", "pred/s")
	for _, r := range b.Results {
		conc := "-"
		if r.Concurrency > 0 {
			conc = fmt.Sprint(r.Concurrency)
		}
		fmt.Fprintf(w, "  %-8s %6d %6s %12d %14.0f\n", r.Path, r.Batch, conc, r.Predictions, r.PerSec)
	}
}
