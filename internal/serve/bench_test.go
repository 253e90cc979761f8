package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkPredictLatency times the HTTP predict path under closed-loop
// load: 1, 8, 32 and 64 clients, each posting 8-query requests back to back
// over keep-alive connections, share the benchmark's b.N requests against
// a trivariate model (nv = 3, nt = 8) whose requests are each answered on
// their handler's goroutine from the lock-free snapshot. It reports the
// prediction throughput and the request-latency percentiles that at least
// ten samples lie beyond (p50 from 20 requests, p99 from 1,000, p999 from
// 10,000), so a short run prints no tail it did not observe.
func BenchmarkPredictLatency(b *testing.B) {
	// The in-flight bound exceeds the widest client count, so closed-loop
	// load never sheds (a 429 fails the benchmark).
	srv := New(Options{QueueDepth: 128})
	m, err := srv.FitModel(FitRequest{
		Name:    "bench",
		Gen:     &GenSpec{Nv: 3, Nt: 8, Nr: 2, MeshNx: 6, MeshNy: 5, ObsPerStep: 20, Seed: 42},
		MaxIter: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Register(m); err != nil {
		b.Fatal(err)
	}
	const perReq = 8
	dims := m.Dims()
	rng := rand.New(rand.NewSource(5))
	var req PredictRequest
	for range perReq {
		req.Queries = append(req.Queries, QueryJSON{
			X: rng.Float64() * 400, Y: rng.Float64() * 300,
			T: rng.Intn(dims.Nt), Response: rng.Intn(dims.Nv),
			Covariates: []float64{1, rng.NormFloat64()},
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/bench/predict"

	for _, clients := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			tr := ts.Client().Transport.(*http.Transport).Clone()
			tr.MaxIdleConnsPerHost = clients
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			lats := make([]time.Duration, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						t0 := time.Now()
						resp, err := client.Post(url, "application/json", bytes.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						_, err = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							b.Errorf("predict: status %d, %v", resp.StatusCode, err)
							return
						}
						lats[i] = time.Since(t0)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if b.Failed() {
				return
			}
			b.ReportMetric(float64(b.N*perReq)/b.Elapsed().Seconds(), "pred/s")
			slices.Sort(lats)
			for _, p := range []struct {
				q    float64
				unit string
			}{{0.5, "p50_ms"}, {0.99, "p99_ms"}, {0.999, "p999_ms"}} {
				if v, ok := tailPercentile(lats, p.q); ok {
					b.ReportMetric(float64(v)/float64(time.Millisecond), p.unit)
				}
			}
		})
	}
}

// tailPercentile reads the q-quantile of an ascending sample by nearest
// rank, and reports whether at least ten samples lie beyond it — the rule
// of the end-to-end benchmark's percentiles.
func tailPercentile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	rank := max(1, int(math.Ceil(q*float64(n)-1e-9)))
	if n-rank < 10 {
		return 0, false
	}
	return sorted[rank-1], true
}

func TestTailPercentile(t *testing.T) {
	lats := make([]time.Duration, 1000)
	for i := range lats {
		lats[i] = time.Duration(i + 1)
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want time.Duration
		ok   bool
	}{
		{1, 0.5, 0, false},
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{512, 0.99, 0, false},
		{512, 0.999, 0, false},
		{1000, 0.99, 990, true},
		{1000, 0.999, 0, false},
	} {
		got, ok := tailPercentile(lats[:tc.n], tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d q=%v: %v %v, want %v %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}
