package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/predict"
)

// Concurrent clients are answered correctly on their own goroutines: every
// request succeeds, every answer is bit-identical to Snapshot.PredictInto
// on the same query, every query is counted exactly once, and deleting the
// model does not roll the counters back.
func TestReplicatedConcurrentPredict(t *testing.T) {
	const reqs = 32
	srv := New(Options{})
	m, err := srv.FitModel(FitRequest{Name: "rep", Gen: tinyGen(), MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	query := func(i int) QueryJSON {
		return QueryJSON{X: float64(10 + 7*i), Y: float64(5 + 3*i), T: i % 3, Response: 0, Covariates: []float64{1, 0.5}}
	}
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := query(i)
			// postJSON may t.Fatal, which only the test's own goroutine may.
			body, _ := json.Marshal(PredictRequest{Queries: []QueryJSON{q}})
			resp, err := client.Post(ts.URL+"/v1/models/rep/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("concurrent predict: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent predict status %d", resp.StatusCode)
				return
			}
			var got PredictResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			mean, vars := []float64{0}, []float64{0}
			pq := predict.Query{Point: mesh.Point{X: q.X, Y: q.Y}, T: q.T, Response: q.Response, Covariates: q.Covariates}
			if err := m.Snapshot().PredictInto([]predict.Query{pq}, mean, vars); err != nil {
				t.Errorf("snapshot predict: %v", err)
				return
			}
			if math.Float64bits(got.Mean[0]) != math.Float64bits(mean[0]) ||
				math.Float64bits(got.Variance[0]) != math.Float64bits(vars[0]) {
				t.Errorf("query %d: served (%v, %v), snapshot (%v, %v)", i, got.Mean[0], got.Variance[0], mean[0], vars[0])
			}
		}(i)
	}
	wg.Wait()

	var st Stats
	if code := getJSON(t, client, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Queries != reqs || st.PredictRequests != reqs || st.Batches != reqs || st.AvgBatchSize != 1 {
		t.Errorf("stats queries=%d requests=%d batches=%d avg=%v, want %d/%d/%d/1",
			st.Queries, st.PredictRequests, st.Batches, st.AvgBatchSize, reqs, reqs, reqs)
	}
	if st.ShedRequests != 0 {
		t.Errorf("%d requests shed under default queue depth", st.ShedRequests)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/rep", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var after Stats
	if code := getJSON(t, client, ts.URL+"/stats", &after); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if after.Models != 0 || after.Queries != st.Queries || after.Batches != st.Batches {
		t.Errorf("stats after delete: models=%d queries=%d batches=%d, want 0/%d/%d",
			after.Models, after.Queries, after.Batches, st.Queries, st.Batches)
	}
}

// The refit endpoint republishes atomically: an empty-body refit repeats the
// deterministic recipe, so predictions before and after are bitwise
// identical, the model card counts the refit, and a concurrent refit is
// rejected with 409 rather than racing the swap.
func TestRefitEndpointRepublishes(t *testing.T) {
	srv := New(Options{})
	m, err := srv.FitModel(FitRequest{Name: "rf", Gen: tinyGen(), MaxIter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	q := QueryJSON{X: 77, Y: 33, T: 2, Response: 0, Covariates: []float64{1, -0.3}}
	resp, before := postJSON(t, client, ts.URL+"/v1/models/rf/predict", PredictRequest{Queries: []QueryJSON{q}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, before)
	}
	oldSnap := m.Snapshot()

	// While a refit is in flight, a second one must conflict, not queue.
	m.refitting.Store(true)
	resp, body := postJSON(t, client, ts.URL+"/v1/models/rf/refit", RefitRequest{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent refit status %d: %s, want 409", resp.StatusCode, body)
	}
	m.refitting.Store(false)

	resp, body = postJSON(t, client, ts.URL+"/v1/models/rf/refit", RefitRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refit status %d: %s", resp.StatusCode, body)
	}
	if m.Snapshot() == oldSnap {
		t.Error("refit did not swap the published snapshot")
	}

	var info ModelInfo
	if code := getJSON(t, client, ts.URL+"/v1/models/rf", &info); code != http.StatusOK {
		t.Fatalf("model card status %d", code)
	}
	if info.Refits != 1 {
		t.Errorf("model card refits=%d, want 1", info.Refits)
	}

	// Same recipe, deterministic fit: the republished snapshot answers
	// bitwise identically.
	resp, after := postJSON(t, client, ts.URL+"/v1/models/rf/predict", PredictRequest{Queries: []QueryJSON{q}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after refit status %d: %s", resp.StatusCode, after)
	}
	if string(before) != string(after) {
		t.Errorf("refit with the original recipe changed answers:\n before %s\n after  %s", before, after)
	}

	// A reseeded refit is the rolling-data case: new dataset, new mode.
	seed := int64(99)
	resp, body = postJSON(t, client, ts.URL+"/v1/models/rf/refit", RefitRequest{Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reseeded refit status %d: %s", resp.StatusCode, body)
	}
	resp, reseeded := postJSON(t, client, ts.URL+"/v1/models/rf/predict", PredictRequest{Queries: []QueryJSON{q}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after reseeded refit status %d: %s", resp.StatusCode, reseeded)
	}
	if string(reseeded) == string(before) {
		t.Error("refit against a reseeded dataset left predictions unchanged")
	}

	var st Stats
	if code := getJSON(t, client, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Refits != 2 {
		t.Errorf("stats refits=%d, want 2", st.Refits)
	}
}
