package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// tinyGen is the dataset every server test registers: small enough that the
// fit takes well under a second, deterministic through its seed.
func tinyGen() *GenSpec {
	return &GenSpec{Nv: 1, Nt: 3, Nr: 2, MeshNx: 4, MeshNy: 4, ObsPerStep: 25, Seed: 7}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, client *http.Client, url string, into any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// The full serving round trip: fit a model over HTTP, query it, and check
// every returned mean/variance against a direct dense-reference computation
// on an identically refitted local model.
func TestServePredictMatchesDenseReference(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	client := ts.Client()

	fitReq := FitRequest{Name: "tiny", Gen: tinyGen(), MaxIter: 8}
	resp, body := postJSON(t, client, ts.URL+"/v1/models", fitReq)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fit status %d: %s", resp.StatusCode, body)
	}
	var info ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Nv != 1 || info.Nt != 3 || info.Nr != 2 || info.Ns != 16 {
		t.Fatalf("model card dims wrong: %+v", info)
	}

	// Refit locally with identical inputs: the procedure is deterministic,
	// so this reproduces the server's model exactly.
	gen, _, err := resolveGen(fitReq)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	opts := inla.DefaultFitOptions()
	opts.Opt.MaxIter = 8
	opts.SkipHyperUncertainty = true
	res, err := inla.Fit(ds.Model, inla.WeakPrior(ds.Theta0, 5), ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range info.Theta {
		if info.Theta[i] != res.Theta[i] {
			t.Fatalf("server mode differs from local refit at %d: %v vs %v", i, info.Theta[i], res.Theta[i])
		}
	}

	queries := []QueryJSON{
		{X: 55, Y: 80, T: 0, Response: 0, Covariates: []float64{1, 0.4}},
		{X: 200, Y: 10, T: 1, Response: 0, Covariates: []float64{1, -0.7}},
		{X: 390, Y: 290, T: 2, Response: 0, Covariates: []float64{1, 2.1}},
		{X: 133.3, Y: 7.7, T: 1, Response: 0},
	}
	resp, body = postJSON(t, client, ts.URL+"/v1/models/tiny/predict", PredictRequest{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	var pred PredictResponse
	if err := json.Unmarshal(body, &pred); err != nil {
		t.Fatal(err)
	}
	if len(pred.Mean) != len(queries) || len(pred.Variance) != len(queries) || len(pred.SD) != len(queries) {
		t.Fatalf("response lengths %d/%d/%d for %d queries", len(pred.Mean), len(pred.Variance), len(pred.SD), len(queries))
	}

	// Dense reference: Σ = Q_c⁻¹ at the mode, variance φᵀΣφ, mean φᵀμ.
	theta, err := ds.Model.DecodeTheta(res.Theta)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := ds.Model.Qc(theta)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := dense.Inverse(qc.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	d := ds.Model.Dims
	lc := theta.Lambda.CoregView()
	msh := ds.Model.Builder.Mesh
	per := d.PerProcess()
	dim := d.Total()
	for i, q := range queries {
		phi := make([]float64, dim)
		ti, bc, err := msh.Locate(mesh.Point{X: q.X, Y: q.Y})
		if err != nil {
			t.Fatal(err)
		}
		tri := msh.Tri[ti]
		for j := 0; j <= q.Response; j++ {
			f := lc.At(q.Response, j)
			for v := 0; v < 3; v++ {
				phi[ds.Model.BTAIndex(j*per+q.T*d.Ns+tri[v])] += f * bc[v]
			}
			for r := 0; r < d.Nr && q.Covariates != nil; r++ {
				phi[ds.Model.BTAIndex(j*per+d.Ns*d.Nt+r)] += f * q.Covariates[r]
			}
		}
		var wantMean, wantVar float64
		for a := 0; a < dim; a++ {
			wantMean += phi[a] * res.Mu[a]
			row := sigma.Row(a)
			for b := 0; b < dim; b++ {
				wantVar += phi[a] * row[b] * phi[b]
			}
		}
		if math.Abs(pred.Mean[i]-wantMean) > 1e-8*(1+math.Abs(wantMean)) {
			t.Errorf("query %d: served mean %v, dense reference %v", i, pred.Mean[i], wantMean)
		}
		if math.Abs(pred.Variance[i]-wantVar) > 1e-8*(1+wantVar) {
			t.Errorf("query %d: served variance %v, dense reference %v", i, pred.Variance[i], wantVar)
		}
		if math.Abs(pred.SD[i]-math.Sqrt(pred.Variance[i])) > 1e-12 {
			t.Errorf("query %d: sd %v is not sqrt of variance %v", i, pred.SD[i], pred.Variance[i])
		}
	}
}

// Requests after a model's deletion must fail fast with 404, never hang.
func TestRequestAfterShutdownFailsFast(t *testing.T) {
	srv := New(Options{})
	m, err := srv.FitModel(FitRequest{Name: "gone", Gen: tinyGen(), MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/gone", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := `{"queries":[{"x":1,"y":1,"t":0,"response":0}]}`
			resp, err := client.Post(ts.URL+"/v1/models/gone/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request against a deleted model: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("request against a deleted model = %d, want 404", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
}

// Registry and error-path behavior: healthz, list, conflict, delete, 404s,
// and query validation.
func TestServerRegistryAndErrors(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	client := ts.Client()

	var health map[string]string
	if code := getJSON(t, client, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz %d %v", code, health)
	}

	// Fit requires a dataset.
	if resp, _ := postJSON(t, client, ts.URL+"/v1/models", FitRequest{Name: "x"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing spec accepted: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, client, ts.URL+"/v1/models", FitRequest{Name: "x", Spec: "NOPE"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown spec accepted: %d", resp.StatusCode)
	}
	negDomain := tinyGen()
	negDomain.Width = -400
	if resp, _ := postJSON(t, client, ts.URL+"/v1/models", FitRequest{Name: "x", Gen: negDomain}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative domain accepted: %d", resp.StatusCode)
	}

	if resp, body := postJSON(t, client, ts.URL+"/v1/models", FitRequest{Name: "a", Gen: tinyGen(), MaxIter: 3}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("fit status %d: %s", resp.StatusCode, body)
	}
	// Duplicate name conflicts.
	if resp, _ := postJSON(t, client, ts.URL+"/v1/models", FitRequest{Name: "a", Gen: tinyGen(), MaxIter: 3}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate fit status %d, want 409", resp.StatusCode)
	}

	var list struct {
		Models []ModelInfo `json:"models"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/models", &list); code != http.StatusOK || len(list.Models) != 1 || list.Models[0].Name != "a" {
		t.Fatalf("list %d %+v", code, list)
	}

	// Malformed queries are rejected up front with 400, not batched.
	bad := []QueryJSON{
		{X: 1, Y: 1, T: 99, Response: 0},
		{X: 1, Y: 1, T: 0, Response: 5},
		{X: 1, Y: 1, T: 0, Response: 0, Covariates: []float64{1}},
		{X: -5, Y: 1, T: 0, Response: 0},
		{X: 50000, Y: -9000, T: 0, Response: 0},
	}
	for i, q := range bad {
		resp, _ := postJSON(t, client, ts.URL+"/v1/models/a/predict", PredictRequest{Queries: []QueryJSON{q}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad query %d status %d, want 400", i, resp.StatusCode)
		}
	}
	if resp, _ := postJSON(t, client, ts.URL+"/v1/models/a/predict", PredictRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty predict accepted")
	}
	if resp, _ := postJSON(t, client, ts.URL+"/v1/models/nope/predict", PredictRequest{Queries: bad[:1]}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("predict on missing model: %d, want 404", resp.StatusCode)
	}

	// Delete, then everything 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/a", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if code := getJSON(t, client, ts.URL+"/v1/models/a", nil); code != http.StatusNotFound {
		t.Errorf("get after delete: %d", code)
	}

	var st Stats
	if code := getJSON(t, client, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Fits != 1 || st.Models != 0 {
		t.Errorf("stats fits=%d models=%d, want 1/0", st.Fits, st.Models)
	}
}

// A model without fixed effects (nr omitted from the gen config) answers a
// query whose body carries "covariates": [] — a non-nil empty slice after
// decoding — with the law it gives the same query without the field,
// rather than a 500 from a panic in the snapshot read.
func TestPredictEmptyCovariatesWithoutFixedEffects(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	client := ts.Client()

	gen := tinyGen()
	gen.Nr = 0
	if resp, body := postJSON(t, client, ts.URL+"/v1/models", FitRequest{Name: "nofx", Gen: gen, MaxIter: 3}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("fit status %d: %s", resp.StatusCode, body)
	}
	var got [2]PredictResponse
	for i, body := range []string{
		`{"queries":[{"x":120,"y":80,"t":1,"response":0,"covariates":[]}]}`,
		`{"queries":[{"x":120,"y":80,"t":1,"response":0}]}`,
	} {
		resp, err := client.Post(ts.URL+"/v1/models/nofx/predict", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %d: status %d", i, resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&got[i])
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if got[0].Mean[0] != got[1].Mean[0] || got[0].Variance[0] != got[1].Variance[0] || !(got[0].Variance[0] > 0) {
		t.Fatalf("empty covariates %+v, none %+v", got[0], got[1])
	}
}
