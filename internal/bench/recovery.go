package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/dalia-hpc/dalia/internal/serve"
	"github.com/dalia-hpc/dalia/internal/store"
)

// RecoveryResult is one model of the crash-recovery benchmark: the cost of
// the cold path (full INLA fit + durable publish) against the cost of the
// recovery path (decode checkpoint, regenerate dataset, refactorize), and
// whether the two paths answer a fixed query set with identical bytes.
type RecoveryResult struct {
	Name      string
	LatentDim int
	Nv        int
	// FitSeconds is the cold path: BFGS mode search + posterior + publish.
	FitSeconds float64
	// RecoverSeconds is the restart path for this model, amortized from the
	// whole-registry recovery wall time.
	RecoverSeconds float64
	// Speedup is FitSeconds / RecoverSeconds: how much faster a restart is
	// than refitting.
	Speedup float64
	// CheckpointBytes is the on-disk size of the current generation.
	CheckpointBytes int
	// Identical reports whether pre-crash and post-restart predictions were
	// byte-for-byte equal.
	Identical bool
}

// RecoveryReport is the crash-recovery measurement: restart-vs-refit cost
// for a registry of fitted models.
type RecoveryReport struct {
	GoMaxProcs int
	NumCPU     int
	// TotalFitSeconds / TotalRecoverSeconds are whole-registry wall times:
	// every model fitted and published vs the same registry rebuilt from the
	// store on a fresh server.
	TotalFitSeconds     float64
	TotalRecoverSeconds float64
	Results             []RecoveryResult
}

// Recovery measures what the persistence layer buys on restart: fit a small
// registry of models on a store-backed server, capture predictions, tear
// the server down, and time a fresh server rebuilding the whole registry
// from durable checkpoints — asserting along the way that the recovered
// models answer the same queries with byte-identical responses and that no
// fit re-ran. quick trims the registry, not the assertions.
func Recovery(quick bool) (*RecoveryReport, error) {
	dir, err := os.MkdirTemp("", "dalia-bench-recovery-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	specs := []struct {
		name string
		gen  serve.GenSpec
	}{
		{"uni", serve.GenSpec{Nv: 1, Nt: 4, Nr: 2, MeshNx: 5, MeshNy: 4, ObsPerStep: 30, Seed: 11}},
		{"bi", serve.GenSpec{Nv: 2, Nt: 4, Nr: 2, MeshNx: 5, MeshNy: 4, ObsPerStep: 30, Seed: 22}},
		{"tri", serve.GenSpec{Nv: 3, Nt: 6, Nr: 2, MeshNx: 6, MeshNy: 5, ObsPerStep: 20, Seed: 33}},
	}
	if quick {
		specs = specs[:1]
	}

	predictBodies := func(ts *httptest.Server) (map[string][]byte, error) {
		out := map[string][]byte{}
		for _, sp := range specs {
			body := `{"queries":[{"x":120,"y":80,"t":0,"response":0},{"x":33,"y":210,"t":1,"response":0},{"x":350,"y":10,"t":2,"response":0}]}`
			resp, err := ts.Client().Post(ts.URL+"/v1/models/"+sp.name+"/predict", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				return nil, err
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("predict %s: status %d: %s", sp.name, resp.StatusCode, data)
			}
			out[sp.name] = data
		}
		return out, nil
	}

	// Cold path: fit + publish every model on a store-backed server.
	st, _, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{BatchWindow: 0, Store: st})
	out := &RecoveryReport{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	fitSecs := map[string]float64{}
	dims := map[string][2]int{} // latent dim, nv
	t0 := time.Now()
	for _, sp := range specs {
		gen := sp.gen
		tf := time.Now()
		m, err := srv.FitModel(serve.FitRequest{Name: sp.name, Gen: &gen, MaxIter: 8})
		if err != nil {
			return nil, err
		}
		if err := srv.Register(m); err != nil {
			return nil, err
		}
		fitSecs[sp.name] = time.Since(tf).Seconds()
		d := m.Dims()
		dims[sp.name] = [2]int{d.Total(), d.Nv}
	}
	out.TotalFitSeconds = time.Since(t0).Seconds()

	ts := httptest.NewServer(srv.Handler())
	before, err := predictBodies(ts)
	ts.Close()
	if err != nil {
		return nil, err
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Restart path: reopen the store and rebuild the registry — decode, not
	// refit. The wall time covers store recovery plus every model's snapshot
	// refactorization.
	t1 := time.Now()
	st2, stats, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv2 := serve.New(serve.Options{BatchWindow: 0, Store: st2, Recovery: stats})
	out.TotalRecoverSeconds = time.Since(t1).Seconds()
	defer func() {
		srv2.Shutdown(context.Background())
		st2.Close()
	}()

	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var sst serve.Stats
	resp, err := ts2.Client().Get(ts2.URL + "/stats")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&sst)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if sst.Models != len(specs) {
		return nil, fmt.Errorf("recovered %d models, want %d (store stats %s)", sst.Models, len(specs), stats)
	}
	if sst.Fits != 0 {
		return nil, fmt.Errorf("recovery re-ran %d fits; restart must not refit", sst.Fits)
	}

	after, err := predictBodies(ts2)
	if err != nil {
		return nil, err
	}

	perModel := out.TotalRecoverSeconds / float64(len(specs))
	for _, sp := range specs {
		size := 0
		gen, ok := st2.Generation(sp.name)
		if ok {
			if fi, err := os.Stat(filepath.Join(dir, "models", sp.name, fmt.Sprintf("gen-%012d.ckpt", gen))); err == nil {
				size = int(fi.Size())
			}
		}
		r := RecoveryResult{
			Name:            sp.name,
			LatentDim:       dims[sp.name][0],
			Nv:              dims[sp.name][1],
			FitSeconds:      fitSecs[sp.name],
			RecoverSeconds:  perModel,
			CheckpointBytes: size,
			Identical:       bytes.Equal(before[sp.name], after[sp.name]),
		}
		if r.RecoverSeconds > 0 {
			r.Speedup = r.FitSeconds / r.RecoverSeconds
		}
		if !r.Identical {
			return nil, fmt.Errorf("model %s: recovered predictions differ from pre-crash bytes", sp.name)
		}
		out.Results = append(out.Results, r)
	}
	return out, nil
}

// PrintRecovery renders the restart-vs-refit table.
func PrintRecovery(b *RecoveryReport, w io.Writer) {
	fmt.Fprintf(w, "  crash recovery: restart-from-store vs refit (GOMAXPROCS=%d, %d CPUs)\n",
		b.GoMaxProcs, b.NumCPU)
	fmt.Fprintf(w, "  %6s %10s %4s %10s %12s %9s %10s %10s\n",
		"model", "latent", "nv", "fit s", "recover s", "speedup", "ckpt KiB", "identical")
	for _, r := range b.Results {
		fmt.Fprintf(w, "  %6s %10d %4d %10.3f %12.4f %8.1fx %10.1f %10v\n",
			r.Name, r.LatentDim, r.Nv, r.FitSeconds, r.RecoverSeconds, r.Speedup,
			float64(r.CheckpointBytes)/1024, r.Identical)
	}
	fmt.Fprintf(w, "  registry: fit+publish %.3fs, rebuild from store %.3fs\n",
		b.TotalFitSeconds, b.TotalRecoverSeconds)
}
