package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCrashRestartRecovery is the end-to-end crash drill the persistence
// layer exists for: a real dalia-serve process with -store-dir fits a
// model, is SIGKILLed (no drain, no flush window), and a fresh process on
// the same store must serve byte-identical predictions without re-running
// a single fit.
func TestCrashRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "dalia-serve")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	storeDir := filepath.Join(tmp, "store")

	fitBody := `{"name":"m","gen":{"nv":1,"nt":3,"nr":2,"mesh_nx":4,"mesh_ny":4,"obs_per_step":25,"seed":7},"max_iter":6}`
	predictBody := `{"queries":[{"x":120,"y":80,"t":0,"response":0},{"x":33,"y":210,"t":1,"response":0},{"x":350,"y":10,"t":2,"response":0}]}`

	// First life: fit, predict, then die without ceremony.
	proc1, base1 := startServe(t, bin, storeDir)
	resp := mustPost(t, base1+"/v1/models", fitBody)
	if resp.code != http.StatusCreated && resp.code != http.StatusOK {
		t.Fatalf("fit: status %d: %s", resp.code, resp.body)
	}
	pred1 := mustPost(t, base1+"/v1/models/m/predict", predictBody)
	if pred1.code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", pred1.code, pred1.body)
	}
	stats1 := getStats(t, base1)
	if stats1["models"].(float64) != 1 || stats1["fits"].(float64) != 1 {
		t.Fatalf("pre-crash stats: %v", stats1)
	}
	// Give the async persister a beat to land the checkpoint, then SIGKILL:
	// no drain, no flush, the hard way.
	waitForFile(t, filepath.Join(storeDir, "models"), 5*time.Second)
	time.Sleep(100 * time.Millisecond)
	if err := proc1.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	proc1.Wait()

	// Second life: same store, fresh port. The model must be back without a
	// refit and answer with the exact same bytes.
	proc2, base2 := startServe(t, bin, storeDir)
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()
	stats2 := getStats(t, base2)
	if stats2["models"].(float64) != 1 {
		t.Fatalf("post-restart stats: %v", stats2)
	}
	if fits, ok := stats2["fits"].(float64); ok && fits != 0 {
		t.Fatalf("restart re-ran %v fits; recovery must not refit", fits)
	}
	if rec, ok := stats2["recovered_models"].(float64); !ok || rec != 1 {
		t.Fatalf("recovered_models = %v, want 1 (stats %v)", stats2["recovered_models"], stats2)
	}
	pred2 := mustPost(t, base2+"/v1/models/m/predict", predictBody)
	if pred2.code != http.StatusOK {
		t.Fatalf("post-restart predict: status %d: %s", pred2.code, pred2.body)
	}
	if !bytes.Equal(pred1.body, pred2.body) {
		t.Fatalf("predictions diverged across crash:\n pre: %s\npost: %s", pred1.body, pred2.body)
	}
}

// startServe launches the built binary on an ephemeral port and returns the
// running process plus its base URL once /readyz answers.
func startServe(t *testing.T, bin, storeDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store-dir", storeDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				if len(fields) > 0 {
					addrCh <- fields[0]
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("server never printed its listen address")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, base
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("server at %s never became ready", base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type httpResult struct {
	code int
	body []byte
}

func mustPost(t *testing.T, url, body string) httpResult {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", url, err)
	}
	return httpResult{code: resp.StatusCode, body: data}
}

func getStats(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET /stats: decode: %v", err)
	}
	return m
}

// waitForFile polls until dir contains at least one committed checkpoint.
func waitForFile(t *testing.T, dir string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		found := false
		filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err == nil && info != nil && !info.IsDir() && strings.HasSuffix(path, ".ckpt") {
				found = true
			}
			return nil
		})
		if found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(fmt.Sprintf("no checkpoint appeared under %s within %v", dir, timeout))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
