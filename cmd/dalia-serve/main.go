// dalia-serve is the long-lived batch inference server: it holds a registry
// of fitted spatio-temporal multivariate GP models and answers posterior
// prediction queries over HTTP JSON, coalescing concurrent point queries
// into single passes over the selected inverse of the conditional precision
// at the fitted mode.
//
// Usage:
//
//	dalia-serve                          # empty registry on :8042
//	dalia-serve -addr :9000 -window 2ms  # custom bind and batch window
//	dalia-serve -replicas 4 -slo 10ms    # worker pool size and latency SLO
//	dalia-serve -preload MB1,AP1         # fit Table IV datasets at startup
//	dalia-serve -store-dir /var/lib/dalia # durable checkpoints + crash recovery
//	dalia-serve -request-timeout 5s -queue-depth 128 -drain-timeout 10s
//
// With -store-dir every successful fit or refit is checkpointed to a
// crash-safe store (atomic rename + write-ahead log) and in-flight fits
// checkpoint their optimizer state. On restart the registry is rebuilt
// from the store — recovered models serve bitwise-identical predictions
// without re-running a single mode search, and interrupted fits resume
// from their last BFGS iterate instead of θ₀.
//
// SIGINT/SIGTERM trigger a graceful drain: readiness flips to 503 so load
// balancers stop routing here, in-flight batches complete, queued requests
// fail with 503 + Retry-After, pending checkpoints flush to the store, and
// the listener closes once the drain finishes (or -drain-timeout elapses).
//
// See the package comment of internal/serve for the endpoint list and
// examples/serving for a walkthrough with a curl transcript.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/serve"
	"github.com/dalia-hpc/dalia/internal/store"
)

func main() {
	addr := flag.String("addr", ":8042", "listen address")
	window := flag.Duration("window", time.Millisecond, "batch coalescing window (0 = flush when queue drains)")
	slo := flag.Duration("slo", 0, "per-request latency target: batches flush early once the oldest queued request's budget drops below the expected solve time (0 = disabled)")
	replicas := flag.Int("replicas", 0, "batch-worker replicas per model, each reading the lock-free snapshot (0 = GOMAXPROCS)")
	preload := flag.String("preload", "", "comma-separated Table IV dataset specs to fit and register at startup (e.g. MB1,AP1)")
	maxIter := flag.Int("max-iter", 25, "BFGS iteration cap for preloaded fits")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request deadline for prediction requests, 504 on expiry (0 = none)")
	queueDepth := flag.Int("queue-depth", 0, "per-model admission queue depth; a full queue sheds with 429 + Retry-After (0 = default 64)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long a SIGINT/SIGTERM drain waits for in-flight batches (0 = indefinitely)")
	storeDir := flag.String("store-dir", "", "durable checkpoint store directory: fits persist here and the registry recovers on restart (empty = in-memory only)")
	ckptEvery := flag.Int("checkpoint-every", 1, "persist in-flight optimizer state every N BFGS iterations (with -store-dir)")
	schedWorkers := flag.Int("sched-workers", 0, "worker count of the shared task-DAG executor that fit solver phases and evaluation batches run on (0 = GOMAXPROCS)")
	flag.Parse()
	if *schedWorkers > 0 {
		sched.SetSharedWorkers(*schedWorkers)
	}

	opts := serve.Options{
		BatchWindow:     *window,
		SLO:             *slo,
		Replicas:        *replicas,
		RequestTimeout:  *reqTimeout,
		QueueDepth:      *queueDepth,
		DrainTimeout:    *drainTimeout,
		CheckpointEvery: *ckptEvery,
		Logf: func(format string, args ...any) {
			fmt.Printf("dalia-serve: "+format+"\n", args...)
		},
	}
	if *storeDir != "" {
		st, stats, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dalia-serve: open store %s: %v\n", *storeDir, err)
			os.Exit(1)
		}
		defer st.Close()
		opts.Store = st
		opts.Recovery = stats
		fmt.Printf("dalia-serve: store %s opened: %s\n", *storeDir, stats)
	}

	srv := serve.New(opts)
	if *preload != "" {
		for _, spec := range strings.Split(*preload, ",") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			name := strings.ToLower(spec)
			fmt.Printf("preloading %s as %q...\n", spec, name)
			t0 := time.Now()
			m, err := srv.FitModel(serve.FitRequest{Name: name, Spec: spec, MaxIter: *maxIter})
			if err != nil {
				fmt.Fprintf(os.Stderr, "preload %s: %v\n", spec, err)
				os.Exit(1)
			}
			if err := srv.Register(m); err != nil {
				fmt.Fprintf(os.Stderr, "preload %s: %v\n", spec, err)
				os.Exit(1)
			}
			fmt.Printf("  fitted in %.2fs\n", time.Since(t0).Seconds())
		}
	}

	// Explicit Listen (instead of ListenAndServe) so ":0" binds print the
	// actual address — the crash-restart harness depends on this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dalia-serve: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	fmt.Printf("dalia-serve listening on %s (batch window %v)\n", ln.Addr(), *window)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "dalia-serve: %v\n", err)
			os.Exit(1)
		}
	case sig := <-sigCh:
		fmt.Printf("dalia-serve: %v received, draining...\n", sig)
		ctx := context.Background()
		if *drainTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *drainTimeout)
			defer cancel()
		}
		// Drain the batchers first (queued work answers 503 + Retry-After,
		// in-flight batches finish, pending checkpoints flush to the store),
		// then close the HTTP listener waiting for the in-flight handlers to
		// write their replies.
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "dalia-serve: drain: %v\n", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "dalia-serve: shutdown: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("dalia-serve: drained, bye")
	}
}
