package serve

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dalia-hpc/dalia/internal/predict"
)

// pending is one in-flight prediction request awaiting its batch: the
// queries, the caller-owned result slices, the admission timestamp the SLO
// flush policy budgets against, and a completion signal.
type pending struct {
	qs          []predict.Query
	means, vars []float64
	enq         time.Time
	err         error
	done        chan struct{}
}

// batcher coalesces concurrent prediction requests against one registered
// model into single PredictInto calls. A pool of worker replicas drains the request
// channel; each worker that picks up a first arrival opens a collection
// window, packs further requests into the same batch until the predictor's
// coalescing width is reached (immediate flush, no waiting), the window
// elapses, or the SLO flush policy fires, then runs the whole batch through
// one Snapshot.PredictInto — the snapshot read path is lock-free, so
// replicas answer concurrently without contending on anything but the
// request channel. A query costs well under a microsecond there, so what a
// wider batch amortizes is the queue handoff, not the arithmetic.
//
// The SLO flush policy bounds tail latency: the batcher keeps a decaying
// estimate of batch-solve time (solveEWMA), and flushes as soon as the
// oldest queued request's remaining deadline budget (SLO − time already
// waited) drops below that estimate — a batch never idles its window open
// when doing so would blow the oldest member's latency target. Layered on
// top of the width and window triggers; 0 disables it.
//
// Admission is bounded: the request channel is the queue, and a full queue
// rejects immediately with ErrOverloaded instead of blocking the handler —
// under overload the server sheds load (429 + Retry-After) rather than
// accumulating goroutines.
type batcher struct {
	h        *predict.Handle
	window   time.Duration
	slo      time.Duration
	ch       chan *pending
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	// closeErr is the error requests fail with once shutdown begins. It is
	// written inside stopOnce before stop closes; readers only load it after
	// observing stop closed, so the channel close orders the accesses.
	closeErr error

	// solveEWMA is the decaying latency model behind the SLO flush policy:
	// Float64bits of the expected batch-solve seconds.
	solveEWMA atomic.Uint64

	// batch statistics (atomics; read by /stats)
	batches      atomic.Int64
	batchedQs    atomic.Int64
	maxBatchSeen atomic.Int64
	shed         atomic.Int64
	sloFlushes   atomic.Int64
}

// newBatcher starts the worker pool. Window 0 means flush as soon as the
// channel momentarily drains (minimum latency, still coalescing whatever is
// already queued); queue depth ≤ 0 uses the default admission queue of 64
// pending requests; replicas ≤ 0 sizes the pool to GOMAXPROCS.
func newBatcher(h *predict.Handle, opts Options) *batcher {
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = runtime.GOMAXPROCS(0)
	}
	b := &batcher{
		h: h, window: opts.BatchWindow, slo: opts.SLO,
		ch:   make(chan *pending, depth),
		stop: make(chan struct{}),
	}
	b.startWorkers(replicas)
	return b
}

// startWorkers launches n batch workers joined by shutdown.
func (b *batcher) startWorkers(n int) {
	b.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer b.wg.Done()
			b.run()
		}()
	}
}

// do submits a request and blocks until its batch completes, the context
// ends, or the batcher shuts down. A full admission queue fails immediately
// with ErrOverloaded. A context cancellation abandons the request (a worker
// still processes it — results land in buffers nobody reads) and returns
// ctx.Err().
func (b *batcher) do(ctx context.Context, qs []predict.Query) ([]float64, []float64, error) {
	if b.stopped() {
		return nil, nil, b.closeErr
	}
	p := &pending{
		qs:    qs,
		means: make([]float64, len(qs)),
		vars:  make([]float64, len(qs)),
		enq:   time.Now(),
		done:  make(chan struct{}),
	}
	select {
	case b.ch <- p:
	case <-b.stop:
		return nil, nil, b.closeErr
	default:
		b.shed.Add(1)
		return nil, nil, ErrOverloaded
	}
	// The send can race shutdown: the enqueue may land in a channel no
	// worker reads anymore. Never wait on done alone once stop is closed —
	// but prefer a completed result if a worker did pick the item up.
	select {
	case <-p.done:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case <-b.stop:
		select {
		case <-p.done:
		default:
			return nil, nil, b.closeErr
		}
	}
	return p.means, p.vars, p.err
}

// shutdown stops the workers and waits for them to exit, so callers folding
// the batcher's statistics afterwards see the final flushes counted. Queued
// and subsequent requests fail with cause (nil = errStopped, the
// model-unregistered condition; the server drain passes ErrServerClosed).
// Safe to call repeatedly — the first cause wins.
func (b *batcher) shutdown(cause error) {
	b.stopOnce.Do(func() {
		if cause == nil {
			cause = errStopped
		}
		b.closeErr = cause
		close(b.stop)
	})
	b.wg.Wait()
}

// stopped reports whether shutdown has begun.
func (b *batcher) stopped() bool {
	select {
	case <-b.stop:
		return true
	default:
		return false
	}
}

// expectedSolve returns the decayed batch-solve time estimate (0 until the
// first flush has been observed).
func (b *batcher) expectedSolve() time.Duration {
	return time.Duration(math.Float64frombits(b.solveEWMA.Load()) * float64(time.Second))
}

// observeSolve folds one measured batch solve into the decaying latency
// model (EWMA, α = 0.25; the first observation seeds it).
func (b *batcher) observeSolve(d time.Duration) {
	s := d.Seconds()
	for {
		old := b.solveEWMA.Load()
		next := s
		if cur := math.Float64frombits(old); cur > 0 {
			next = 0.75*cur + 0.25*s
		}
		if b.solveEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// run is one worker replica's loop: take a first request, collect a batch,
// flush it through the shared snapshot handle.
func (b *batcher) run() {
	for {
		var first *pending
		select {
		case first = <-b.ch:
		case <-b.stop:
			b.drainFailed()
			return
		}
		// Both select cases may have been ready (Go picks randomly): honor
		// shutdown over work received after stop closed, so the close-error
		// contract is deterministic.
		if b.stopped() {
			first.err = b.closeErr
			close(first.done)
			b.drainFailed()
			return
		}
		// Re-read the width each batch: a refit may have published a
		// snapshot with a different coalescing width.
		maxQ := b.h.Load().MaxBatch()
		batch := []*pending{first}
		n := len(first.qs)

		// Flush deadline: the window caps collection; the SLO policy cuts
		// it short when the oldest request's remaining budget (SLO minus
		// time already queued) is about to drop below the expected solve
		// time. sloCut records that the SLO, not the window, set the
		// deadline for this batch.
		var timeout <-chan time.Time
		var timer *time.Timer
		sloCut, sloFired := false, false
		if b.window > 0 {
			d := b.window
			if b.slo > 0 {
				if budget := b.slo - b.expectedSolve() - time.Since(first.enq); budget < d {
					d, sloCut = budget, true
				}
			}
			if d > 0 {
				timer = time.NewTimer(d)
				timeout = timer.C
			} else {
				// Budget already exhausted: flush immediately, taking only
				// what is already queued.
				sloFired = sloCut
			}
		}
	collect:
		for n < maxQ {
			if timeout != nil {
				// Window open: block until more work, the deadline, or stop.
				select {
				case p := <-b.ch:
					batch = append(batch, p)
					n += len(p.qs)
				case <-timeout:
					sloFired = sloCut
					break collect
				case <-b.stop:
					break collect
				}
			} else {
				// No window (or an exhausted SLO budget): take whatever is
				// already queued, then flush.
				select {
				case p := <-b.ch:
					batch = append(batch, p)
					n += len(p.qs)
				default:
					break collect
				}
			}
		}
		if timer != nil {
			timer.Stop()
		}
		if sloFired {
			b.sloFlushes.Add(1)
		}
		b.flush(batch, n)
	}
}

// flush concatenates the batch and runs one coalesced prediction pass
// against the currently published snapshot, feeding the measured solve time
// back into the SLO latency model.
func (b *batcher) flush(batch []*pending, n int) {
	qs := make([]predict.Query, 0, n)
	for _, p := range batch {
		qs = append(qs, p.qs...)
	}
	means := make([]float64, len(qs))
	vars := make([]float64, len(qs))
	t0 := time.Now()
	err := b.h.PredictInto(qs, means, vars)
	b.observeSolve(time.Since(t0))
	// Count the batch before waking any requester: a client must never
	// observe /stats missing the batch its own reply came from.
	b.batches.Add(1)
	b.batchedQs.Add(int64(n))
	for {
		cur := b.maxBatchSeen.Load()
		if int64(n) <= cur || b.maxBatchSeen.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	off := 0
	for _, p := range batch {
		if err != nil {
			p.err = err
		} else {
			copy(p.means, means[off:off+len(p.qs)])
			copy(p.vars, vars[off:off+len(p.qs)])
		}
		off += len(p.qs)
		close(p.done)
	}
}

// drainFailed fails whatever was queued when shutdown raced a submit.
// Every exiting worker drains; they race harmlessly on the channel.
func (b *batcher) drainFailed() {
	for {
		select {
		case p := <-b.ch:
			p.err = b.closeErr
			close(p.done)
		default:
			return
		}
	}
}
