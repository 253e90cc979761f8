// Package sched is the work-stealing task executor behind the in-process
// evaluation batches. One process-wide pool of GOMAXPROCS-bounded workers
// runs whole θ-point evaluations as heavy tasks, so the evaluations of
// concurrent batches interleave on the same cores.
//
// Tasks are two-tier:
//
//   - Heavy tasks (whole θ-point evaluation bodies, which may block in
//     nested joins of their own) go to a global injector FIFO and are run
//     only by executor workers and WaitHeavy joiners. A BTAEvaluator batch
//     submits its runner bodies this way; a zero-worker executor still
//     completes the batch on the joining caller.
//
//   - Light tasks live on per-computation deques ("lanes"): an operation
//     acquires a pooled lane, pushes its tasks there (LIFO for the owner,
//     FIFO steal for everyone else) and joins by help-first waiting. No
//     program path spawns light tasks since the partitioned BTA solver runs
//     one partition per communicator rank; the lanes stay only because the
//     end-to-end benchmark's sched.* rows time them, and go with the next
//     change to the benchmark.
//
// Task nodes are caller-owned and reused across cycles; spawning, joining,
// stealing and parking are allocation-free after warmup.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor owns the worker pool, the lane registry and the heavy-task
// injector. Use Shared for the process-wide instance; New only for tests
// and benchmarks that need private sizing.
type Executor struct {
	// lanes is a copy-on-write snapshot of every lane ever registered;
	// thieves iterate it lock-free. Released lanes stay registered (their
	// deques are empty) and are recycled by AcquireLane, so the registry
	// size is bounded by the maximum number of concurrent operations.
	lanes  atomic.Pointer[[]*Lane]
	laneMu sync.Mutex
	free   []*Lane

	// injector FIFO of heavy tasks, linked through Task.next.
	injMu   sync.Mutex
	injHead *Task
	injTail *Task

	// Eventcount parking. signal bumps seq and wakes sleepers; park
	// re-checks seq under the lock after registering as a waiter, so a
	// wakeup between a failed poll and the park cannot be lost.
	mu      sync.Mutex
	cond    *sync.Cond
	seq     atomic.Uint64
	waiters atomic.Int32

	rot     atomic.Uint32
	closed  atomic.Bool
	wg      sync.WaitGroup
	workers int
}

// New builds an executor with the given number of worker goroutines.
// workers may be 0: every operation still completes through help-first
// joins on the submitting goroutines (useful for tests and for running
// after Close). Use Shared for production paths.
func New(workers int) *Executor {
	if workers < 0 {
		workers = 0
	}
	e := &Executor{workers: workers}
	e.cond = sync.NewCond(&e.mu)
	empty := make([]*Lane, 0)
	e.lanes.Store(&empty)
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers reports the pool size the executor was built with.
func (e *Executor) Workers() int { return e.workers }

// Close retires the worker pool and waits for the workers to exit. Tasks
// already queued are not run by workers after Close, but remain runnable
// through help-first joins, so in-flight operations still complete —
// serially, on their owners. Safe to call once.
func (e *Executor) Close() {
	e.closed.Store(true)
	e.signal()
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

var shared atomic.Pointer[Executor]

// Shared returns the process-wide executor, creating it on first use with
// GOMAXPROCS workers.
func Shared() *Executor {
	if e := shared.Load(); e != nil {
		return e
	}
	e := New(runtime.GOMAXPROCS(0))
	if shared.CompareAndSwap(nil, e) {
		return e
	}
	e.Close()
	return shared.Load()
}

// Lane is a per-computation work deque. Acquire one per operation,
// spawn the operation's light tasks onto it, join, release. The owner pops
// LIFO; everyone else steals FIFO.
type Lane struct {
	d  deque
	ex *Executor
}

// AcquireLane returns a pooled lane bound to the executor.
func (e *Executor) AcquireLane() *Lane {
	e.laneMu.Lock()
	if n := len(e.free); n > 0 {
		l := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.laneMu.Unlock()
		return l
	}
	l := &Lane{ex: e}
	l.d.init()
	cur := e.lanes.Load()
	next := make([]*Lane, len(*cur)+1)
	copy(next, *cur)
	next[len(*cur)] = l
	e.lanes.Store(&next)
	e.laneMu.Unlock()
	return l
}

// ReleaseLane returns an idle lane to the pool. The caller must have
// joined every task spawned onto it.
func (e *Executor) ReleaseLane(l *Lane) {
	e.laneMu.Lock()
	e.free = append(e.free, l)
	e.laneMu.Unlock()
}

// Spawn enqueues a Reset task onto the lane.
func (l *Lane) Spawn(t *Task) {
	l.d.push(t)
	l.ex.signal()
}

// Submit enqueues a Reset task onto the heavy injector: whole θ-point
// evaluation bodies that may themselves block in nested joins. Only
// executor workers and WaitHeavy joiners run them; lane helpers skip them
// so a fine-grained light-task join never buries a full evaluation on its
// stack.
func (e *Executor) Submit(t *Task) {
	e.inject(t)
}

func (e *Executor) inject(t *Task) {
	e.injMu.Lock()
	if e.injTail == nil {
		e.injHead = t
	} else {
		e.injTail.next = t
	}
	e.injTail = t
	e.injMu.Unlock()
	e.signal()
}

func (e *Executor) popInject() *Task {
	e.injMu.Lock()
	t := e.injHead
	if t != nil {
		e.injHead = t.next
		if e.injHead == nil {
			e.injTail = nil
		}
		t.next = nil
	}
	e.injMu.Unlock()
	return t
}

// poll finds one runnable task: the caller's own lane (LIFO), then a
// rotating FIFO steal across every registered lane, then — for heavy
// pollers — the injector.
func (e *Executor) poll(l *Lane, heavy bool) *Task {
	if l != nil {
		if t := l.d.pop(); t != nil {
			return t
		}
	}
	lanes := *e.lanes.Load()
	if n := len(lanes); n > 0 {
		off := int(e.rot.Add(1) % uint32(n))
		for i := 0; i < n; i++ {
			ln := lanes[(off+i)%n]
			if ln == l {
				continue
			}
			if t := ln.d.steal(); t != nil {
				return t
			}
		}
	}
	if heavy {
		return e.popInject()
	}
	return nil
}

// signal publishes "new work / state change" to parked goroutines.
func (e *Executor) signal() {
	e.seq.Add(1)
	if e.waiters.Load() > 0 {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	}
}

// park sleeps until the eventcount moves past s. The caller must have
// loaded s from seq before its final failed poll: registering as a waiter
// happens before the re-check, so a signal racing with the poll either
// sees waiters > 0 and broadcasts, or bumped seq early enough for the
// re-check to bail out.
func (e *Executor) park(s uint64) {
	e.mu.Lock()
	e.waiters.Add(1)
	for e.seq.Load() == s && !e.closed.Load() {
		e.cond.Wait()
	}
	e.waiters.Add(-1)
	e.mu.Unlock()
}

func (e *Executor) worker() {
	defer e.wg.Done()
	for {
		if t := e.poll(nil, true); t != nil {
			t.run()
			continue
		}
		s := e.seq.Load()
		if e.closed.Load() {
			return
		}
		if t := e.poll(nil, true); t != nil {
			t.run()
			continue
		}
		e.park(s)
	}
}
