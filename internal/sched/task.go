package sched

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// Task is one schedulable unit of work. Task nodes are caller-owned and
// may be reused across cycles, so steady-state submission performs no
// allocation. A node must be Reset before every (re)use and must not be
// touched again until the Group it was spawned under has been waited on.
type Task struct {
	// fn is the task body. It runs exactly once per Reset/spawn cycle, on
	// whichever goroutine (executor worker, lane owner, or helping joiner)
	// dequeues the node first.
	fn func()
	// g, when non-nil, is decremented on completion; Group.Wait returns
	// once every task counted into the group has finished.
	g *Group
	// next links the node into the executor's injector FIFO (heavy tasks).
	next *Task
	// labels, when non-nil, is a pprof label context applied to the running
	// goroutine for the duration of fn (phase=elim|reduced|sweep|sigma,
	// eval=<k>). Precomputed by the caller so applying it is alloc-free.
	labels context.Context
}

// Reset prepares a node for one spawn cycle on an executor: body fn,
// completion group g (may be nil), and an optional precomputed pprof label
// context. The executor is the one of the Lane.Spawn or Executor.Submit
// call that enqueues the node; Reset itself does not need it.
func (t *Task) Reset(_ *Executor, g *Group, fn func(), labels context.Context) {
	t.g = g
	t.fn = fn
	t.labels = labels
	t.next = nil
}

// run executes the node body and then retires it from its group. Called
// by exactly one goroutine per cycle.
func (t *Task) run() {
	if t.labels != nil {
		pprof.SetGoroutineLabels(t.labels)
	}
	t.fn()
	if t.labels != nil {
		pprof.SetGoroutineLabels(bgCtx)
	}
	if g := t.g; g != nil {
		g.done()
	}
}

// bgCtx restores the default (empty) label set after a labeled task.
var bgCtx = context.Background()

// Group counts outstanding tasks of one join scope — a light-task
// operation or an evaluation batch. The zero value is unusable; call Init first.
type Group struct {
	n  atomic.Int64
	ex *Executor
}

// Init binds the group to an executor and zeroes the outstanding count.
func (g *Group) Init(ex *Executor) {
	g.ex = ex
	g.n.Store(0)
}

// Add records delta tasks that will complete against the group. Call before
// spawning the tasks it covers.
func (g *Group) Add(delta int) { g.n.Add(int64(delta)) }

// done retires one task; the last retirement wakes any parked waiters.
func (g *Group) done() {
	if g.n.Add(-1) == 0 {
		g.ex.signal()
	}
}

// Wait blocks until every task Added to the group has completed, helping
// with pending light work instead of idling: it drains l (the caller's own
// lane, may be nil), then steals from other lanes, and only parks when no
// light task is runnable anywhere. Heavy injector tasks are skipped — a
// light-task join must not grow its stack by a whole nested evaluation.
func (g *Group) Wait(l *Lane) { g.wait(l, false) }

// WaitHeavy is Wait for batch scopes: it additionally runs heavy injector
// tasks, so an evaluation batch makes progress even when every executor
// worker is busy elsewhere (or the executor has zero workers).
func (g *Group) WaitHeavy(l *Lane) { g.wait(l, true) }

func (g *Group) wait(l *Lane, heavy bool) {
	ex := g.ex
	for g.n.Load() > 0 {
		if t := ex.poll(l, heavy); t != nil {
			t.run()
			continue
		}
		s := ex.seq.Load()
		if g.n.Load() == 0 {
			return
		}
		if t := ex.poll(l, heavy); t != nil {
			t.run()
			continue
		}
		ex.park(s)
	}
}
