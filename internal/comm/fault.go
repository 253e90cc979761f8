// Fault model: deterministic, seed-driven injection of the two failures the
// distributed drivers survive — delayed messages and whole-rank death —
// plus the ULFM-style recovery surface the upper layers build on (typed
// RankFailure/RevokedError faults, communicator revocation, and Shrink to a
// survivors-only communicator).
//
// Faults are raised as panics carrying typed error values so the simulated
// MPI API keeps its panic-on-anomaly signature; Catch/FaultOf convert them
// to errors at recovery boundaries (the solver entry points and the
// distributed driver's retry loop). Run executes an SPMD body with a
// per-rank recover, so a dying rank surfaces as a RankFailure instead of
// taking the process down.
package comm

import (
	"errors"
	"fmt"
)

// RankFailure reports that a rank is gone — killed by a fault plan, exited
// after an escaped panic, or already returned — while a peer still depended
// on it.
type RankFailure struct {
	Rank int    // world rank that failed
	Op   string // operation that observed (or caused) the failure
	Tag  int    // message tag when applicable, else -1
}

func (e *RankFailure) Error() string {
	if e.Tag >= 0 {
		return fmt.Sprintf("comm: rank %d failed (observed in %s, tag %d)", e.Rank, e.Op, e.Tag)
	}
	return fmt.Sprintf("comm: rank %d failed (observed in %s)", e.Rank, e.Op)
}

// RevokedError reports an operation on a revoked communicator. After a
// failure is detected, Revoke (called implicitly by Shrink) invalidates the
// communicator and everything split from it, so every member — not only the
// ranks talking to the dead one — unblocks and can join the recovery.
type RevokedError struct {
	Epoch int // shrink epoch of the revoked communicator
}

func (e *RevokedError) Error() string {
	return fmt.Sprintf("comm: communicator revoked (epoch %d)", e.Epoch)
}

// CommError carries rank/tag context for a communicator misuse — the
// conditions the collectives used to report as bare-string panics.
type CommError struct {
	Op   string
	Rank int // comm-local rank that raised it (-1 when not rank-specific)
	Tag  int // message tag when applicable, else -1
	Msg  string
}

func (e *CommError) Error() string {
	s := "comm: " + e.Op
	if e.Rank >= 0 {
		s += fmt.Sprintf(" (rank %d", e.Rank)
		if e.Tag >= 0 {
			s += fmt.Sprintf(", tag %d", e.Tag)
		}
		s += ")"
	} else if e.Tag >= 0 {
		s += fmt.Sprintf(" (tag %d)", e.Tag)
	}
	return s + ": " + e.Msg
}

// FaultOf inspects a recovered panic value and returns the typed comm error
// it carries, or nil when the panic did not originate from this package's
// fault model.
func FaultOf(r any) error {
	switch e := r.(type) {
	case *RankFailure:
		return e
	case *RevokedError:
		return e
	case *CommError:
		return e
	}
	return nil
}

// Catch runs f and converts a comm-fault panic into the returned error.
// Non-fault panics propagate unchanged.
func Catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if fe := FaultOf(r); fe != nil {
				err = fe
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// Retryable reports whether err (or anything it wraps) is a fault a driver
// can recover from by revoking, shrinking and retrying: a rank failure or a
// revocation.
func Retryable(err error) bool {
	var rf *RankFailure
	var re *RevokedError
	return errors.As(err, &rf) || errors.As(err, &re)
}

// FaultPlan is a deterministic, seed-driven fault injector. Delay decisions
// hash (Seed, world src, world dst, tag, per-route sequence number), so a
// plan reproduces the same delays regardless of goroutine scheduling; Kill
// schedules rank death by that rank's own operation count.
type FaultPlan struct {
	Seed int64
	// DelayProb/DelaySeconds add virtual latency to a message.
	DelayProb    float64
	DelaySeconds float64
	// Kill maps a world rank to the 1-based index of the communication
	// operation (send, recv or collective) before which it dies.
	Kill map[int]int
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// routeHash derives the deterministic per-message hash stream.
func (p *FaultPlan) routeHash(src, dst, tag int, seq int64) uint64 {
	h := splitmix64(uint64(p.Seed))
	h = splitmix64(h ^ uint64(src)<<1)
	h = splitmix64(h ^ uint64(dst)<<17)
	h = splitmix64(h ^ uint64(tag)<<33)
	h = splitmix64(h ^ uint64(seq))
	return h
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// delayed reports whether the plan delays one message.
func (p *FaultPlan) delayed(src, dst, tag int, seq int64) bool {
	return unit(p.routeHash(src, dst, tag, seq)) < p.DelayProb
}

// rankDeath is the scheduled-kill panic sentinel; only Run's per-rank
// wrapper recovers it.
type rankDeath struct{ rank int }

// commOp counts this rank's communication operations and dies when the
// fault plan says so. Ranks are single goroutines, so the counter needs no
// lock.
func (c *Comm) commOp(op string) {
	w := c.shared.world
	if w.plan == nil || len(w.plan.Kill) == 0 {
		return
	}
	n, ok := w.plan.Kill[c.worldRank]
	if !ok {
		return
	}
	w.ops[c.worldRank]++
	if w.ops[c.worldRank] >= int64(n) {
		panic(rankDeath{c.worldRank})
	}
}

// isDead reports whether a world rank has exited or been killed.
func (w *World) isDead(rank int) bool {
	if !w.anyDead.Load() {
		return false
	}
	w.deadMu.Lock()
	d := w.dead[rank]
	w.deadMu.Unlock()
	return d
}

// markDead records a rank as gone and wakes every blocked receiver and
// collective waiter so they can observe the failure.
func (w *World) markDead(rank int) {
	w.deadMu.Lock()
	if w.dead[rank] {
		w.deadMu.Unlock()
		return
	}
	w.dead[rank] = true
	w.deadMu.Unlock()
	w.anyDead.Store(true)
	w.wakeAll()
}

// wakeAll broadcasts every mailbox and collective condition in the world.
func (w *World) wakeAll() {
	w.mailMu.Lock()
	mbs := make([]*mailbox, 0, len(w.mailboxes))
	for _, mb := range w.mailboxes {
		mbs = append(mbs, mb)
	}
	w.mailMu.Unlock()
	for _, mb := range mbs {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	w.commIDMu.Lock()
	comms := make([]*commShared, len(w.comms))
	copy(comms, w.comms)
	w.commIDMu.Unlock()
	for _, cs := range comms {
		cs.collMu.Lock()
		cs.collCond.Broadcast()
		cs.collMu.Unlock()
	}
}

// revokedAtLeast reports whether epochs ≤ epoch are revoked.
func (w *World) revokedAtLeast(epoch int) bool {
	return int(w.revoked.Load()) >= epoch
}

// checkLive panics when this communicator has been revoked.
func (c *Comm) checkLive(op string) {
	if c.shared.world.revokedAtLeast(c.shared.epoch) {
		panic(&RevokedError{Epoch: c.shared.epoch})
	}
}

// Revoke invalidates this communicator, everything split from it, and every
// older shrink epoch: all pending and future operations on them fail with a
// RevokedError on every member. Call it (or Shrink, which calls it) after
// detecting a failure so peers blocked on unrelated routes unblock too.
// Communicators produced by a later Shrink are unaffected. Idempotent.
func (c *Comm) Revoke() {
	w := c.shared.world
	e := c.shared.epoch
	w.epochMu.Lock()
	if int(w.revoked.Load()) < e {
		// Freeze the dead set per revoked epoch: every survivor shrinking
		// from epoch e must agree on the membership of epoch e+1 even if
		// further ranks die while they get there.
		w.deadMu.Lock()
		snap := append([]bool(nil), w.dead...)
		w.deadMu.Unlock()
		for k := int(w.revoked.Load()) + 1; k <= e; k++ {
			if _, ok := w.deadSnap[k]; !ok {
				w.deadSnap[k] = snap
			}
		}
		w.revoked.Store(int64(e))
	}
	w.epochMu.Unlock()
	w.wakeAll()
}

// Shrink revokes this communicator and returns its successor containing only
// the members still alive at revocation time, with comm-local ranks
// compacted in the old order. Every surviving member must call Shrink on the
// same communicator; the caller's handle in the new communicator is
// returned. The new communicator starts with fresh mailboxes and collective
// state, so stale traffic from before the failure is invisible.
func (c *Comm) Shrink() *Comm {
	c.Revoke()
	w := c.shared.world
	w.epochMu.Lock()
	snap := w.deadSnap[c.shared.epoch]
	w.epochMu.Unlock()
	live := make([]int, 0, len(c.shared.members))
	for _, m := range c.shared.members {
		if snap == nil || !snap[m] {
			live = append(live, m)
		}
	}
	key := fmt.Sprintf("%d/shrink:%v", c.shared.id, live)
	cs := c.shared.world.internComm(key, live, c.shared.epoch+1)
	return cs.forRank(c.worldRank)
}
