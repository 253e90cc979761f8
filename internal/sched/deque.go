package sched

import "sync"

// deque is the per-lane work deque: the lane owner pushes and pops at the
// bottom (LIFO, keeping the working set cache-hot) while thieves take from
// the top (FIFO, stealing the oldest — and therefore typically largest —
// pending task). Tasks are chunky (a partition elimination, a back-solve
// sweep, a θ-point evaluation), so a fine-grained per-lane mutex costs
// nothing against the work it guards and keeps every push/pop/steal pairing
// trivially correct under the race detector; the scheduling discipline is
// exactly the classic work-stealing one.
//
// The ring is sized at laneCap entries up front and grows only if an
// operation ever has more than laneCap tasks in flight, so steady-state
// push/pop is allocation-free (the AllocsPerRun pins in bta and inla run
// through this path).
type deque struct {
	mu   sync.Mutex
	ring []*Task
	// top is the index of the oldest queued task, bot one past the newest;
	// both grow without wrapping (ring indexing is mod len).
	top, bot int64
}

// laneCap is the initial ring capacity. The widest producers are the
// per-partition gangs (one task per partition, ≤ MaxUsefulPartitions on
// the evaluation path), so 64 covers every steady-state operation without
// growth.
const laneCap = 64

func (d *deque) init() {
	if d.ring == nil {
		d.ring = make([]*Task, laneCap)
	}
}

// push appends t at the bottom of the deque.
func (d *deque) push(t *Task) {
	d.mu.Lock()
	n := int64(len(d.ring))
	if d.bot-d.top == n {
		grown := make([]*Task, 2*n)
		for i := d.top; i < d.bot; i++ {
			grown[i%(2*n)] = d.ring[i%n]
		}
		d.ring = grown
		n *= 2
	}
	d.ring[d.bot%n] = t
	d.bot++
	d.mu.Unlock()
}

// pop removes and returns the newest task (LIFO), or nil if empty.
func (d *deque) pop() *Task {
	d.mu.Lock()
	if d.bot == d.top {
		d.mu.Unlock()
		return nil
	}
	d.bot--
	n := int64(len(d.ring))
	t := d.ring[d.bot%n]
	d.ring[d.bot%n] = nil
	d.mu.Unlock()
	return t
}

// steal removes and returns the oldest task (FIFO), or nil if empty.
func (d *deque) steal() *Task {
	d.mu.Lock()
	if d.bot == d.top {
		d.mu.Unlock()
		return nil
	}
	n := int64(len(d.ring))
	t := d.ring[d.top%n]
	d.ring[d.top%n] = nil
	d.top++
	d.mu.Unlock()
	return t
}
