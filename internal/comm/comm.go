// Package comm simulates the distributed-memory machine of the DALIA paper
// (MPI + NCCL on GH200 nodes) on a single host.
//
// A World runs P ranks as goroutines executing the same SPMD body. Each rank
// owns a virtual clock:
//
//   - Compute(f) runs f under a global lock (so measurements are not
//     perturbed by other ranks' goroutines), measures its wall time, and
//     advances the rank's clock by it. The real kernels therefore pay their
//     real cost.
//   - Communication primitives advance clocks by a machine model
//     (per-message latency + bytes/bandwidth; collectives pay a log₂(P)
//     tree factor) and synchronize clocks the way blocking MPI calls do:
//     a receiver cannot finish before the sender's send completed.
//
// The simulated runtime of a program is the *makespan*: the maximum final
// clock over ranks. This reproduces the scaling behaviour of the paper's
// three nested parallelization layers — which is a property of work
// partitioning and message structure — without owning 496 superchips.
package comm

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Machine parameterizes the communication cost model.
type Machine struct {
	// Latency is the fixed per-message cost in seconds.
	Latency float64
	// BytesPerSecond is the link bandwidth.
	BytesPerSecond float64
	// CollectiveTreeFactor scales collective costs; cost =
	// factor·⌈log₂P⌉·(Latency + bytes/BW). 1 models tree algorithms.
	CollectiveTreeFactor float64
}

// DefaultMachine models a tightly coupled accelerator fabric (NCCL-class
// intranode links): 5 µs latency, 25 GB/s effective bandwidth.
func DefaultMachine() Machine {
	return Machine{Latency: 5e-6, BytesPerSecond: 25e9, CollectiveTreeFactor: 1}
}

// p2pCost returns the modeled time for one message of n float64 words.
func (m Machine) p2pCost(words int) float64 {
	return m.Latency + float64(8*words)/m.BytesPerSecond
}

// collCost returns the modeled time of one collective over p ranks moving n
// float64 words per rank.
func (m Machine) collCost(p, words int) float64 {
	if p <= 1 {
		return 0
	}
	hops := float64(treeHops(p))
	return m.CollectiveTreeFactor * hops * (m.Latency + float64(8*words)/m.BytesPerSecond)
}

// treeHops is ⌈log₂ p⌉, the depth of the tree a collective over p ranks
// runs on.
func treeHops(p int) int { return bits.Len(uint(p - 1)) }

// RankStats aggregates a rank's virtual-time breakdown. BytesSent and
// MessagesSent count point-to-point sends plus, for every collective over
// n > 1 ranks, ⌈log₂ n⌉ messages of the collective's widest payload.
type RankStats struct {
	ComputeSeconds float64
	BytesSent      int64
	MessagesSent   int64
}

// Stats is the outcome of a World run.
type Stats struct {
	Ranks []RankStats
	// FinalClocks holds each rank's virtual clock at exit.
	FinalClocks []float64
	// Killed lists the world ranks the run's fault plan killed on schedule.
	Killed []int
}

// Makespan returns the simulated runtime: the maximum final clock.
func (s Stats) Makespan() float64 {
	var mx float64
	for _, c := range s.FinalClocks {
		if c > mx {
			mx = c
		}
	}
	return mx
}

// TotalCompute returns the summed compute seconds over all ranks.
func (s Stats) TotalCompute() float64 {
	var t float64
	for _, r := range s.Ranks {
		t += r.ComputeSeconds
	}
	return t
}

// MaxCompute returns the largest per-rank compute time — the compute-bound
// lower bound on the makespan.
func (s Stats) MaxCompute() float64 {
	var mx float64
	for _, r := range s.Ranks {
		if r.ComputeSeconds > mx {
			mx = r.ComputeSeconds
		}
	}
	return mx
}

// Imbalance returns maxCompute/meanCompute (1 = perfectly balanced).
func (s Stats) Imbalance() float64 {
	if len(s.Ranks) == 0 {
		return 1
	}
	mean := s.TotalCompute() / float64(len(s.Ranks))
	if mean == 0 {
		return 1
	}
	return s.MaxCompute() / mean
}

type mailKey struct {
	comm     int64
	src, dst int
	tag      int
}

type message struct {
	data      []float64
	sendClock float64
}

type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []message
	sent int64 // per-route send sequence (fault-plan determinism)
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// World is the simulated machine.
type World struct {
	size int
	mach Machine

	mailMu    sync.Mutex
	mailboxes map[mailKey]*mailbox

	computeMu sync.Mutex

	clockMu sync.Mutex
	clocks  []float64
	stats   []RankStats

	commIDMu   sync.Mutex
	nextCommID int64
	interned   map[string]*commShared
	comms      []*commShared // registry for failure wakeups

	// Fault-tolerance state (see fault.go).
	plan     *FaultPlan
	ops      []int64 // per-rank comm-op counts (each touched by its own goroutine)
	deadMu   sync.Mutex
	dead     []bool
	anyDead  atomic.Bool
	epochMu  sync.Mutex
	revoked  atomic.Int64 // highest revoked shrink epoch (-1 = none)
	deadSnap map[int][]bool
}

func newWorld(p int, mach Machine) *World {
	w := &World{
		size:      p,
		mach:      mach,
		mailboxes: make(map[mailKey]*mailbox),
		clocks:    make([]float64, p),
		stats:     make([]RankStats, p),
		ops:       make([]int64, p),
		dead:      make([]bool, p),
		deadSnap:  make(map[int][]bool),
	}
	w.revoked.Store(-1)
	return w
}

// Run executes body as an SPMD program over p ranks on the given machine,
// injecting the faults of plan (nil runs fault-free), and returns the run's
// statistics. body must be safe for concurrent execution by p goroutines
// (each receives its own *Comm); Run panics when p < 1.
//
// Each rank's panics are recovered: a comm fault or escaped panic marks the
// rank dead — peers still waiting on it observe a RankFailure instead of
// hanging, as they do when a rank returns — and is reported in the joined
// error, while the surviving ranks keep running. A rank dying on the plan's
// schedule is the experiment, not a program error: it is listed in
// Stats.Killed and left out of the error, which joins the ranks' own
// returned errors and any unscheduled failures.
func Run(p int, mach Machine, plan *FaultPlan, body func(c *Comm) error) (Stats, error) {
	if p < 1 {
		panic(&CommError{Op: "run", Rank: -1, Tag: -1, Msg: fmt.Sprintf("world size %d < 1", p)})
	}
	w := newWorld(p, mach)
	w.plan = plan
	world := w.newComm(identityMembers(p))
	errs := make([]error, p)
	var killedMu sync.Mutex
	var killed []int
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					switch v := rec.(type) {
					case rankDeath:
						killedMu.Lock()
						killed = append(killed, v.rank)
						killedMu.Unlock()
					default:
						if fe := FaultOf(rec); fe != nil {
							errs[rank] = fmt.Errorf("comm: rank %d: %w", rank, fe)
						} else {
							errs[rank] = fmt.Errorf("comm: rank %d panicked: %v", rank, rec)
						}
					}
				}
				w.markDead(rank)
			}()
			errs[rank] = body(world.forRank(rank))
		}(r)
	}
	wg.Wait()
	st := Stats{Ranks: w.stats, FinalClocks: w.clocks, Killed: killed}
	return st, errors.Join(errs...)
}

func identityMembers(p int) []int {
	m := make([]int, p)
	for i := range m {
		m[i] = i
	}
	return m
}

// commShared is the per-communicator state shared by all member Comms.
type commShared struct {
	id      int64
	world   *World
	members []int // world ranks, index = comm rank
	epoch   int   // shrink epoch: bumped by Shrink, inherited by Split

	collMu     sync.Mutex
	collCond   *sync.Cond
	collGen    int64
	collCnt    int
	collBuf    [][]float64
	collClk    []float64
	collOut    [][]float64
	collT      float64
	collMaxW   int   // widest deposit of the pending generation
	collWords  int   // payload words of the completed generation
	collErr    error // fault raised by a reduce, published to the generation
	collErrGen int64

	useCount int // split-interning bookkeeping (guarded by world.commIDMu)
}

func (w *World) newComm(members []int) *commShared {
	w.commIDMu.Lock()
	defer w.commIDMu.Unlock()
	return w.newCommLocked(members, 0)
}

func (cs *commShared) forRank(worldRank int) *Comm {
	idx := -1
	for i, m := range cs.members {
		if m == worldRank {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(&CommError{Op: "forRank", Rank: -1, Tag: -1,
			Msg: fmt.Sprintf("world rank %d is not a member of the communicator", worldRank)})
	}
	return &Comm{shared: cs, rank: idx, worldRank: worldRank}
}

// Comm is one rank's handle on a communicator (MPI_Comm + rank).
type Comm struct {
	shared    *commShared
	rank      int
	worldRank int
}

// Rank returns this rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.shared.members) }

// Clock returns this rank's current virtual time in seconds.
func (c *Comm) Clock() float64 {
	w := c.shared.world
	w.clockMu.Lock()
	defer w.clockMu.Unlock()
	return w.clocks[c.worldRank]
}

func (c *Comm) setClock(t float64) {
	w := c.shared.world
	w.clockMu.Lock()
	if t > w.clocks[c.worldRank] {
		w.clocks[c.worldRank] = t
	}
	w.clockMu.Unlock()
}

func (c *Comm) addClock(dt float64) {
	w := c.shared.world
	w.clockMu.Lock()
	w.clocks[c.worldRank] += dt
	w.clockMu.Unlock()
}

// Compute runs f under the world's compute lock, measures its wall time and
// charges it to this rank's virtual clock. f must not call communication
// primitives (doing so would deadlock the compute lock). The lock is
// released even when f panics, so one rank's failure cannot wedge the
// world's compute lane.
func (c *Comm) Compute(f func()) {
	w := c.shared.world
	dt := func() float64 {
		w.computeMu.Lock()
		defer w.computeMu.Unlock()
		t0 := time.Now()
		f()
		return time.Since(t0).Seconds()
	}()
	c.addClock(dt)
	w.clockMu.Lock()
	w.stats[c.worldRank].ComputeSeconds += dt
	w.clockMu.Unlock()
}

// Measure runs f under the world's compute lock and returns its wall time
// WITHOUT charging any rank's clock. It exists for modeled charges: the
// caller measures work the real system would run otherwise (e.g. two
// halves of an evaluation run side by side) and charges the modeled time
// via Elapse. Running under the lock keeps the measurement clean of
// cross-goroutine scheduling noise.
func (c *Comm) Measure(f func()) float64 {
	w := c.shared.world
	w.computeMu.Lock()
	defer w.computeMu.Unlock()
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// Elapse charges modeled seconds of compute to this rank without running
// anything (used by cost-model-driven experiments and tests).
func (c *Comm) Elapse(seconds float64) {
	c.addClock(seconds)
	w := c.shared.world
	w.clockMu.Lock()
	w.stats[c.worldRank].ComputeSeconds += seconds
	w.clockMu.Unlock()
}

func (c *Comm) mailbox(src, dst, tag int) *mailbox {
	w := c.shared.world
	key := mailKey{comm: c.shared.id, src: src, dst: dst, tag: tag}
	w.mailMu.Lock()
	mb, ok := w.mailboxes[key]
	if !ok {
		mb = newMailbox()
		w.mailboxes[key] = mb
	}
	w.mailMu.Unlock()
	return mb
}

// Send transmits data to rank dst (comm-local) with the given tag. The send
// is buffered (eager); the sender is charged the message injection cost.
// Sending to a dead rank or on a revoked communicator panics with the typed
// fault (recover with Catch/FaultOf).
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.Size() {
		panic(&CommError{Op: "send", Rank: c.rank, Tag: tag,
			Msg: fmt.Sprintf("destination rank %d outside communicator of size %d", dst, c.Size())})
	}
	c.commOp("send")
	c.checkLive("send")
	w := c.shared.world
	dstWorld := c.shared.members[dst]
	if w.isDead(dstWorld) {
		panic(&RankFailure{Rank: dstWorld, Op: "send", Tag: tag})
	}
	cost := w.mach.p2pCost(len(data))
	c.addClock(w.mach.Latency) // injection overhead
	w.clockMu.Lock()
	w.stats[c.worldRank].BytesSent += int64(8 * len(data))
	w.stats[c.worldRank].MessagesSent++
	sendClock := w.clocks[c.worldRank] + cost
	w.clockMu.Unlock()

	mb := c.mailbox(c.rank, dst, tag)
	cp := append([]float64(nil), data...)
	mb.mu.Lock()
	mb.sent++
	if p := w.plan; p != nil && p.delayed(c.worldRank, dstWorld, tag, mb.sent) {
		sendClock += p.DelaySeconds
	}
	mb.q = append(mb.q, message{data: cp, sendClock: sendClock})
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. The receiver's clock advances to at least the
// message's arrival time. When src has died or the communicator was
// revoked, Recv panics with the typed fault (recover with Catch/FaultOf).
func (c *Comm) Recv(src, tag int) []float64 {
	if src < 0 || src >= c.Size() {
		panic(&CommError{Op: "recv", Rank: c.rank, Tag: tag,
			Msg: fmt.Sprintf("source rank %d outside communicator of size %d", src, c.Size())})
	}
	c.commOp("recv")
	w := c.shared.world
	srcWorld := c.shared.members[src]
	mb := c.mailbox(src, c.rank, tag)
	mb.mu.Lock()
	for len(mb.q) == 0 {
		if w.revokedAtLeast(c.shared.epoch) {
			mb.mu.Unlock()
			panic(&RevokedError{Epoch: c.shared.epoch})
		}
		if w.isDead(srcWorld) {
			mb.mu.Unlock()
			panic(&RankFailure{Rank: srcWorld, Op: "recv", Tag: tag})
		}
		mb.cond.Wait()
	}
	msg := mb.q[0]
	mb.q = mb.q[1:]
	mb.mu.Unlock()
	c.setClock(msg.sendClock)
	return msg.data
}

// collective runs one synchronized phase: every member deposits its
// contribution; the last arrival computes the outputs for all members via
// reduce and the synchronized clock; everyone leaves with its output and
// clock = t_sync. words is the per-rank message size used for cost modeling.
//
// Failure handling: a dead member or a revoked communicator makes the
// collective fail on every member with a typed fault panic (each member
// withdraws its own contribution, so the communicator state stays
// consistent). A reduce that itself raises a fault (length mismatch) is
// published to every member of the generation via collErr.
func (c *Comm) collective(contrib []float64, words int, reduce func(bufs [][]float64) [][]float64) []float64 {
	c.commOp("collective")
	cs := c.shared
	w := cs.world
	n := len(cs.members)
	if n == 1 {
		out := reduce([][]float64{contrib})
		return out[0]
	}
	c.checkLive("collective")
	if r := cs.deadMember(); r >= 0 {
		panic(&RankFailure{Rank: r, Op: "collective", Tag: -1})
	}
	clk := c.Clock()
	cs.collMu.Lock()
	myGen := cs.collGen
	cs.collBuf[c.rank] = contrib
	cs.collClk[c.rank] = clk
	cs.collMaxW = max(cs.collMaxW, words)
	cs.collCnt++
	if cs.collCnt == n {
		var tmax float64
		for _, t := range cs.collClk {
			if t > tmax {
				tmax = t
			}
		}
		cs.collT = tmax + w.mach.collCost(n, words)
		cs.collWords, cs.collMaxW = cs.collMaxW, 0
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					// Publish the fault to every waiter of this generation,
					// reset the deposit state, and re-raise locally.
					fe := FaultOf(rec)
					if fe == nil {
						fe = &CommError{Op: "collective", Rank: c.rank, Tag: -1,
							Msg: fmt.Sprintf("reduce panicked: %v", rec)}
					}
					cs.collErr = fe
					cs.collErrGen = myGen
					for i := range cs.collBuf {
						cs.collBuf[i] = nil
					}
					cs.collCnt = 0
					cs.collGen++
					cs.collCond.Broadcast()
					cs.collMu.Unlock()
					panic(fe)
				}
			}()
			outs := reduce(cs.collBuf)
			copy(cs.collOut, outs)
		}()
		cs.collCnt = 0
		cs.collGen++
		cs.collCond.Broadcast()
	} else {
		for cs.collGen == myGen {
			if w.revokedAtLeast(cs.epoch) {
				cs.withdrawLocked(c.rank)
				cs.collMu.Unlock()
				panic(&RevokedError{Epoch: cs.epoch})
			}
			if r := cs.deadMember(); r >= 0 {
				cs.withdrawLocked(c.rank)
				cs.collMu.Unlock()
				panic(&RankFailure{Rank: r, Op: "collective", Tag: -1})
			}
			cs.collCond.Wait()
		}
		if cs.collErr != nil && cs.collErrGen == myGen {
			err := cs.collErr
			cs.collMu.Unlock()
			panic(err)
		}
	}
	out := cs.collOut[c.rank]
	t := cs.collT
	words = cs.collWords
	cs.collMu.Unlock()
	c.setClock(t)
	// Each member is charged ⌈log₂ n⌉ messages of the widest payload: the
	// tree collCost prices.
	hops := int64(treeHops(n))
	w.clockMu.Lock()
	w.stats[c.worldRank].MessagesSent += hops
	w.stats[c.worldRank].BytesSent += 8 * int64(words) * hops
	w.clockMu.Unlock()
	return out
}

// withdrawLocked removes this rank's pending contribution from an
// incomplete collective generation (called with collMu held, on the way out
// of a failing collective; every waiter has deposited exactly once).
func (cs *commShared) withdrawLocked(rank int) {
	cs.collBuf[rank] = nil
	cs.collCnt--
}

// deadMember returns the world rank of a dead member of this communicator,
// or -1 when all members are alive.
func (cs *commShared) deadMember() int {
	w := cs.world
	if !w.anyDead.Load() {
		return -1
	}
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	for _, m := range cs.members {
		if w.dead[m] {
			return m
		}
	}
	return -1
}

// Barrier synchronizes all ranks of the communicator (clocks included).
func (c *Comm) Barrier() {
	c.collective(nil, 0, func(bufs [][]float64) [][]float64 {
		return make([][]float64, len(bufs))
	})
}

// AllReduceSum returns the element-wise sum of every rank's data. All data
// slices must have equal length.
func (c *Comm) AllReduceSum(data []float64) []float64 {
	return c.collective(data, len(data), func(bufs [][]float64) [][]float64 {
		sum := make([]float64, len(bufs[0]))
		for r, b := range bufs {
			if len(b) != len(sum) {
				panic(&CommError{Op: "AllReduceSum", Rank: r, Tag: -1,
					Msg: fmt.Sprintf("length mismatch across ranks: rank %d contributed %d words, rank 0 contributed %d", r, len(b), len(sum))})
			}
			for i, v := range b {
				sum[i] += v
			}
		}
		outs := make([][]float64, len(bufs))
		for i := range outs {
			outs[i] = append([]float64(nil), sum...)
		}
		return outs
	})
}

// AllReduceMax returns the element-wise max of every rank's data.
func (c *Comm) AllReduceMax(data []float64) []float64 {
	return c.collective(data, len(data), func(bufs [][]float64) [][]float64 {
		mx := append([]float64(nil), bufs[0]...)
		for _, b := range bufs[1:] {
			for i, v := range b {
				if v > mx[i] {
					mx[i] = v
				}
			}
		}
		outs := make([][]float64, len(bufs))
		for i := range outs {
			outs[i] = append([]float64(nil), mx...)
		}
		return outs
	})
}

// Bcast distributes root's data to every rank and returns the local copy.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	var contrib []float64
	if c.rank == root {
		contrib = data
	}
	words := 0
	if data != nil {
		words = len(data)
	}
	return c.collective(contrib, words, func(bufs [][]float64) [][]float64 {
		src := bufs[root]
		outs := make([][]float64, len(bufs))
		for i := range outs {
			outs[i] = append([]float64(nil), src...)
		}
		return outs
	})
}

// Gather collects every rank's data at root. Root receives one slice per
// rank, in rank order; the slices may differ in length. Non-root ranks
// receive nil.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	n := c.Size()
	flat := c.collective(data, len(data), func(bufs [][]float64) [][]float64 {
		outs := make([][]float64, len(bufs))
		// encode: lengths then payloads, delivered only to root
		var enc []float64
		enc = append(enc, float64(len(bufs)))
		for _, b := range bufs {
			enc = append(enc, float64(len(b)))
		}
		for _, b := range bufs {
			enc = append(enc, b...)
		}
		outs[root] = enc
		return outs
	})
	if c.rank != root {
		return nil
	}
	cnt := int(flat[0])
	if cnt != n {
		panic(&CommError{Op: "Gather", Rank: c.rank, Tag: -1,
			Msg: fmt.Sprintf("internal count mismatch: encoded %d contributions for a communicator of size %d", cnt, n)})
	}
	lens := make([]int, n)
	for i := 0; i < n; i++ {
		lens[i] = int(flat[1+i])
	}
	out := make([][]float64, n)
	off := 1 + n
	for i := 0; i < n; i++ {
		out[i] = append([]float64(nil), flat[off:off+lens[i]]...)
		off += lens[i]
	}
	return out
}

// allGather returns every rank's contribution, in rank order, on all ranks.
func (c *Comm) allGather(data []float64) [][]float64 {
	n := c.Size()
	flat := c.collective(data, len(data)*n, func(bufs [][]float64) [][]float64 {
		var enc []float64
		enc = append(enc, float64(len(bufs)))
		for _, b := range bufs {
			enc = append(enc, float64(len(b)))
		}
		for _, b := range bufs {
			enc = append(enc, b...)
		}
		outs := make([][]float64, len(bufs))
		for i := range outs {
			outs[i] = enc
		}
		return outs
	})
	cnt := int(flat[0])
	lens := make([]int, cnt)
	for i := 0; i < cnt; i++ {
		lens[i] = int(flat[1+i])
	}
	out := make([][]float64, cnt)
	off := 1 + cnt
	for i := 0; i < cnt; i++ {
		out[i] = append([]float64(nil), flat[off:off+lens[i]]...)
		off += lens[i]
	}
	return out
}

// Split partitions the communicator by color (as MPI_Comm_split). Ranks
// passing the same color form a new communicator ordered by (key, rank).
// Every rank must call Split; the returned communicator contains only the
// ranks that share the caller's color.
func (c *Comm) Split(color, key int) *Comm {
	n := c.Size()
	enc := []float64{float64(color), float64(key), float64(c.worldRank)}
	all := c.allGather(enc)
	type member struct{ color, key, worldRank, commRank int }
	var mine []member
	for r := 0; r < n; r++ {
		col := int(all[r][0])
		if col != color {
			continue
		}
		mine = append(mine, member{col, int(all[r][1]), int(all[r][2]), r})
	}
	sort.Slice(mine, func(a, b int) bool {
		if mine[a].key != mine[b].key {
			return mine[a].key < mine[b].key
		}
		return mine[a].commRank < mine[b].commRank
	})
	members := make([]int, len(mine))
	for i, m := range mine {
		members[i] = m.worldRank
	}
	// All ranks with the same color must agree on the new communicator's
	// identity. Derive it deterministically through a per-world registry
	// keyed by (parent comm, generation, color).
	ikey := fmt.Sprintf("%d/%d:%v", c.shared.id, color, members)
	cs := c.shared.world.internComm(ikey, members, c.shared.epoch)
	return cs.forRank(c.worldRank)
}

// internComm returns a single commShared instance per key so that all ranks
// of a Split or Shrink share coordinator state.
func (w *World) internComm(key string, members []int, epoch int) *commShared {
	w.commIDMu.Lock()
	defer w.commIDMu.Unlock()
	if w.interned == nil {
		w.interned = make(map[string]*commShared)
	}
	if cs, ok := w.interned[key]; ok {
		// A communicator is consumed once per Split generation; bump the
		// use-count and recycle.
		cs.useCount++
		if cs.useCount == len(members) {
			delete(w.interned, key)
		}
		return cs
	}
	cs := w.newCommLocked(members, epoch)
	cs.useCount = 1
	if cs.useCount == len(members) {
		// singleton communicator: nothing further to coordinate
		return cs
	}
	w.interned[key] = cs
	return cs
}

func (w *World) newCommLocked(members []int, epoch int) *commShared {
	id := w.nextCommID
	w.nextCommID++
	cs := &commShared{
		id:      id,
		world:   w,
		members: members,
		epoch:   epoch,
		collBuf: make([][]float64, len(members)),
		collClk: make([]float64, len(members)),
		collOut: make([][]float64, len(members)),
	}
	cs.collCond = sync.NewCond(&cs.collMu)
	w.comms = append(w.comms, cs)
	return cs
}
