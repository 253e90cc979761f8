package comm

import (
	"errors"
	"sort"
	"testing"
)

// Fault decisions must be a pure function of the plan and the run: a delay
// hashes (seed, route, sequence), so the same plan replayed over any
// goroutine schedule delays the same messages, and a kill fires before the
// n-th communication operation of the named rank, counted by that rank
// alone.
func TestFaultPlanDeterministic(t *testing.T) {
	p := &FaultPlan{Seed: 42, DelayProb: 0.3}
	ref := make([]bool, 64)
	delayed := 0
	for seq := range ref {
		ref[seq] = p.delayed(1, 2, 7, int64(seq))
		if ref[seq] {
			delayed++
		}
	}
	if delayed == 0 || delayed == len(ref) {
		t.Fatalf("%d of %d messages delayed at DelayProb 0.3", delayed, len(ref))
	}
	for seq := range ref {
		if p.delayed(1, 2, 7, int64(seq)) != ref[seq] {
			t.Fatalf("delay decision for seq %d not reproducible", seq)
		}
	}
	// Distinct routes draw from distinct hash streams.
	same := 0
	for seq := range ref {
		if p.delayed(2, 1, 7, int64(seq)) == ref[seq] {
			same++
		}
	}
	if same == len(ref) {
		t.Fatal("reversed route produced identical decisions — route not hashed")
	}

	// Rank 1 dies before its 4th operation: it completes three sends (each
	// to its own tag, so no receive order couples the ranks) on every
	// schedule, and rank 0 receives exactly those three.
	for rep := 0; rep < 5; rep++ {
		var sent int
		var got []int
		st, err := Run(2, DefaultMachine(), &FaultPlan{Kill: map[int]int{1: 4}}, func(c *Comm) error {
			if c.Rank() == 1 {
				for tag := 0; tag < 6; tag++ {
					c.Send(0, tag, []float64{float64(tag)})
					sent++
				}
				return nil
			}
			for tag := 0; tag < 6; tag++ {
				if Catch(func() { c.Recv(1, tag) }) != nil {
					break
				}
				got = append(got, tag)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Killed) != 1 || st.Killed[0] != 1 || sent != 3 || len(got) != 3 {
			t.Fatalf("replay %d: killed %v after %d sends, %d received; want [1], 3, 3",
				rep, st.Killed, sent, len(got))
		}
	}
}

// A scheduled kill surfaces to every surviving rank as a typed RankFailure
// at their next collective, is recorded in Stats.Killed, and — being the
// experiment — is excluded from Run's returned error.
func TestRunPlanScheduledKillSurfacesAsRankFailure(t *testing.T) {
	plan := &FaultPlan{Kill: map[int]int{2: 1}}
	faults := make([]error, 4)
	st, err := Run(4, DefaultMachine(), plan, func(c *Comm) error {
		faults[c.Rank()] = Catch(func() {
			c.AllReduceSum([]float64{1})
		})
		return nil
	})
	if err != nil {
		t.Fatalf("scheduled kill leaked into the run error: %v", err)
	}
	if len(st.Killed) != 1 || st.Killed[0] != 2 {
		t.Fatalf("Stats.Killed = %v, want [2]", st.Killed)
	}
	for r, fe := range faults {
		if r == 2 {
			continue
		}
		var rf *RankFailure
		if !errors.As(fe, &rf) {
			t.Fatalf("rank %d: fault = %v, want RankFailure", r, fe)
		}
		// The named rank is whichever gone member the waiter observed first:
		// the killed rank, or a survivor that already failed out and exited.
		if rf.Rank == r {
			t.Fatalf("rank %d observed itself as failed", r)
		}
	}
}

// Shrink-and-retry: after a kill, every survivor revokes the wounded world,
// shrinks onto the live members with compacted ranks, and completes the
// collective that failed.
func TestShrinkAfterKill(t *testing.T) {
	plan := &FaultPlan{Kill: map[int]int{1: 1}}
	sums := make([]float64, 4)
	ranks := make([]int, 4)
	for i := range ranks {
		ranks[i] = -1
	}
	_, err := Run(4, DefaultMachine(), plan, func(c *Comm) error {
		fe := Catch(func() { c.AllReduceSum([]float64{1}) })
		if fe == nil {
			return errors.New("collective with a dead member succeeded")
		}
		if !Retryable(fe) {
			return fe
		}
		nc := c.Shrink()
		if nc.Size() != 3 {
			return errors.New("shrunk world has wrong size")
		}
		ranks[c.Rank()] = nc.Rank()
		sums[c.Rank()] = nc.AllReduceSum([]float64{1})[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 2, 3} {
		if sums[r] != 3 {
			t.Fatalf("rank %d: shrunk AllReduceSum = %v, want 3", r, sums[r])
		}
	}
	got := []int{ranks[0], ranks[2], ranks[3]}
	sort.Ints(got)
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("shrunk ranks not compacted in order: %v", ranks)
	}
}

// Operations on a revoked communicator fail with RevokedError on every
// member — including members with no route to the failed rank.
func TestRevokeUnblocksUnrelatedReceiver(t *testing.T) {
	_, err := Run(3, DefaultMachine(), nil, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			// Waits for a message rank 1 will never send; must be freed by
			// rank 2's revocation rather than deadlock.
			fe := Catch(func() { c.Recv(1, 9) })
			if !Retryable(fe) {
				return errors.New("blocked receiver not released by revoke")
			}
		case 1:
			// Blocks forever on rank 2's never-sent message until revocation.
			fe := Catch(func() { c.Recv(2, 8) })
			if !Retryable(fe) {
				return errors.New("blocked receiver not released by revoke")
			}
		case 2:
			c.Revoke()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The collectives' misuse panics now carry typed, contextful CommError
// values that Catch converts into errors.
func TestCollectiveMismatchIsTypedError(t *testing.T) {
	_, err := Run(2, DefaultMachine(), nil, func(c *Comm) error {
		return Catch(func() {
			c.AllReduceSum(make([]float64, 1+c.Rank()))
		})
	})
	var ce *CommError
	if !errors.As(err, &ce) {
		t.Fatalf("length mismatch error = %v, want *CommError", err)
	}
	if ce.Op != "AllReduceSum" {
		t.Fatalf("CommError.Op = %q, want AllReduceSum", ce.Op)
	}
}

// A rank that exits its body while peers still wait on it must surface as a
// RankFailure on the peers, not a deadlock.
func TestEarlyExitMarksRankDead(t *testing.T) {
	_, err := Run(2, DefaultMachine(), nil, func(c *Comm) error {
		if c.Rank() == 0 {
			return nil // exits immediately, sends nothing
		}
		var rf *RankFailure
		if !errors.As(Catch(func() { c.Recv(0, 6) }), &rf) {
			return errors.New("receive from an exited rank should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A panic inside Compute must not deadlock the world: the compute lock is
// released on unwind and the fault reaches Run's per-rank recovery.
func TestComputePanicDoesNotDeadlock(t *testing.T) {
	_, err := Run(2, DefaultMachine(), nil, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(func() { panic("boom") })
		}
		c.Compute(func() {}) // must still acquire the compute lock
		return nil
	})
	if err == nil {
		t.Fatal("escaped compute panic should be reported")
	}
}
