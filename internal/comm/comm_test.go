package comm

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// run executes a fault-free body over p ranks and fails the test on a run
// error.
func run(t *testing.T, p int, body func(c *Comm)) Stats {
	t.Helper()
	st, err := Run(p, DefaultMachine(), nil, func(c *Comm) error {
		body(c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunAllRanksExecute(t *testing.T) {
	var count int64
	st := run(t, 5, func(c *Comm) {
		atomic.AddInt64(&count, 1)
		if c.Size() != 5 {
			t.Errorf("Size = %d", c.Size())
		}
	})
	if count != 5 {
		t.Fatalf("executed %d ranks, want 5", count)
	}
	if len(st.FinalClocks) != 5 || len(st.Ranks) != 5 {
		t.Fatal("stats sized wrong")
	}
}

func TestRanksAreDistinct(t *testing.T) {
	seen := make([]int64, 4)
	run(t, 4, func(c *Comm) {
		atomic.AddInt64(&seen[c.Rank()], 1)
		if c.worldRank != c.Rank() {
			t.Errorf("world rank %d != rank %d at top level", c.worldRank, c.Rank())
		}
	})
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("rank %d executed %d times", r, n)
		}
	}
}

func TestSendRecv(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("recv got %v", got)
			}
		}
	})
}

func TestSendRecvOrderingPerTag(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{10})
			c.Send(1, 1, []float64{20})
			c.Send(1, 2, []float64{30})
		} else {
			if v := c.Recv(0, 2); v[0] != 30 {
				t.Errorf("tag 2 got %v", v)
			}
			if v := c.Recv(0, 1); v[0] != 10 {
				t.Errorf("tag 1 first got %v", v)
			}
			if v := c.Recv(0, 1); v[0] != 20 {
				t.Errorf("tag 1 second got %v", v)
			}
		}
	})
}

func TestRecvAdvancesClockPastSender(t *testing.T) {
	st := run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Elapse(1.0) // sender is busy for 1 virtual second first
			c.Send(1, 0, make([]float64, 1000))
		} else {
			c.Recv(0, 0)
			if c.Clock() < 1.0 {
				t.Errorf("receiver clock %v < sender busy time", c.Clock())
			}
		}
	})
	if st.Makespan() < 1.0 {
		t.Fatalf("makespan %v < 1.0", st.Makespan())
	}
}

func TestAllReduceSum(t *testing.T) {
	run(t, 4, func(c *Comm) {
		v := []float64{float64(c.Rank()), 1}
		got := c.AllReduceSum(v)
		if got[0] != 6 || got[1] != 4 { // 0+1+2+3, 1×4
			t.Errorf("rank %d: AllReduceSum = %v", c.Rank(), got)
		}
	})
}

func TestAllReduceMax(t *testing.T) {
	run(t, 3, func(c *Comm) {
		got := c.AllReduceMax([]float64{float64(c.Rank()), -float64(c.Rank())})
		if got[0] != 2 || got[1] != 0 {
			t.Errorf("AllReduceMax = %v", got)
		}
	})
}

func TestBcast(t *testing.T) {
	run(t, 4, func(c *Comm) {
		var data []float64
		if c.Rank() == 2 {
			data = []float64{3.5, 4.5}
		}
		got := c.Bcast(2, data)
		if len(got) != 2 || got[0] != 3.5 || got[1] != 4.5 {
			t.Errorf("rank %d: Bcast = %v", c.Rank(), got)
		}
	})
}

func TestGatherRagged(t *testing.T) {
	run(t, 3, func(c *Comm) {
		data := make([]float64, c.Rank()+1)
		for i := range data {
			data[i] = float64(c.Rank()*10 + i)
		}
		got := c.Gather(0, data)
		if c.Rank() != 0 {
			if got != nil {
				t.Errorf("non-root got %v", got)
			}
			return
		}
		if len(got) != 3 {
			t.Fatalf("root gathered %d slices", len(got))
		}
		for r := 0; r < 3; r++ {
			if len(got[r]) != r+1 || got[r][0] != float64(r*10) {
				t.Errorf("gathered[%d] = %v", r, got[r])
			}
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	run(t, 3, func(c *Comm) {
		c.Elapse(float64(c.Rank())) // ranks at t = 0, 1, 2
		c.Barrier()
		if c.Clock() < 2 {
			t.Errorf("rank %d clock %v after barrier, want ≥ 2", c.Rank(), c.Clock())
		}
	})
}

func TestSplitColorsAndRanks(t *testing.T) {
	run(t, 6, func(c *Comm) {
		color := c.Rank() % 2
		sub := c.Split(color, c.Rank())
		if sub.Size() != 3 {
			t.Errorf("split size %d", sub.Size())
		}
		// Even world ranks {0,2,4} → sub ranks {0,1,2}.
		if want := c.Rank() / 2; sub.Rank() != want {
			t.Errorf("world %d: sub rank %d want %d", c.Rank(), sub.Rank(), want)
		}
		// Collectives work inside the split.
		got := sub.AllReduceSum([]float64{1})
		if got[0] != 3 {
			t.Errorf("sub AllReduceSum = %v", got)
		}
		// P2P works inside the split without crosstalk between colors.
		if sub.Rank() == 0 {
			sub.Send(1, 5, []float64{float64(100 + color)})
		} else if sub.Rank() == 1 {
			if v := sub.Recv(0, 5); v[0] != float64(100+color) {
				t.Errorf("split p2p crosstalk: %v", v)
			}
		}
	})
}

func TestSplitSingleton(t *testing.T) {
	run(t, 3, func(c *Comm) {
		sub := c.Split(c.Rank(), 0) // every rank its own color
		if sub.Size() != 1 || sub.Rank() != 0 {
			t.Errorf("singleton split wrong: size=%d rank=%d", sub.Size(), sub.Rank())
		}
		got := sub.AllReduceSum([]float64{7})
		if got[0] != 7 {
			t.Errorf("singleton AllReduce = %v", got)
		}
	})
}

func TestNestedSplit(t *testing.T) {
	run(t, 8, func(c *Comm) {
		outer := c.Split(c.Rank()/4, c.Rank()) // two groups of 4
		inner := outer.Split(outer.Rank()/2, outer.Rank())
		if inner.Size() != 2 {
			t.Errorf("inner size %d", inner.Size())
		}
		got := inner.AllReduceSum([]float64{1})
		if got[0] != 2 {
			t.Errorf("inner AllReduce = %v", got)
		}
	})
}

func TestComputeAccountsTime(t *testing.T) {
	st := run(t, 2, func(c *Comm) {
		c.Compute(func() {
			s := 0.0
			for i := 0; i < 200000; i++ {
				s += math.Sqrt(float64(i))
			}
			_ = s
		})
	})
	for r, rs := range st.Ranks {
		if rs.ComputeSeconds <= 0 {
			t.Fatalf("rank %d compute seconds %v", r, rs.ComputeSeconds)
		}
	}
	if st.Makespan() <= 0 {
		t.Fatal("makespan must be positive")
	}
}

func TestStatsAggregates(t *testing.T) {
	st := run(t, 3, func(c *Comm) {
		c.Elapse(float64(c.Rank() + 1)) // 1, 2, 3 seconds
	})
	if math.Abs(st.TotalCompute()-6) > 1e-12 {
		t.Fatalf("TotalCompute = %v", st.TotalCompute())
	}
	if math.Abs(st.MaxCompute()-3) > 1e-12 {
		t.Fatalf("MaxCompute = %v", st.MaxCompute())
	}
	if math.Abs(st.Imbalance()-1.5) > 1e-12 {
		t.Fatalf("Imbalance = %v", st.Imbalance())
	}
}

func TestBytesSentAccounting(t *testing.T) {
	st := run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 100))
		} else {
			c.Recv(0, 0)
		}
	})
	if st.Ranks[0].BytesSent != 800 || st.Ranks[0].MessagesSent != 1 {
		t.Fatalf("sender stats %+v", st.Ranks[0])
	}
	if st.Ranks[1].BytesSent != 0 {
		t.Fatalf("receiver sent bytes: %+v", st.Ranks[1])
	}
}

// TestCollectiveAccounting: every member of a collective over n ranks is
// charged ⌈log₂ n⌉ messages and 8·words·⌈log₂ n⌉ bytes; Bcast charges the
// root's payload on every rank; one rank charges nothing.
func TestCollectiveAccounting(t *testing.T) {
	body := func(c *Comm) {
		c.AllReduceSum(make([]float64, 10))
		var data []float64
		if c.Rank() == 0 {
			data = make([]float64, 5)
		}
		c.Bcast(0, data)
		c.Barrier()
	}
	st := run(t, 4, body)
	for r, rs := range st.Ranks {
		// ⌈log₂ 4⌉ = 2 hops each: AllReduceSum 10 words, Bcast 5, Barrier 0.
		if rs.MessagesSent != 3*2 || rs.BytesSent != 8*(10+5+0)*2 {
			t.Fatalf("rank %d: %d messages, %d bytes; want 6 and 240", r, rs.MessagesSent, rs.BytesSent)
		}
	}
	st = run(t, 1, body)
	if rs := st.Ranks[0]; rs.MessagesSent != 0 || rs.BytesSent != 0 {
		t.Fatalf("one-rank collectives charged %+v", rs)
	}
}

func TestMachineCostModel(t *testing.T) {
	m := DefaultMachine()
	if c := m.p2pCost(0); c != m.Latency {
		t.Fatalf("zero-byte message cost %v", c)
	}
	if m.p2pCost(1000) <= m.p2pCost(10) {
		t.Fatal("cost must grow with size")
	}
	if m.collCost(1, 100) != 0 {
		t.Fatal("single-rank collective must be free")
	}
	if m.collCost(8, 100) <= m.collCost(2, 100) {
		t.Fatal("collective cost must grow with P")
	}
}

func TestMatrixSendRecv(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			m := dense.New(2, 3)
			m.Set(1, 2, 5.5)
			m.Set(0, 0, -1)
			c.SendMatrix(1, 3, m)
		} else {
			m := c.RecvMatrix(0, 3)
			if m.Rows != 2 || m.Cols != 3 || m.At(1, 2) != 5.5 || m.At(0, 0) != -1 {
				t.Errorf("matrix transfer corrupted: %v", m)
			}
		}
	})
}

func TestBcastMatrix(t *testing.T) {
	run(t, 3, func(c *Comm) {
		var m *dense.Matrix
		if c.Rank() == 0 {
			m = dense.Eye(3)
		}
		got := c.BcastMatrix(0, m)
		if !got.Equal(dense.Eye(3), 0) {
			t.Errorf("rank %d: BcastMatrix corrupted", c.Rank())
		}
	})
}

func TestQuickAllReduceMatchesSerialSum(t *testing.T) {
	f := func(vals [8]float64) bool {
		want := 0.0
		for _, v := range vals {
			want += v
		}
		ok := true
		run(t, 8, func(c *Comm) {
			got := c.AllReduceSum([]float64{vals[c.Rank()]})
			if math.Abs(got[0]-want) > 1e-9*(1+math.Abs(want)) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWorldSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run with size 0 must panic")
		}
	}()
	Run(0, DefaultMachine(), nil, func(c *Comm) error { return nil })
}

func TestSendOutOfRangePanics(t *testing.T) {
	done := make(chan bool, 1)
	run(t, 1, func(c *Comm) {
		defer func() { done <- recover() != nil }()
		c.Send(5, 0, nil)
	})
	if !<-done {
		t.Fatal("out-of-range Send must panic")
	}
}

func TestMeasureDoesNotChargeClock(t *testing.T) {
	run(t, 2, func(c *Comm) {
		before := c.Clock()
		dt := c.Measure(func() {
			s := 0.0
			for i := 0; i < 100000; i++ {
				s += float64(i)
			}
			_ = s
		})
		if dt <= 0 {
			t.Errorf("Measure returned %v", dt)
		}
		if c.Clock() != before {
			t.Error("Measure must not advance the virtual clock")
		}
		// Elapse of the measured share is the intended usage.
		c.Elapse(dt / 2)
		if c.Clock() <= before {
			t.Error("Elapse after Measure must advance the clock")
		}
	})
}

func TestImbalanceEdgeCases(t *testing.T) {
	empty := Stats{}
	if empty.Imbalance() != 1 {
		t.Fatal("empty stats imbalance must be 1")
	}
	idle := Stats{Ranks: make([]RankStats, 3), FinalClocks: make([]float64, 3)}
	if idle.Imbalance() != 1 {
		t.Fatal("all-idle imbalance must be 1")
	}
}
