package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// spawnAll resets and spawns n plain tasks running fn on a fresh lane and
// returns the lane + group, with tasks backed by the given node slice.
func spawnAll(ex *Executor, nodes []Task, fn func()) (*Lane, *Group) {
	l := ex.AcquireLane()
	g := &Group{}
	g.Init(ex)
	g.Add(len(nodes))
	for i := range nodes {
		nodes[i].Reset(ex, g, fn, nil)
		l.Spawn(&nodes[i])
	}
	return l, g
}

func TestSpawnJoinRunsEveryTask(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		ex := New(workers)
		var ran atomic.Int64
		nodes := make([]Task, 64)
		l, g := spawnAll(ex, nodes, func() { ran.Add(1) })
		g.Wait(l)
		ex.ReleaseLane(l)
		if got := ran.Load(); got != 64 {
			t.Fatalf("workers=%d: ran %d of 64 tasks", workers, got)
		}
		ex.Close()
	}
}

func TestHeavyInjectorRunsOnWaitHeavy(t *testing.T) {
	// Zero workers: heavy tasks can only run through the WaitHeavy helper.
	ex := New(0)
	defer ex.Close()
	var ran atomic.Int64
	g := &Group{}
	g.Init(ex)
	nodes := make([]Task, 8)
	g.Add(len(nodes))
	for i := range nodes {
		nodes[i].Reset(ex, g, func() { ran.Add(1) }, nil)
		ex.Submit(&nodes[i])
	}
	g.WaitHeavy(nil)
	if got := ran.Load(); got != 8 {
		t.Fatalf("ran %d of 8 heavy tasks", got)
	}
}

func TestStealAcrossLanes(t *testing.T) {
	// One lane holds blocked-on tasks; a second goroutine joining an empty
	// group steals nothing, but a worker pool must steal from a foreign
	// lane. Spawn long tasks on lane A, join from a different lane's
	// group-wait, and require completion (which needs stealing when the
	// spawner never helps).
	ex := New(2)
	defer ex.Close()
	var ran atomic.Int64
	nodes := make([]Task, 16)
	l, g := spawnAll(ex, nodes, func() {
		time.Sleep(100 * time.Microsecond)
		ran.Add(1)
	})
	// Join without offering the lane: progress requires workers stealing.
	g.Wait(nil)
	ex.ReleaseLane(l)
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d of 16 tasks", got)
	}
}

func TestSpawnJoinAllocFree(t *testing.T) {
	ex := New(1)
	defer ex.Close()
	nodes := make([]Task, 8)
	l := ex.AcquireLane()
	defer ex.ReleaseLane(l)
	g := &Group{}
	g.Init(ex)
	fn := func() {}
	cycle := func() {
		g.Add(len(nodes))
		for i := range nodes {
			nodes[i].Reset(ex, g, fn, nil)
			l.Spawn(&nodes[i])
		}
		g.Wait(l)
	}
	cycle() // warmup
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("spawn/join cycle allocates %.1f per run, want 0", allocs)
	}
}

func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ex := New(4)
	var ran atomic.Int64
	nodes := make([]Task, 32)
	l, g := spawnAll(ex, nodes, func() { ran.Add(1) })
	g.Wait(l)
	ex.ReleaseLane(l)
	ex.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked after Close: before=%d after=%d", before, after)
	}
	if got := ran.Load(); got != 32 {
		t.Fatalf("ran %d of 32 tasks before Close", got)
	}
}

func TestWorkAfterCloseStillCompletes(t *testing.T) {
	ex := New(2)
	ex.Close()
	var ran atomic.Int64
	nodes := make([]Task, 8)
	l, g := spawnAll(ex, nodes, func() { ran.Add(1) })
	g.Wait(l)
	ex.ReleaseLane(l)
	if got := ran.Load(); got != 8 {
		t.Fatalf("ran %d of 8 tasks on a closed executor", got)
	}
}

func TestLanePoolRecycles(t *testing.T) {
	ex := New(0)
	defer ex.Close()
	l1 := ex.AcquireLane()
	ex.ReleaseLane(l1)
	l2 := ex.AcquireLane()
	ex.ReleaseLane(l2)
	if l1 != l2 {
		t.Fatalf("released lane was not recycled")
	}
	if n := len(*ex.lanes.Load()); n != 1 {
		t.Fatalf("lane registry holds %d lanes, want 1", n)
	}
}

func TestParkingStress(t *testing.T) {
	// Many tiny spawn/join cycles force workers in and out of the parking
	// path; a lost wakeup would hang the join.
	ex := New(3)
	defer ex.Close()
	nodes := make([]Task, 2)
	l := ex.AcquireLane()
	defer ex.ReleaseLane(l)
	g := &Group{}
	g.Init(ex)
	var ran atomic.Int64
	fn := func() { ran.Add(1) }
	for iter := 0; iter < 5000; iter++ {
		g.Add(len(nodes))
		for i := range nodes {
			nodes[i].Reset(ex, g, fn, nil)
			l.Spawn(&nodes[i])
		}
		g.Wait(l)
	}
	if got := ran.Load(); got != 10000 {
		t.Fatalf("ran %d of 10000 tasks", got)
	}
}

func TestSharedWorkersOverride(t *testing.T) {
	defer SetSharedWorkers(0)
	SetSharedWorkers(2)
	e := Shared()
	if e.Workers() != 2 {
		t.Fatalf("Shared() built %d workers, want 2", e.Workers())
	}
	SetSharedWorkers(0)
	e2 := Shared()
	if e2 == e {
		t.Fatalf("SetSharedWorkers did not rebuild the shared executor")
	}
	if want := runtime.GOMAXPROCS(0); e2.Workers() != want {
		t.Fatalf("Shared() built %d workers, want GOMAXPROCS=%d", e2.Workers(), want)
	}
}

func TestLabelSetCaches(t *testing.T) {
	s := NewLabelSet("eval")
	c3 := s.Get(3)
	if c3 == nil {
		t.Fatal("nil label context")
	}
	if again := s.Get(3); again != c3 {
		t.Fatalf("label context not cached")
	}
	if s.Get(1) == nil {
		t.Fatal("prefix not materialized")
	}
	// Steady-state lookups must not allocate.
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Get(2) }); allocs != 0 {
		t.Fatalf("cached label lookup allocates %.1f per run, want 0", allocs)
	}
}

// TestHelpRunsOwnLaneFirst: a help-first join on a zero-worker executor
// drains its own lane newest first (LIFO), and only then steals from other
// lanes.
func TestHelpRunsOwnLaneFirst(t *testing.T) {
	ex := New(0)
	defer ex.Close()
	l, other := ex.AcquireLane(), ex.AcquireLane()
	defer ex.ReleaseLane(l)
	defer ex.ReleaseLane(other)
	g := &Group{}
	g.Init(ex)
	var order []int
	var nodes [3]Task
	g.Add(len(nodes))
	for i := range nodes {
		nodes[i].Reset(ex, g, func() { order = append(order, i) }, nil)
	}
	other.Spawn(&nodes[2])
	l.Spawn(&nodes[0])
	l.Spawn(&nodes[1])
	g.Wait(l)
	if want := []int{1, 0, 2}; len(order) != len(want) || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("join ran %v, want %v (own lane LIFO, then steal)", order, want)
	}
}
