package bta

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
)

func TestPartitionBlocksEven(t *testing.T) {
	parts, err := PartitionBlocks(12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d partitions", len(parts))
	}
	covered := 0
	prevHi := -1
	for _, p := range parts {
		if p.Lo != prevHi+1 {
			t.Fatalf("partitions not contiguous: %+v", parts)
		}
		prevHi = p.Hi
		covered += p.Size()
	}
	if covered != 12 || parts[3].Hi != 11 {
		t.Fatalf("coverage wrong: %+v", parts)
	}
}

func TestPartitionBlocksLoadBalanced(t *testing.T) {
	parts, err := PartitionBlocks(26, 4, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Size() <= parts[1].Size() {
		t.Fatalf("lb=1.6 must enlarge the first partition: %+v", parts)
	}
	total := 0
	for _, p := range parts {
		total += p.Size()
	}
	if total != 26 {
		t.Fatalf("blocks lost: %+v", parts)
	}
}

// TestHybridPartitionFlatBitForBit: the one-stream-per-node layout must
// reproduce the flat splitter exactly — the hybrid code path defers to it.
func TestHybridPartitionFlatBitForBit(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		lb   float64
	}{{26, 4, 1.6}, {12, 4, 1}, {23, 3, 1.7}} {
		flat, err := PartitionBlocks(tc.n, tc.p, tc.lb)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := HybridPartition(tc.n, UniformStreams(tc.p, 1), tc.lb)
		if err != nil {
			t.Fatal(err)
		}
		for i := range flat {
			if flat[i] != hyb[i] {
				t.Fatalf("%+v: partition %d: flat %+v hybrid %+v", tc, i, flat[i], hyb[i])
			}
		}
	}
}

// TestHybridPartitionLoadBalance: lb must be honored inside the node gangs
// (the global-first partition enlarged) and per-node block shares must
// follow the stream counts even when they are unequal — the node with more
// streams owns proportionally more blocks, keeping per-stream (and hence
// per-node-makespan) sizes near-equal.
func TestHybridPartitionLoadBalance(t *testing.T) {
	// Two nodes, 3 + 1 streams, lb = 1.6 over 50 blocks.
	counts := []int{3, 1}
	parts, err := HybridPartition(50, counts, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d partitions", len(parts))
	}
	prevHi := -1
	total := 0
	for _, p := range parts {
		if p.Lo != prevHi+1 {
			t.Fatalf("not contiguous: %+v", parts)
		}
		prevHi = p.Hi
		total += p.Size()
	}
	if total != 50 || parts[3].Hi != 49 {
		t.Fatalf("coverage wrong: %+v", parts)
	}
	// lb honored inside node 0's gang: the one-sided first partition is
	// strictly larger than its two-sided node-mates.
	if parts[0].Size() <= parts[1].Size() {
		t.Fatalf("lb must enlarge the global-first partition: %+v", parts)
	}
	// Per-node makespan ≈ the largest per-stream cost: every two-sided
	// partition must be within one block of the others (shares follow the
	// stream counts, not an even node split).
	twoSided := []int{parts[1].Size(), parts[2].Size(), parts[3].Size()}
	for _, s := range twoSided[1:] {
		if d := s - twoSided[0]; d > 1 || d < -1 {
			t.Fatalf("two-sided streams unbalanced: %+v", parts)
		}
	}
	// The naive even node split would give node 1 half the blocks; the
	// stream-weighted split must not.
	node1 := parts[3].Size()
	if node1 > 50/2 {
		t.Fatalf("node 1 (1 stream) owns %d of 50 blocks — even node split, not stream-weighted", node1)
	}
}

// TestSpreadStreams covers the unequal fallback layout.
func TestSpreadStreams(t *testing.T) {
	got := SpreadStreams(3, 7)
	if got[0] != 3 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("SpreadStreams(3,7) = %v", got)
	}
	got = SpreadStreams(2, 1)
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("SpreadStreams(2,1) = %v (each rank needs a stream)", got)
	}
}

func TestPartitionBlocksErrors(t *testing.T) {
	if _, err := PartitionBlocks(10, 0, 1); err == nil {
		t.Fatal("p=0 must error")
	}
	if _, err := PartitionBlocks(3, 4, 1); err == nil {
		t.Fatal("too few blocks must error")
	}
	if _, err := PartitionBlocks(10, 3, 0.5); err == nil {
		t.Fatal("lb<1 must error")
	}
}

func TestPartitionSingle(t *testing.T) {
	parts, err := PartitionBlocks(7, 1, 1)
	if err != nil || len(parts) != 1 || parts[0].Lo != 0 || parts[0].Hi != 6 {
		t.Fatalf("single partition wrong: %+v, %v", parts, err)
	}
}

func TestBoundariesAndInteriors(t *testing.T) {
	parts, _ := PartitionBlocks(10, 3, 1)
	// First partition: boundary = last block, interiors = rest.
	b0 := boundaries(parts[0], 0, 3)
	if len(b0) != 1 || b0[0] != parts[0].Hi {
		t.Fatalf("p0 boundaries %v", b0)
	}
	i0 := interiors(parts[0], 0, 3)
	if len(i0) != parts[0].Size()-1 || i0[0] != parts[0].Lo {
		t.Fatalf("p0 interiors %v", i0)
	}
	// Middle partition: two boundaries.
	b1 := boundaries(parts[1], 1, 3)
	if len(b1) != 2 || b1[0] != parts[1].Lo || b1[1] != parts[1].Hi {
		t.Fatalf("p1 boundaries %v", b1)
	}
	// Last partition: top boundary.
	b2 := boundaries(parts[2], 2, 3)
	if len(b2) != 1 || b2[0] != parts[2].Lo {
		t.Fatalf("p2 boundaries %v", b2)
	}
	i2 := interiors(parts[2], 2, 3)
	if len(i2) != parts[2].Size()-1 || i2[len(i2)-1] != parts[2].Hi {
		t.Fatalf("p2 interiors %v", i2)
	}
}

// runDistributed factorizes, solves, and selected-inverts a BTA matrix over
// p simulated ranks, returning the results gathered on caller side.
type distResult struct {
	logDet  float64
	x       []float64
	sigDiag []float64
	sigLows []*dense.Matrix // Σ(k+1,k) for k = 0..n−2 in global order
	sigTip  *dense.Matrix
	err     error
}

func runDistributed(t *testing.T, g *Matrix, p int, lb float64, rhs []float64) distResult {
	t.Helper()
	parts, err := PartitionBlocks(g.N, p, lb)
	if err != nil {
		t.Fatal(err)
	}
	n, b, a := g.N, g.B, g.A
	res := distResult{
		x:       make([]float64, n*b+a),
		sigDiag: make([]float64, n*b+a),
		sigLows: make([]*dense.Matrix, n-1),
	}
	var mu chanMutex = make(chan struct{}, 1)
	if err := runWorld(p, func(c *comm.Comm) {
		f, err := distFactorize(c, g, parts, UniformStreams(p, 1))
		if err != nil {
			mu.Lock()
			res.err = err
			mu.Unlock()
			return
		}
		part := parts[c.Rank()]
		rhsLocal := append([]float64(nil), rhs[part.Lo*b:(part.Hi+1)*b]...)
		var rhsTip []float64
		if a > 0 {
			rhsTip = rhs[n*b:]
		}
		xLocal, xTip, err := PPOBTAS(c, f, rhsLocal, rhsTip)
		if err != nil {
			mu.Lock()
			res.err = err
			mu.Unlock()
			return
		}
		sig, err := PPOBTASI(c, f)
		if err != nil {
			mu.Lock()
			res.err = err
			mu.Unlock()
			return
		}
		mu.Lock()
		res.logDet = f.LogDet()
		copy(res.x[part.Lo*b:], xLocal)
		if a > 0 && xTip != nil {
			copy(res.x[n*b:], xTip)
		}
		d := sig.DiagVec()
		copy(res.sigDiag[part.Lo*b:], d)
		if a > 0 && sig.Tip != nil {
			res.sigTip = sig.Tip
			for k := 0; k < a; k++ {
				res.sigDiag[n*b+k] = sig.Tip.At(k, k)
			}
		}
		for i, l := range sig.Lower {
			res.sigLows[part.Lo+i] = l
		}
		if sig.TopCoupling != nil {
			res.sigLows[part.Lo-1] = sig.TopCoupling
		}
		mu.Unlock()
	}); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

// runWorld runs a fault-free SPMD body over p simulated ranks; a rank's
// escaped panic or comm fault comes back as the error.
func runWorld(p int, body func(c *comm.Comm)) error {
	_, err := comm.Run(p, comm.DefaultMachine(), nil, func(c *comm.Comm) error {
		body(c)
		return nil
	})
	return err
}

// distFactorize builds the calling rank's slice of g and its factor over
// the (parts, streams) topology and runs PPOBTAF.
func distFactorize(c *comm.Comm, g *Matrix, parts []Partition, streams []int) (*DistFactor, error) {
	local, err := LocalSlice(g, parts, streams, c.Rank())
	if err != nil {
		return nil, err
	}
	f, err := NewDistFactor(local)
	if err != nil {
		return nil, err
	}
	return f, PPOBTAF(c, f, local)
}

type chanMutex chan struct{}

func (m chanMutex) Lock()   { m <- struct{}{} }
func (m chanMutex) Unlock() { <-m }

func checkDistributedMatchesSequential(t *testing.T, g *Matrix, p int, lb float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	rhs := randVec(rng, g.Dim())

	res := runDistributed(t, g, p, lb, rhs)
	if res.err != nil {
		t.Fatalf("P=%d: %v", p, res.err)
	}

	f, err := Factorize(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.logDet-f.LogDet()) > 1e-7*(1+math.Abs(f.LogDet())) {
		t.Fatalf("P=%d: logdet %v want %v", p, res.logDet, f.LogDet())
	}
	want := append([]float64(nil), rhs...)
	f.Solve(want)
	for i := range want {
		if math.Abs(res.x[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
			t.Fatalf("P=%d: solve[%d] = %v want %v", p, i, res.x[i], want[i])
		}
	}
	sig, err := f.SelectedInversion()
	if err != nil {
		t.Fatal(err)
	}
	wantDiag := sig.DiagVec()
	for i := range wantDiag {
		if math.Abs(res.sigDiag[i]-wantDiag[i]) > 1e-7*(1+math.Abs(wantDiag[i])) {
			t.Fatalf("P=%d: selinv diag[%d] = %v want %v", p, i, res.sigDiag[i], wantDiag[i])
		}
	}
	for k := 0; k < g.N-1; k++ {
		if res.sigLows[k] == nil {
			t.Fatalf("P=%d: missing Σ lower block %d", p, k)
		}
		if !res.sigLows[k].Equal(sig.Lower[k], 1e-7) {
			t.Fatalf("P=%d: Σ lower block %d mismatch", p, k)
		}
	}
	if g.A > 0 && !res.sigTip.Equal(sig.Tip, 1e-7) {
		t.Fatalf("P=%d: Σ tip mismatch", p)
	}
}

func TestDistributedMatchesSequentialP1(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	checkDistributedMatchesSequential(t, randBTA(rng, 6, 3, 2), 1, 1)
}

func TestDistributedMatchesSequentialP2(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	checkDistributedMatchesSequential(t, randBTA(rng, 7, 3, 2), 2, 1)
}

func TestDistributedMatchesSequentialP3(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	checkDistributedMatchesSequential(t, randBTA(rng, 9, 2, 2), 3, 1)
}

func TestDistributedMatchesSequentialP4(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	checkDistributedMatchesSequential(t, randBTA(rng, 12, 3, 2), 4, 1)
}

func TestDistributedMatchesSequentialNoArrow(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	checkDistributedMatchesSequential(t, randBTA(rng, 10, 3, 0), 3, 1)
}

func TestDistributedLoadBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	checkDistributedMatchesSequential(t, randBTA(rng, 14, 2, 1), 4, 1.6)
}

func TestDistributedMinimalMiddlePartitions(t *testing.T) {
	// Middle partitions of exactly 2 blocks (no interiors).
	rng := rand.New(rand.NewSource(107))
	g := randBTA(rng, 6, 2, 1)
	// Partitions: [0,0][1,2][3,4][5,5] — middle partitions have no interiors.
	parts := []Partition{{0, 0}, {1, 2}, {3, 4}, {5, 5}}
	rhs := randVec(rng, g.Dim())

	f, err := Factorize(g)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), rhs...)
	f.Solve(want)
	wantLd := f.LogDet()
	sigRef, _ := f.SelectedInversion()

	var firstErr error
	got := make([]float64, g.Dim())
	sigDiag := make([]float64, g.Dim())
	var mu chanMutex = make(chan struct{}, 1)
	if err := runWorld(4, func(c *comm.Comm) {
		df, err := distFactorize(c, g, parts, UniformStreams(4, 1))
		if err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
			return
		}
		part := parts[c.Rank()]
		rl := append([]float64(nil), rhs[part.Lo*g.B:(part.Hi+1)*g.B]...)
		x, xt, err := PPOBTAS(c, df, rl, rhs[g.N*g.B:])
		if err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
			return
		}
		sig, err := PPOBTASI(c, df)
		if err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
			return
		}
		mu.Lock()
		if math.Abs(df.LogDet()-wantLd) > 1e-7 {
			firstErr = errLogDet
		}
		copy(got[part.Lo*g.B:], x)
		if xt != nil {
			copy(got[g.N*g.B:], xt)
		}
		copy(sigDiag[part.Lo*g.B:], sig.DiagVec())
		if sig.Tip != nil {
			for k := 0; k < g.A; k++ {
				sigDiag[g.N*g.B+k] = sig.Tip.At(k, k)
			}
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Fatalf("solve[%d] = %v want %v", i, got[i], want[i])
		}
	}
	wantDiag := sigRef.DiagVec()
	for i := range wantDiag {
		if math.Abs(sigDiag[i]-wantDiag[i]) > 1e-7 {
			t.Fatalf("selinv diag[%d] = %v want %v", i, sigDiag[i], wantDiag[i])
		}
	}
}

var errLogDet = errFor("distributed logdet mismatch")

type errFor string

func (e errFor) Error() string { return string(e) }

func TestDistributedRejectsBadRhs(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	g := randBTA(rng, 6, 2, 1)
	parts, _ := PartitionBlocks(6, 2, 1)
	var gotErr error
	var mu chanMutex = make(chan struct{}, 1)
	if err := runWorld(2, func(c *comm.Comm) {
		f, err := distFactorize(c, g, parts, UniformStreams(2, 1))
		if err != nil {
			return
		}
		_, _, err = PPOBTAS(c, f, []float64{1, 2, 3}, nil) // wrong length
		mu.Lock()
		if err != nil {
			gotErr = err
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("bad rhs length must error")
	}
}

func TestDistributedIndefiniteFails(t *testing.T) {
	g := NewMatrix(6, 2, 0)
	for i := 0; i < 6; i++ {
		g.Diag[i].AddDiag(1)
	}
	g.Diag[2].Set(0, 0, -5) // indefinite interior block
	parts, _ := PartitionBlocks(6, 2, 1)
	sawError := false
	var mu chanMutex = make(chan struct{}, 1)
	if err := runWorld(2, func(c *comm.Comm) {
		_, err := distFactorize(c, g, parts, UniformStreams(2, 1))
		mu.Lock()
		if err != nil {
			sawError = true
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if !sawError {
		t.Fatal("indefinite matrix must fail distributed factorization")
	}
}

func BenchmarkSeqFactorize(b *testing.B) {
	rng := rand.New(rand.NewSource(200))
	m := randBTA(rng, 32, 32, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factorize(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeqSelInv(b *testing.B) {
	rng := rand.New(rand.NewSource(201))
	m := randBTA(rng, 32, 32, 4)
	f, err := Factorize(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.SelectedInversion(); err != nil {
			b.Fatal(err)
		}
	}
}
