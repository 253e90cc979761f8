package bta

import (
	"fmt"
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

// distResult gathers one distributed run's outputs on the caller side.
type distResult struct {
	logDet  float64
	x       []float64
	sigDiag []float64
	sigLows []*dense.Matrix // Σ(k+1,k) for k = 0..n−2 in global order
	sigTip  *dense.Matrix
	sig     *Matrix // every Σ block on the pattern, gathered from the ranks
	err     error
}

// distRank is one rank's persistent slice and factor, reusable across
// runDistributed cycles.
type distRank struct {
	local *LocalBTA
	f     *DistFactor
}

// runDistributed factorizes, solves, and selected-inverts g over p
// simulated ranks, one partition each (PartitionBlocks at lb). ranks, when
// non-nil, carries every rank's slice and factor across calls (built on
// first use) instead of fresh ones.
func runDistributed(t *testing.T, g *Matrix, p int, lb float64, rhs []float64, ranks []distRank) distResult {
	t.Helper()
	parts, err := PartitionBlocks(g.N, p, lb)
	if err != nil {
		t.Fatal(err)
	}
	return runParts(g, parts, rhs, ranks)
}

// runParts is runDistributed over the partition list parts, one rank each.
func runParts(g *Matrix, parts []Partition, rhs []float64, ranks []distRank) distResult {
	p := len(parts)
	if ranks == nil {
		ranks = make([]distRank, p)
	}
	n, b, a := g.N, g.B, g.A
	res := distResult{
		x:       make([]float64, n*b+a),
		sigDiag: make([]float64, n*b+a),
		sigLows: make([]*dense.Matrix, n-1),
		sig:     NewMatrix(n, b, a),
	}
	var mu chanMutex = make(chan struct{}, 1)
	fail := func(err error) {
		mu.Lock()
		res.err = err
		mu.Unlock()
	}
	if err := runWorld(p, func(c *comm.Comm) {
		dr := &ranks[c.Rank()]
		if dr.f == nil {
			var err error
			if dr.local, err = NewLocalBTA(parts, c.Rank(), n, b, a); err != nil {
				fail(err)
				return
			}
			if dr.f, err = NewDistFactor(dr.local); err != nil {
				fail(err)
				return
			}
		}
		local, f := dr.local, dr.f
		local.FillFrom(g)
		if err := PPOBTAF(c, f, local); err != nil {
			fail(err)
			return
		}
		part := local.Part
		rhsLocal := append([]float64(nil), rhs[part.Lo*b:(part.Hi+1)*b]...)
		var rhsTip []float64
		if a > 0 {
			rhsTip = rhs[n*b:]
		}
		xLocal, xTip, err := PPOBTAS(c, f, rhsLocal, rhsTip)
		if err != nil {
			fail(err)
			return
		}
		sig, err := PPOBTASI(c, f)
		if err != nil {
			fail(err)
			return
		}
		mu.Lock()
		res.logDet = f.LogDet()
		copy(res.x[part.Lo*b:], xLocal)
		if a > 0 && xTip != nil {
			copy(res.x[n*b:], xTip)
		}
		copy(res.sigDiag[part.Lo*b:], sig.DiagVec())
		if a > 0 && sig.Tip != nil {
			res.sigTip = sig.Tip.Clone()
			for k := 0; k < a; k++ {
				res.sigDiag[n*b+k] = sig.Tip.At(k, k)
			}
		}
		for i, l := range sig.Lower {
			res.sigLows[part.Lo+i] = l.Clone()
		}
		if sig.TopCoupling != nil {
			res.sigLows[part.Lo-1] = sig.TopCoupling.Clone()
		}
		gatherSlice(res.sig, sig)
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

// gatherSlice copies the blocks of a rank's Σ slice l into their global
// positions of g.
func gatherSlice(g *Matrix, l *LocalBTA) {
	lo := l.Part.Lo
	for i := range l.Diag {
		g.Diag[lo+i].CopyFrom(l.Diag[i])
		if g.A > 0 {
			g.Arrow[lo+i].CopyFrom(l.Arrow[i])
		}
	}
	for i := range l.Lower {
		g.Lower[lo+i].CopyFrom(l.Lower[i])
	}
	if lo > 0 {
		g.Lower[lo-1].CopyFrom(l.TopCoupling)
	}
	if g.A > 0 && lo == 0 {
		g.Tip.CopyFrom(l.Tip)
	}
}

// distFactorize builds the calling rank's slice of g and its factor over
// the partition list parts and runs PPOBTAF.
func distFactorize(c *comm.Comm, g *Matrix, parts []Partition) (*DistFactor, error) {
	local, err := LocalSlice(g, parts, c.Rank())
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

	res := runDistributed(t, g, p, lb, rhs, nil)
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
		df, err := distFactorize(c, g, parts)
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
		f, err := distFactorize(c, g, parts)
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
		_, err := distFactorize(c, g, parts)
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

// TestHybridEquivalenceGrid is the backend acceptance grid: distributed vs
// sequential selected-inversion diagonals, couplings and solves agree to
// 1e-10 across world sizes {1,2,3,4,6,8,12} × arrowhead {0,1,4} at an odd
// time dimension.
func TestHybridEquivalenceGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const nt = 23 // odd, and ≥ 2·12−2 so every grid point partitions
	for _, a := range []int{0, 1, 4} {
		g := randBTA(rng, nt, 2, a)
		rhs := randVec(rng, g.Dim())

		seq, err := Factorize(g)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), rhs...)
		seq.Solve(want)
		wantLd := seq.LogDet()
		wantSig, err := seq.SelectedInversion()
		if err != nil {
			t.Fatal(err)
		}
		wantDiag := wantSig.DiagVec()

		for _, world := range []int{1, 2, 3, 4, 6, 8, 12} {
			label := fmt.Sprintf("a=%d world=%d", a, world)
			res := runDistributed(t, g, world, 1, rhs, nil)
			if res.err != nil {
				t.Fatalf("%s: %v", label, res.err)
			}
			if d := math.Abs(res.logDet - wantLd); d > equivTol*(1+math.Abs(wantLd)) {
				t.Fatalf("%s: logdet %v want %v", label, res.logDet, wantLd)
			}
			for i := range want {
				if math.Abs(res.x[i]-want[i]) > equivTol {
					t.Fatalf("%s: solve[%d] = %v want %v", label, i, res.x[i], want[i])
				}
			}
			for i := range wantDiag {
				if math.Abs(res.sigDiag[i]-wantDiag[i]) > equivTol*(1+math.Abs(wantDiag[i])) {
					t.Fatalf("%s: selinv diag[%d] = %v want %v", label, i, res.sigDiag[i], wantDiag[i])
				}
			}
			for k := 0; k < g.N-1; k++ {
				if res.sigLows[k] == nil {
					t.Fatalf("%s: missing Σ lower block %d", label, k)
				}
				if !res.sigLows[k].Equal(wantSig.Lower[k], equivTol) {
					t.Fatalf("%s: Σ lower block %d mismatch", label, k)
				}
			}
			if a > 0 && !res.sigTip.Equal(wantSig.Tip, equivTol) {
				t.Fatalf("%s: Σ tip mismatch", label)
			}
		}
	}
}

// TestHybridScratchReuseStable: repeated refill/factorize/solve/selinv
// cycles on the same persistent factors of four ranks must reproduce the
// first cycle's results exactly — the fill chains, accumulators, solve
// buffers and Σ storage carry no state between iterations.
func TestHybridScratchReuseStable(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := randBTA(rng, 11, 3, 2)
	rhs := randVec(rng, g.Dim())
	ranks := make([]distRank, 4)

	var first distResult
	for cycle := 0; cycle < 4; cycle++ {
		res := runDistributed(t, g, 4, 1, rhs, ranks)
		if res.err != nil {
			t.Fatalf("cycle %d: %v", cycle, res.err)
		}
		if cycle == 0 {
			first = res
			continue
		}
		if res.logDet != first.logDet {
			t.Fatalf("cycle %d: logdet drifted", cycle)
		}
		for i := range first.x {
			if res.x[i] != first.x[i] {
				t.Fatalf("cycle %d: solve[%d] drifted", cycle, i)
			}
		}
		for i := range first.sigDiag {
			if res.sigDiag[i] != first.sigDiag[i] {
				t.Fatalf("cycle %d: selinv diag[%d] drifted", cycle, i)
			}
		}
	}
}

// distCycleAllocs measures the steady-state allocations of one full
// distributed cycle on persistent factors (refill + PPOBTAF + PPOBTAS +
// PPOBTASI) over 2 ranks.
func distCycleAllocs(t *testing.T, nt int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(74 + nt)))
	g := randBTA(rng, nt, 3, 2)
	parts, err := PartitionBlocks(nt, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := randVec(rng, g.Dim())
	locals := make([]*LocalBTA, 2)
	facs := make([]*DistFactor, 2)
	rhsLocals := make([][]float64, 2)
	for r, p := range parts {
		if locals[r], err = NewLocalBTA(parts, r, g.N, g.B, g.A); err != nil {
			t.Fatal(err)
		}
		if facs[r], err = NewDistFactor(locals[r]); err != nil {
			t.Fatal(err)
		}
		rhsLocals[r] = append([]float64(nil), rhs[p.Lo*g.B:(p.Hi+1)*g.B]...)
	}
	cycle := func() {
		if err := runWorld(2, func(c *comm.Comm) {
			r := c.Rank()
			locals[r].FillFrom(g)
			if err := PPOBTAF(c, facs[r], locals[r]); err != nil {
				panic(err)
			}
			rl := rhsLocals[r]
			copy(rl, rhs[parts[r].Lo*g.B:(parts[r].Hi+1)*g.B])
			var rhsTip []float64
			if g.A > 0 {
				rhsTip = rhs[g.N*g.B:]
			}
			if _, _, err := PPOBTAS(c, facs[r], rl, rhsTip); err != nil {
				panic(err)
			}
			if _, err := PPOBTASI(c, facs[r]); err != nil {
				panic(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the lazily sized storage (message staging, Σ output).
	cycle()
	cycle()
	return testing.AllocsPerRun(5, cycle)
}

// TestDistPerStepAllocFree pins the distributed path's allocation
// behaviour: the remaining allocations per cycle belong to the message
// layer and the simulator (O(ranks) per cycle), so the count must not grow
// with the number of interior blocks.
func TestDistPerStepAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode alloc counts are meaningless")
	}
	small := distCycleAllocs(t, 10)
	large := distCycleAllocs(t, 34)
	if large > small+6 {
		t.Fatalf("allocations grow with nt: %.1f at nt=10 vs %.1f at nt=34", small, large)
	}
}

// seqBenchShapes are the (n, b, a) shapes of the sequential benchmarks: the
// generic (32, 32, 4) and the BTA shapes of the Gaussian benchmark
// workloads, fit_uni_gauss (4, 144, 2), fit_tri_gauss (8, 60, 3) and
// serve_predict (4, 90, 3). SeqSelInv over SeqFactorize at one shape is
// the selinv / factorize ratio:
//
//	go test ./internal/bta -run '^$' -bench 'Seq(Factorize|SelInv)' -cpu 1
var seqBenchShapes = [][3]int{{32, 32, 4}, {4, 144, 2}, {8, 60, 3}, {4, 90, 3}}

func seqBenchName(sh [3]int) string {
	return fmt.Sprintf("n=%d/b=%d/a=%d", sh[0], sh[1], sh[2])
}

// BenchmarkSeqFactorize times Refactorize, the factorization the evaluators
// run per θ.
func BenchmarkSeqFactorize(b *testing.B) {
	for _, sh := range seqBenchShapes {
		b.Run(seqBenchName(sh), func(b *testing.B) {
			m := randBTA(rand.New(rand.NewSource(200)), sh[0], sh[1], sh[2])
			f := NewFactor(sh[0], sh[1], sh[2])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Refactorize(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeqSelInv times SelectedInversionInto, the selected inversion a
// gradient request and the latent posterior run.
func BenchmarkSeqSelInv(b *testing.B) {
	for _, sh := range seqBenchShapes {
		b.Run(seqBenchName(sh), func(b *testing.B) {
			f, err := Factorize(randBTA(rand.New(rand.NewSource(201)), sh[0], sh[1], sh[2]))
			if err != nil {
				b.Fatal(err)
			}
			sig := NewMatrix(sh[0], sh[1], sh[2])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.SelectedInversionInto(sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
