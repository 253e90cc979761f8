package dense

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// stepCase is the operand set of one elimination step of a BTA partition:
// the diagonal block, the couplings to the next block, to the partition's
// top boundary (two-sided partitions) and to the arrowhead, and the blocks
// their Schur complement lands on.
type stepCase struct {
	a *Matrix
	g [3]*Matrix
	s [3][3]*Matrix
}

// newStepCase builds a step at block size b and arrow size a: the diagonal
// block SPD with sentinels in its strict upper triangle, every coupling and
// target random, and the fill target −gTop·gNextᵀ zero, as the partitioned
// driver hands it over.
func newStepCase(rng *rand.Rand, b, a int, twoSided, next bool) *stepCase {
	sc := &stepCase{a: randSPD(rng, b)}
	fillUpper(sc.a, sentinelAt)
	lowerTarget := func(n int) *Matrix {
		m := randMat(rng, n, n)
		fillUpper(m, sentinelAt)
		return m
	}
	if next {
		sc.g[0] = randMat(rng, b, b)
		sc.s[0][0] = lowerTarget(b)
	}
	if twoSided {
		sc.g[1] = randMat(rng, b, b)
		sc.s[1][1] = lowerTarget(b)
		if next {
			sc.s[1][0] = New(b, b)
		}
	}
	if a > 0 {
		sc.g[2] = randMat(rng, a, b)
		sc.s[2][2] = lowerTarget(a)
		if next {
			sc.s[2][0] = randMat(rng, a, b)
		}
		if twoSided {
			sc.s[2][1] = randMat(rng, a, b)
		}
	}
	return sc
}

func (sc *stepCase) clone() *stepCase {
	c := &stepCase{a: sc.a.Clone()}
	for i := range sc.g {
		if sc.g[i] != nil {
			c.g[i] = sc.g[i].Clone()
		}
		for j := range sc.s[i] {
			if sc.s[i][j] != nil {
				c.s[i][j] = sc.s[i][j].Clone()
			}
		}
	}
	return c
}

// unfused is the step as separate dense calls: Potrf, one Trsm per
// coupling, one Syrk or Gemm per target.
func (sc *stepCase) unfused() error {
	if err := Potrf(sc.a); err != nil {
		return err
	}
	for _, g := range sc.g {
		if g != nil {
			Trsm(Right, Trans, sc.a, g)
		}
	}
	for i := range sc.g {
		for j := 0; j <= i; j++ {
			switch c := sc.s[i][j]; {
			case c == nil:
			case i == j:
				Syrk(NoTrans, -1, sc.g[i], 1, c)
			default:
				Gemm(NoTrans, Trans, -1, sc.g[i], sc.g[j], 1, c)
			}
		}
	}
	return nil
}

// sameAs reports the first block of sc that is not bitwise the one of want.
func (sc *stepCase) sameAs(want *stepCase) string {
	if !sameBits(sc.a.Data, want.a.Data) {
		return "L"
	}
	for i := range sc.g {
		if sc.g[i] != nil && !sameBits(sc.g[i].Data, want.g[i].Data) {
			return fmt.Sprintf("g[%d]", i)
		}
		for j := range sc.s[i] {
			if sc.s[i][j] != nil && !sameBits(sc.s[i][j].Data, want.s[i][j].Data) {
				return fmt.Sprintf("s[%d][%d]", i, j)
			}
		}
	}
	return ""
}

// TestEliminateMatchesUnfused: the fused step leaves every block bitwise
// where the unfused calls leave it — over the block sizes the solvers run
// at and one past a single packed sweep, arrowheads of 0…6 rows (a 1-row
// arrow solves unpacked), one- and two-sided partitions with and without a
// next block, at kernel widths 1 and 4.
func TestEliminateMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, b := range []int{16, 60, 144, 192, 288} {
		for _, a := range []int{0, 1, 2, 3, 6} {
			for _, twoSided := range []bool{false, true} {
				for _, next := range []bool{true, false} {
					sc := newStepCase(rng, b, a, twoSided, next)
					for _, w := range []int{1, 4} {
						name := fmt.Sprintf("b=%d a=%d twoSided=%v next=%v width=%d", b, a, twoSided, next, w)
						prev := SetMaxWorkers(w)
						want, got := sc.clone(), sc.clone()
						if err := want.unfused(); err != nil {
							t.Fatalf("%s: unfused: %v", name, err)
						}
						if err := Eliminate(got.a, got.g, got.s); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						SetMaxWorkers(prev)
						if blk := got.sameAs(want); blk != "" {
							t.Fatalf("%s: %s differs from the unfused calls", name, blk)
						}
					}
				}
			}
		}
	}
}

// TestEliminateNotPD: an indefinite diagonal block is
// ErrNotPositiveDefinite, and the couplings and targets are left as they
// were.
func TestEliminateNotPD(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, b := range []int{60, 288} {
		sc := newStepCase(rng, b, 2, true, true)
		sc.a.Set(b/2, b/2, -1)
		got := sc.clone()
		if err := Eliminate(got.a, got.g, got.s); err != ErrNotPositiveDefinite {
			t.Fatalf("b=%d: got %v, want ErrNotPositiveDefinite", b, err)
		}
		got.a = sc.a
		if blk := got.sameAs(sc); blk != "" {
			t.Fatalf("b=%d: %s was written", b, blk)
		}
	}
}

// TestEliminateConcurrent: steps fanned out at kernel width 4 from several
// goroutines at once share the chunk channel and the pools; each result is
// bitwise its serial one.
func TestEliminateConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const steps = 6
	var cases, want [steps]*stepCase
	for i := range cases {
		cases[i] = newStepCase(rng, 144, 2, i%2 == 1, true)
		want[i] = cases[i].clone()
		prev := SetMaxWorkers(1)
		err := want[i].unfused()
		SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
	}
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	var wg sync.WaitGroup
	errs := make([]string, steps)
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got := cases[i].clone()
				if err := Eliminate(got.a, got.g, got.s); err != nil {
					errs[i] = err.Error()
					return
				}
				if blk := got.sameAs(want[i]); blk != "" {
					errs[i] = blk + " differs from the serial step"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("step %d: %s", i, e)
		}
	}
}
