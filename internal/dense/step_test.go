package dense

import (
	"errors"
	"fmt"
	"math"
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
// next block.
func TestEliminateMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, b := range []int{16, 60, 144, 192, 288} {
		for _, a := range []int{0, 1, 2, 3, 6} {
			for _, twoSided := range []bool{false, true} {
				for _, next := range []bool{true, false} {
					name := fmt.Sprintf("b=%d a=%d twoSided=%v next=%v", b, a, twoSided, next)
					want := newStepCase(rng, b, a, twoSided, next)
					got := want.clone()
					if err := want.unfused(); err != nil {
						t.Fatalf("%s: unfused: %v", name, err)
					}
					if err := Eliminate(got.a, got.g, got.s); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if blk := got.sameAs(want); blk != "" {
						t.Fatalf("%s: %s differs from the unfused calls", name, blk)
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

// TestEliminateConcurrent: steps run from several goroutines at once share
// the packing pools; each result is bitwise its serial one.
func TestEliminateConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const steps = 6
	var cases, want [steps]*stepCase
	for i := range cases {
		cases[i] = newStepCase(rng, 144, 2, i%2 == 1, true)
		want[i] = cases[i].clone()
		if err := want[i].unfused(); err != nil {
			t.Fatal(err)
		}
	}
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

// invertCase is the operand set of one selected-inversion step: the
// diagonal block's factor L (sentinels above its diagonal), the couplings
// L_{i,k} to the next block, the top boundary and the arrowhead, the
// selected inverse over those neighbours (symmetric diagonal blocks), and
// the outputs Σ_{i,k} and Σ_kk, which start as garbage.
type invertCase struct {
	l   *Matrix
	g   [3]*Matrix
	s   [3][3]*Matrix
	out [3]*Matrix
	d   *Matrix
}

func newInvertCase(rng *rand.Rand, b, a int, twoSided, next bool) *invertCase {
	ic := &invertCase{d: randMat(rng, b, b)}
	ic.l, _ = Chol(randSPD(rng, b))
	fillUpper(ic.l, sentinelAt)
	rows := [3]int{b, b, a}
	present := [3]bool{next, twoSided, a > 0}
	for i := range ic.g {
		if !present[i] {
			continue
		}
		ic.g[i] = randMat(rng, rows[i], b)
		ic.out[i] = randMat(rng, rows[i], b)
		for j := 0; j <= i; j++ {
			if present[j] {
				ic.s[i][j] = randMat(rng, rows[i], rows[j])
			}
		}
		ic.s[i][i].Symmetrize()
	}
	return ic
}

func (ic *invertCase) clone() *invertCase {
	c := &invertCase{l: ic.l.Clone(), d: ic.d.Clone()}
	for i := range ic.g {
		if ic.g[i] != nil {
			c.g[i], c.out[i] = ic.g[i].Clone(), ic.out[i].Clone()
		}
		for j := range ic.s[i] {
			if ic.s[i][j] != nil {
				c.s[i][j] = ic.s[i][j].Clone()
			}
		}
	}
	return c
}

// unfused is the selected-inversion step as the BTA sweep ran it before
// Invert: (L·Lᵀ)⁻¹ by PotriInto, which leaves L⁻¹ in its workspace; each
// G_i by a Gemm against L⁻¹; every Σ block by Gemm calls; Σ_kk's two
// triangles averaged.
func (ic *invertCase) unfused() error {
	n := ic.l.Rows
	linv := New(n, n)
	if err := PotriInto(ic.d, linv, ic.l); err != nil {
		return err
	}
	var gs [3]*Matrix
	for i, gi := range ic.g {
		if gi != nil {
			gs[i] = New(gi.Rows, n)
			Gemm(NoTrans, NoTrans, 1, gi, linv, 0, gs[i])
		}
	}
	gN, gT, gA := gs[0], gs[1], gs[2]
	s, out := ic.s, ic.out
	if gN != nil {
		Gemm(NoTrans, NoTrans, -1, s[0][0], gN, 0, out[0])
		if gT != nil {
			Gemm(Trans, NoTrans, -1, s[1][0], gT, 1, out[0])
		}
		if gA != nil {
			Gemm(Trans, NoTrans, -1, s[2][0], gA, 1, out[0])
		}
	}
	if gT != nil {
		Gemm(NoTrans, NoTrans, -1, s[1][1], gT, 0, out[1])
		if gN != nil {
			Gemm(NoTrans, NoTrans, -1, s[1][0], gN, 1, out[1])
		}
		if gA != nil {
			Gemm(Trans, NoTrans, -1, s[2][1], gA, 1, out[1])
		}
	}
	if gA != nil {
		beta := 0.0
		if gN != nil {
			Gemm(NoTrans, NoTrans, -1, s[2][0], gN, 0, out[2])
			beta = 1
		}
		Gemm(NoTrans, NoTrans, -1, s[2][2], gA, beta, out[2])
		if gT != nil {
			Gemm(NoTrans, NoTrans, -1, s[2][1], gT, 1, out[2])
		}
	}
	for i, gi := range gs {
		if gi != nil {
			Gemm(Trans, NoTrans, -1, out[i], gi, 1, ic.d)
		}
	}
	ic.d.Symmetrize()
	return nil
}

func (ic *invertCase) invert() error { return Invert(ic.l, ic.g, ic.s, ic.out, ic.d) }

// outputs lists the step's output blocks with their names.
func (ic *invertCase) outputs() ([]*Matrix, []string) {
	ms, names := []*Matrix{ic.d}, []string{"Σ_kk"}
	for i, o := range ic.out {
		if o != nil {
			ms, names = append(ms, o), append(names, fmt.Sprintf("Σ_%d,k", i))
		}
	}
	return ms, names
}

// inputsKept reports the first input block of ic that is not bitwise the
// one of before.
func (ic *invertCase) inputsKept(before *invertCase) string {
	if !sameBits(ic.l.Data, before.l.Data) {
		return "L"
	}
	for i := range ic.g {
		if ic.g[i] != nil && !sameBits(ic.g[i].Data, before.g[i].Data) {
			return fmt.Sprintf("g[%d]", i)
		}
		for j := range ic.s[i] {
			if ic.s[i][j] != nil && !sameBits(ic.s[i][j].Data, before.s[i][j].Data) {
				return fmt.Sprintf("s[%d][%d]", i, j)
			}
		}
	}
	return ""
}

// TestInvertMatchesUnfused: the fused selected-inversion step leaves every
// output block within 1e-12 of the unfused calls, relative to the block's
// largest entry, and Σ_kk exactly symmetric, over the block sizes the
// solvers run at and one past a single packed sweep, arrowheads of 0…6
// rows, one- and two-sided partitions with and without a next block; its
// inputs are untouched.
func TestInvertMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, b := range []int{16, 60, 144, 192, 288} {
		for _, a := range []int{0, 1, 2, 3, 6} {
			for _, twoSided := range []bool{false, true} {
				for _, next := range []bool{true, false} {
					ic := newInvertCase(rng, b, a, twoSided, next)
					want := ic.clone()
					if err := want.unfused(); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("b=%d a=%d twoSided=%v next=%v", b, a, twoSided, next)
					got := ic.clone()
					if err := got.invert(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if blk := got.inputsKept(ic); blk != "" {
						t.Fatalf("%s: input %s was written", name, blk)
					}
					gm, names := got.outputs()
					wm, _ := want.outputs()
					for k := range gm {
						if e := relDiff(gm[k], wm[k], false); !(e <= 1e-12) {
							t.Fatalf("%s: %s differs from the unfused calls by %.3g relative", name, names[k], e)
						}
					}
					for i := 0; i < b; i++ {
						for j := 0; j < i; j++ {
							if got.d.At(i, j) != got.d.At(j, i) {
								t.Fatalf("%s: Σ_kk not symmetric at (%d,%d)", name, i, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestInvertNotPD: a factor with a zero or NaN pivot is
// ErrNotPositiveDefinite, and no output is written.
func TestInvertNotPD(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, b := range []int{60, 288} {
		for _, pivot := range []float64{0, math.NaN()} {
			ic := newInvertCase(rng, b, 2, true, true)
			ic.l.Set(b/2, b/2, pivot)
			got := ic.clone()
			if err := got.invert(); !errors.Is(err, ErrNotPositiveDefinite) {
				t.Fatalf("b=%d pivot %v: got %v, want ErrNotPositiveDefinite", b, pivot, err)
			}
			gm, names := got.outputs()
			wm, _ := ic.outputs()
			for k := range gm {
				if !sameBits(gm[k].Data, wm[k].Data) {
					t.Fatalf("b=%d pivot %v: %s was written", b, pivot, names[k])
				}
			}
		}
	}
}

// TestInvertConcurrent: steps run from several goroutines at once share the
// packing pools; each result is bitwise its serial one.
func TestInvertConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const steps = 6
	var cases, want [steps]*invertCase
	for i := range cases {
		cases[i] = newInvertCase(rng, 144, 2, i%2 == 1, true)
		want[i] = cases[i].clone()
		if err := want[i].invert(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]string, steps)
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got := cases[i].clone()
				if err := got.invert(); err != nil {
					errs[i] = err.Error()
					return
				}
				gm, names := got.outputs()
				wm, _ := want[i].outputs()
				for k := range gm {
					if !sameBits(gm[k].Data, wm[k].Data) {
						errs[i] = names[k] + " differs from the serial step"
						return
					}
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
