package coreg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

func TestNewLambdaTrivariateMatchesPaper(t *testing.T) {
	s1, s2, s3 := 1.5, 2.0, 0.7
	l1, l2, l3 := 0.3, -0.4, 0.2
	l, err := NewLambda([]float64{s1, s2, s3}, []float64{l1, l2, l3})
	if err != nil {
		t.Fatal(err)
	}
	c := l.Coreg()
	// Eq. 5: [[σ1,0,0],[λ1σ1,σ2,0],[(λ3+λ1λ2)σ1, λ2σ2, σ3]].
	want := [][]float64{
		{s1, 0, 0},
		{l1 * s1, s2, 0},
		{(l3 + l1*l2) * s1, l2 * s2, s3},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(c.At(i, j)-want[i][j]) > 1e-12 {
				t.Fatalf("Λ[%d,%d] = %v want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestNewLambdaValidation(t *testing.T) {
	if _, err := NewLambda(nil, nil); err == nil {
		t.Fatal("empty sigmas must error")
	}
	if _, err := NewLambda([]float64{1, -1}, []float64{0}); err == nil {
		t.Fatal("negative sigma must error")
	}
	if _, err := NewLambda([]float64{1, 1}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("wrong lambda count must error")
	}
}

func TestNumLambdas(t *testing.T) {
	for nv, want := range map[int]int{1: 0, 2: 1, 3: 3, 4: 6, 5: 10} {
		if got := NumLambdas(nv); got != want {
			t.Fatalf("NumLambdas(%d) = %d want %d", nv, got, want)
		}
	}
}

func TestMInvIsInverse(t *testing.T) {
	l, err := NewLambda([]float64{1.2, 0.8, 2.0}, []float64{0.5, -0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	prod := dense.MatMul(dense.NoTrans, dense.NoTrans, l.Coreg(), l.MInv())
	if !prod.Equal(dense.Eye(3), 1e-12) {
		t.Fatal("Λ·Λ⁻¹ != I")
	}
}

func TestUnivariateDegenerates(t *testing.T) {
	l, err := NewLambda([]float64{2.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := sparse.Identity(4)
	j, err := l.JointPrecision([]*sparse.CSR{q})
	if err != nil {
		t.Fatal(err)
	}
	// Q_nv = Q/σ² for a single process.
	for i := 0; i < 4; i++ {
		if math.Abs(j.At(i, i)-0.25) > 1e-12 {
			t.Fatalf("univariate joint precision wrong: %v", j.At(i, i))
		}
	}
}

// randSPDcsr builds a small random SPD CSR.
func randSPDcsr(rng *rand.Rand, n int) *sparse.CSR {
	g := dense.New(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	a := dense.MatMul(dense.NoTrans, dense.Trans, g, g)
	a.AddDiag(float64(n))
	return sparse.FromDense(a, 0)
}

func TestJointPrecisionEqualsDenseFormula(t *testing.T) {
	// Q_nv must equal (Λ⁻¹)ᵀ·blockdiag(Q_k)·Λ⁻¹ computed densely, and its
	// inverse must equal Λ_blk·blockdiag(Σ_k)·Λ_blkᵀ (Eq. 6).
	rng := rand.New(rand.NewSource(42))
	const n, nv = 4, 3
	l, err := NewLambda([]float64{1.3, 0.9, 1.8}, []float64{0.4, 0.2, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*sparse.CSR, nv)
	for k := range qs {
		qs[k] = randSPDcsr(rng, n)
	}
	joint, err := l.JointPrecision(qs)
	if err != nil {
		t.Fatal(err)
	}

	// Dense reference: expand Λ_blk = Λ_c ⊗ I_n.
	lc := l.Coreg()
	lblk := dense.New(nv*n, nv*n)
	for i := 0; i < nv; i++ {
		for j := 0; j <= i; j++ {
			v := lc.At(i, j)
			for r := 0; r < n; r++ {
				lblk.Set(i*n+r, j*n+r, v)
			}
		}
	}
	bd := dense.New(nv*n, nv*n)
	for k := 0; k < nv; k++ {
		bd.View(k*n, k*n, n, n).CopyFrom(qs[k].ToDense())
	}
	linv, err := dense.Inverse(dense.MatMul(dense.NoTrans, dense.Trans, lblk, lblk))
	_ = linv
	if err != nil {
		t.Fatal(err)
	}
	// (Λ⁻¹)ᵀ·bd·Λ⁻¹ via solves: W = Λ⁻ᵀ... compute directly with inverse.
	lblkInv := lblk.Clone()
	if err := dense.Trtri(lblkInv); err != nil {
		t.Fatal(err)
	}
	want := dense.MatMul(dense.Trans, dense.NoTrans, lblkInv, dense.MatMul(dense.NoTrans, dense.NoTrans, bd, lblkInv))
	if !joint.ToDense().Equal(want, 1e-10) {
		t.Fatal("JointPrecision != (Λ⁻¹)ᵀ·blockdiag(Q)·Λ⁻¹")
	}

	// Eq. 6: Σ_nv = Λ·blockdiag(Σ_k)·Λᵀ.
	jointInv, err := dense.Inverse(joint.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	bdInv := dense.New(nv*n, nv*n)
	for k := 0; k < nv; k++ {
		qi, err := dense.Inverse(qs[k].ToDense())
		if err != nil {
			t.Fatal(err)
		}
		bdInv.View(k*n, k*n, n, n).CopyFrom(qi)
	}
	sigma := dense.MatMul(dense.NoTrans, dense.Trans,
		dense.MatMul(dense.NoTrans, dense.NoTrans, lblk, bdInv), lblk)
	if !jointInv.Equal(sigma, 1e-8) {
		t.Fatal("inverse joint precision != Λ·blockdiag(Σ)·Λᵀ (Eq. 6)")
	}
}

func TestJointPrecisionValidation(t *testing.T) {
	l, _ := NewLambda([]float64{1, 1}, []float64{0.5})
	if _, err := l.JointPrecision([]*sparse.CSR{sparse.Identity(3)}); err == nil {
		t.Fatal("wrong count must error")
	}
	if _, err := l.JointPrecision([]*sparse.CSR{sparse.Identity(3), sparse.Identity(4)}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestImpliedCorrelation(t *testing.T) {
	l, err := NewLambda([]float64{1, 1, 1}, []float64{0.9, -0.5, -0.2})
	if err != nil {
		t.Fatal(err)
	}
	corr := l.ImpliedCorrelation()
	for i := 0; i < 3; i++ {
		if math.Abs(corr.At(i, i)-1) > 1e-12 {
			t.Fatalf("corr diag %v", corr.At(i, i))
		}
		for j := 0; j < 3; j++ {
			if corr.At(i, j) < -1-1e-12 || corr.At(i, j) > 1+1e-12 {
				t.Fatalf("corr (%d,%d) = %v outside [−1,1]", i, j, corr.At(i, j))
			}
			if math.Abs(corr.At(i, j)-corr.At(j, i)) > 1e-12 {
				t.Fatal("correlation not symmetric")
			}
		}
	}
	// Positive λ1 means processes 1 and 2 are positively correlated.
	if corr.At(1, 0) <= 0 {
		t.Fatalf("corr(1,0) = %v, want positive for λ1 > 0", corr.At(1, 0))
	}
}

func TestDims(t *testing.T) {
	d := Dims{Nv: 3, Ns: 10, Nt: 5, Nr: 2}
	if d.PerProcess() != 52 || d.Total() != 156 {
		t.Fatalf("dims wrong: %d %d", d.PerProcess(), d.Total())
	}
	n, b, a := d.BTAShape()
	if n != 5 || b != 30 || a != 6 {
		t.Fatalf("BTA shape (%d,%d,%d)", n, b, a)
	}
}

func TestTimeMajorPermutationIsPermutation(t *testing.T) {
	d := Dims{Nv: 3, Ns: 4, Nt: 3, Nr: 2}
	perm := TimeMajorPermutation(d)
	if len(perm) != d.Total() {
		t.Fatalf("perm length %d", len(perm))
	}
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
	// Spot checks: new index 0 is process 0, time 0, space 0 → old 0.
	if perm[0] != 0 {
		t.Fatalf("perm[0] = %d", perm[0])
	}
	// New index ns (= 4) is process 1, time 0, space 0 → old 1·(4·3+2) = 14.
	if perm[4] != 14 {
		t.Fatalf("perm[4] = %d, want 14", perm[4])
	}
	// First fixed effect (new nv·ns·nt = 36) is process 0's → old 12.
	if perm[36] != 12 {
		t.Fatalf("perm[36] = %d, want 12", perm[36])
	}
}

// TestPermutedJointIsBTA builds a joint precision from synthetic
// block-tridiagonal per-process matrices and verifies the permuted matrix
// fits the BTA pattern (Fig. 2b → 2c).
func TestPermutedJointIsBTA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := Dims{Nv: 3, Ns: 3, Nt: 4, Nr: 1}
	// Per-process precision: BT over (nt, ns) plus a decoupled fixed-effect
	// entry (prior precision of the fixed effects; coupling appears only in
	// Q_c through the data).
	qs := make([]*sparse.CSR, d.Nv)
	for k := range qs {
		coo := sparse.NewCOO(d.PerProcess(), d.PerProcess())
		for tt := 0; tt < d.Nt; tt++ {
			for i := 0; i < d.Ns; i++ {
				for j := 0; j < d.Ns; j++ {
					coo.Add(tt*d.Ns+i, tt*d.Ns+j, ifElse(i == j, 6.0, 0.2)+0.05*rng.Float64())
					if tt < d.Nt-1 {
						coo.Add(tt*d.Ns+i, (tt+1)*d.Ns+j, -0.1)
						coo.Add((tt+1)*d.Ns+j, tt*d.Ns+i, -0.1)
					}
				}
			}
		}
		coo.Add(d.Ns*d.Nt, d.Ns*d.Nt, 1e-3)
		qs[k] = coo.ToCSR()
	}
	l, err := NewLambda([]float64{1, 1.5, 0.8}, []float64{0.3, 0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	joint, err := l.JointPrecision(qs)
	if err != nil {
		t.Fatal(err)
	}
	perm := TimeMajorPermutation(d)
	permuted := joint.PermuteSym(perm)
	n, b, a := d.BTAShape()
	if _, err := bta.FromCSR(permuted, n, b, a); err != nil {
		t.Fatalf("permuted joint precision does not fit BTA: %v", err)
	}
}

func ifElse(c bool, a, b float64) float64 {
	if c {
		return a
	}
	return b
}

func TestQuickLambdaInverseRoundTrip(t *testing.T) {
	f := func(seed int64, nvr uint8) bool {
		nv := int(nvr%4) + 1
		rng := rand.New(rand.NewSource(seed))
		sig := make([]float64, nv)
		for i := range sig {
			sig[i] = 0.5 + rng.Float64()*2
		}
		lam := make([]float64, NumLambdas(nv))
		for i := range lam {
			lam[i] = rng.NormFloat64()
		}
		l, err := NewLambda(sig, lam)
		if err != nil {
			return false
		}
		prod := dense.MatMul(dense.NoTrans, dense.NoTrans, l.Coreg(), l.MInv())
		return prod.Equal(dense.Eye(nv), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCoregDerivMatchesDifferences: Λ_c is affine in each coupling
// parameter, so a central difference of unit step is its derivative up to
// rounding; CoregDerivInto must agree with it for nv = 2, 3 and 4.
func TestCoregDerivMatchesDifferences(t *testing.T) {
	for _, nv := range []int{2, 3, 4} {
		sig := make([]float64, nv)
		lam := make([]float64, NumLambdas(nv))
		for i := range sig {
			sig[i] = 0.7 + 0.3*float64(i)
		}
		for i := range lam {
			lam[i] = 0.4 - 0.3*float64(i)
		}
		got := dense.New(nv, nv)
		for q := range lam {
			CoregDerivInto(sig, lam, q, got)
			l0 := lam[q]
			lam[q] = l0 + 1
			up, err := NewLambda(sig, lam)
			if err != nil {
				t.Fatal(err)
			}
			lam[q] = l0 - 1
			dn, err := NewLambda(sig, lam)
			if err != nil {
				t.Fatal(err)
			}
			lam[q] = l0
			for i := 0; i < nv; i++ {
				for j := 0; j < nv; j++ {
					want := 0.5 * (up.CoregView().At(i, j) - dn.CoregView().At(i, j))
					if math.Abs(got.At(i, j)-want) > 1e-14 {
						t.Fatalf("nv=%d: ∂Λ_c/∂λ_%d[%d,%d] = %v, difference %v", nv, q, i, j, got.At(i, j), want)
					}
				}
			}
		}
	}
}
