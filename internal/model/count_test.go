package model

import (
	"math"
	"sync"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sparse"
)

// checkedNewton is the table Newton system, checked at every iterate
// against the CSR route: Q_p through JointPrecision plus dataTermPoisson's
// nv² weighted Gram products.
type checkedNewton struct {
	btaNewton
	tt    *testing.T
	steps int
}

func (c *checkedNewton) factor(eta []float64) error {
	c.assemble(eta)
	m := c.m
	want := m.oracleBTA(c.tt, sparse.Add(1, m.oracleQpCSR(c.t), 1, m.dataTermPoisson(c.t, eta)))
	if err := compareBTA(c.f.Workspace(), want, 1e-13); err != nil {
		c.tt.Fatalf("Newton iterate %d: %v", c.steps, err)
	}
	c.steps++
	return c.f.FactorizeWorkspace()
}

// btaFactorizer is the CSR route's solver hook: map into BTA form,
// factorize, solve on process-major vectors.
func btaFactorizer(m *Model) func(*sparse.CSR) (func([]float64) []float64, error) {
	return func(qc *sparse.CSR) (func([]float64) []float64, error) {
		qb, err := m.QcFromCSR(qc)
		if err != nil {
			return nil, err
		}
		f, err := bta.Factorize(qb)
		if err != nil {
			return nil, err
		}
		return func(rhs []float64) []float64 {
			x := m.ApplyPerm(rhs)
			f.Solve(x)
			return m.UnPerm(x)
		}, nil
	}
}

// TestCountRefillMatchesCSRRoute: at every Newton iterate of the count
// model's inner loop (at least three), the refilled Q_c(x) agrees with
// QpCSR + dataTermPoisson within 1e-13 of each block row.
func TestCountRefillMatchesCSRRoute(t *testing.T) {
	for _, s := range []shape{benchmarkShapes[2], {name: "tri-counts", nv: 3, nt: 3, nr: 1, nx: 5, ny: 4, perStep: 20, lik: LikPoisson, lam: 0.1}} {
		t.Run(s.name, func(t *testing.T) {
			m, th := s.build(t)
			n, b, a := m.Dims.BTAShape()
			qp, err := m.Qp(th)
			if err != nil {
				t.Fatal(err)
			}
			w := m.NewNewtonWork()
			w.qp = qp
			chk := &checkedNewton{tt: t, btaNewton: btaNewton{
				m: m, t: th, f: bta.NewFactor(n, b, a), w: w,
			}}
			if _, err := m.newtonMode(th, chk, w); err != nil {
				t.Fatal(err)
			}
			if chk.steps < 3 {
				t.Fatalf("%d Newton iterates checked, want ≥ 3", chk.steps)
			}
		})
	}
}

// TestConditionalModeIntoMatchesCSRRoute: the table route reaches the CSR
// route's mode in as many steps, with the same log-likelihood and log det
// Q_c there, and allocates nothing once its work is warm.
func TestConditionalModeIntoMatchesCSRRoute(t *testing.T) {
	m, th := benchmarkShapes[2].build(t)
	want, err := m.ConditionalModePoisson(th, btaFactorizer(m))
	if err != nil {
		t.Fatal(err)
	}
	n, b, a := m.Dims.BTAShape()
	f, w := bta.NewFactor(n, b, a), m.NewNewtonWork()
	got, err := m.ConditionalModeInto(th, f, w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Inner != want.Inner {
		t.Fatalf("%d Newton steps, CSR route %d", got.Inner, want.Inner)
	}
	var diff, norm float64
	for i, x := range want.XPerm {
		diff += (got.XPerm[i] - x) * (got.XPerm[i] - x)
		norm += x * x
	}
	if math.Sqrt(diff) > 1e-10*math.Sqrt(norm) {
		t.Fatalf("modes differ by %v (‖x*‖ = %v)", math.Sqrt(diff), math.Sqrt(norm))
	}
	if gotLL, wantLL := m.LogLik(th, got.XPerm), m.LogLik(th, want.XPerm); math.Abs(gotLL-wantLL) > 1e-10*math.Abs(wantLL) {
		t.Fatalf("log ℓ at the mode %v, CSR route %v", gotLL, wantLL)
	}
	qb, err := m.QcFromCSR(want.QcCSR)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := bta.Factorize(qb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.LogDet()-fw.LogDet()) > 1e-10*math.Abs(fw.LogDet()) {
		t.Fatalf("log det Q_c at the mode %v, CSR route %v", f.LogDet(), fw.LogDet())
	}

	if dense.RaceEnabled {
		return // race-mode sync.Pool drops Put items
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := m.ConditionalModeInto(th, f, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm inner Newton loop allocates %.1f objects, want 0", allocs)
	}
}

// TestConditionalModeAtRebuildsTheMode: from the mode ConditionalModeInto
// returned, ConditionalModeAt — on another factor and Newton work — takes
// no Newton step and gives the mode, log ℓ there and log det Q_c bit for
// bit, allocating nothing once its work is warm; a state whose η passes the
// exp guard fails.
func TestConditionalModeAtRebuildsTheMode(t *testing.T) {
	m, th := benchmarkShapes[2].build(t)
	n, b, a := m.Dims.BTAShape()
	f, w := bta.NewFactor(n, b, a), m.NewNewtonWork()
	want, err := m.ConditionalModeInto(th, f, w)
	if err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), want.XPM...)
	wantLL, wantDet := m.LogLik(th, want.XPerm), f.LogDet()

	f2, w2 := bta.NewFactor(n, b, a), m.NewNewtonWork()
	got, err := m.ConditionalModeAt(th, f2, w2, x)
	if err != nil {
		t.Fatal(err)
	}
	if got.Inner != 0 || m.LogLik(th, got.XPerm) != wantLL || f2.LogDet() != wantDet {
		t.Fatalf("%d steps, log ℓ %v, log det %v; ConditionalModeInto %v, %v",
			got.Inner, m.LogLik(th, got.XPerm), f2.LogDet(), wantLL, wantDet)
	}
	for i, v := range x {
		if got.XPM[i] != v {
			t.Fatalf("x*[%d] = %v, ConditionalModeInto %v", i, got.XPM[i], v)
		}
	}

	huge := make([]float64, len(x))
	for i := range huge {
		huge[i] = 1e3
	}
	if _, err := m.ConditionalModeAt(th, f2, w2, huge); err == nil {
		t.Fatal("a state past the exp guard was accepted")
	}
	if dense.RaceEnabled {
		return // race-mode sync.Pool drops Put items
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := m.ConditionalModeAt(th, f2, w2, x); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ConditionalModeAt allocates %.1f objects, want 0", allocs)
	}
}

// TestTablesConcurrentCallers: the assembly tables, the fill pool and the
// count tables (built by whichever caller comes first) are shared by
// concurrent evaluations; each caller must get the serial result.
func TestTablesConcurrentCallers(t *testing.T) {
	m, th := benchmarkShapes[2].build(t)
	want, err := m.Qc(th)
	if err != nil {
		t.Fatal(err)
	}
	n, b, a := m.Dims.BTAShape()
	const callers = 6
	logLik := make([]float64, callers)
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qc := bta.NewMatrix(n, b, a)
			for i := 0; i < 5; i++ {
				if err := m.QcInto(th, qc); err != nil {
					errs <- err
					return
				}
				if err := compareBTA(qc, want, 0); err != nil {
					errs <- err
					return
				}
			}
			mode, err := m.ConditionalModeInto(th, bta.NewFactor(n, b, a), m.NewNewtonWork())
			if err != nil {
				errs <- err
				return
			}
			logLik[g] = m.LogLik(th, mode.XPerm)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for g, ll := range logLik {
		if ll != logLik[0] {
			t.Errorf("caller %d: log ℓ at the mode %v, caller 0 %v", g, ll, logLik[0])
		}
	}
}
