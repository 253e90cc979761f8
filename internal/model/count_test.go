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
			if _, err := m.newtonMode(th, chk, w, nil); err != nil {
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
	got, err := m.ConditionalModeInto(th, f, w, nil)
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
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := m.ConditionalModeInto(th, f, w, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm inner Newton loop allocates %.1f objects, want 0", allocs)
	}
}

// TestConditionalModeIntoWarmStart: from the cold mode itself the loop
// converges warm in one step to the same mode within the inner tolerance
// (the step moves log ℓ by ≈ 4e-11 of itself at this shape),
// and a start that fails — η past the exp guard, or NaN — falls back to
// x = 0 and returns the cold result bit for bit.
func TestConditionalModeIntoWarmStart(t *testing.T) {
	m, th := benchmarkShapes[2].build(t)
	n, b, a := m.Dims.BTAShape()
	f, w := bta.NewFactor(n, b, a), m.NewNewtonWork()
	cold, err := m.ConditionalModeInto(th, f, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Fatal("a cold call reports a warm mode")
	}
	wantX := append([]float64(nil), cold.XPM...)
	wantLL, wantDet, wantInner := m.LogLik(th, cold.XPerm), f.LogDet(), cold.Inner

	warm, err := m.ConditionalModeInto(th, f, w, wantX)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || warm.Inner != 1 {
		t.Fatalf("from the mode: warm %v after %d steps, want warm after 1", warm.Warm, warm.Inner)
	}
	if ll := m.LogLik(th, warm.XPerm); math.Abs(ll-wantLL) > 1e-9*math.Abs(wantLL) {
		t.Fatalf("from the mode: log ℓ %v, cold %v", ll, wantLL)
	}

	huge := make([]float64, len(wantX))
	for i := range huge {
		huge[i] = 1e3
	}
	nan := append([]float64(nil), wantX...)
	nan[0] = math.NaN()
	for name, start := range map[string][]float64{"η past the cap": huge, "NaN": nan} {
		got, err := m.ConditionalModeInto(th, f, w, start)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ll := m.LogLik(th, got.XPerm); got.Warm || got.Inner != wantInner || ll != wantLL || f.LogDet() != wantDet {
			t.Fatalf("%s: warm %v, %d steps, log ℓ %v, log det %v; cold %d steps, %v, %v",
				name, got.Warm, got.Inner, ll, f.LogDet(), wantInner, wantLL, wantDet)
		}
		for i, x := range wantX {
			if got.XPM[i] != x {
				t.Fatalf("%s: x*[%d] = %v, cold %v", name, i, got.XPM[i], x)
			}
		}
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
			mode, err := m.ConditionalModeInto(th, bta.NewFactor(n, b, a), m.NewNewtonWork(), nil)
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
