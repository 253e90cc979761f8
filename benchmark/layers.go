package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/sparse"
	"github.com/dalia-hpc/dalia/internal/spde"
	"github.com/dalia-hpc/dalia/internal/store"
)

// Call counts of the layer timings: layerCalls for calls that take up to a
// few tens of milliseconds, slowCalls for the ones that take hundreds.
const (
	layerCalls = 30
	slowCalls  = 12
)

// timeCalls times n calls of f one by one, after one warming call: min and
// median, milliseconds. prepare, when set, runs untimed before each call.
func timeCalls(n int, prepare, f func()) (minMS, medMS float64) {
	ms := make([]float64, 0, n)
	for i := 0; i <= n; i++ {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		f()
		if i > 0 {
			ms = append(ms, time.Since(t0).Seconds()*1e3)
		}
	}
	return minOf(ms), median(ms)
}

// must panics on an error only a bug in the benchmark can produce: every
// call it guards repeats, on the same inputs, a call that already succeeded.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// layerBench times each layer's public functions at the workload's shapes
// and at the fitted mode θ*, from outside the layers.
type layerBench struct {
	s   *session
	res *result
	m   *model.Model
	t   *model.Theta // decoded θ*
	qc  *bta.Matrix  // Q_c(θ*), at the conditional mode for counts
	mu  []float64    // latent mean at θ*
	// mode is the inner-Newton state at θ* (counts only).
	mode *model.PoissonMode
}

// record stores a timing and prints its min beside the median.
func (lb *layerBench) record(name string, scale float64, n int, f func()) float64 {
	lo, med := timeCalls(n, nil, f)
	lb.res.set(name, med*scale)
	lb.res.notef("  %-28s median %.6g  min %.6g  (%d calls)", name, med*scale, lo*scale, n)
	return med
}

func newLayerBench(s *session, res *result) (*layerBench, error) {
	m := s.ds.Model
	lb := &layerBench{s: s, res: res, m: m, mu: s.warm.res.Mu}
	var err error
	if lb.t, err = m.DecodeTheta(s.warm.res.Theta); err != nil {
		return nil, err
	}
	if m.Lik == model.LikPoisson {
		if lb.mode, err = m.ConditionalModePoisson(lb.t, poissonFactorizer(m, nil, 0)); err != nil {
			return nil, err
		}
		lb.qc, err = m.QcFromCSR(lb.mode.QcCSR)
	} else {
		lb.qc, err = m.Qc(lb.t)
	}
	return lb, err
}

// denseLayer times the four BLAS-3 kernels at n = b on one thread.
func (lb *layerBench) denseLayer() {
	prev := dense.SetMaxWorkers(1)
	defer dense.SetMaxWorkers(prev)
	_, b, _ := lb.m.Dims.BTAShape()
	n := float64(b)
	x, y, z := dense.New(b, b), dense.New(b, b), dense.New(b, b)
	g := &splitmix{s: 7}
	for i := range x.Data {
		x.Data[i], y.Data[i] = g.float()-0.5, g.float()-0.5
	}
	spd := dense.New(b, b)
	dense.Syrk(dense.NoTrans, 1, x, 0, spd)
	spd.MirrorLowerToUpper()
	spd.AddDiag(n)
	l, err := dense.Chol(spd)
	must(err) // x·xᵀ + n·I is positive definite
	gflops := func(name string, flops float64, prepare, f func()) {
		lo, med := timeCalls(layerCalls, prepare, f)
		lb.res.set(name, flops/(med*1e-3)/1e9)
		lb.res.notef("  %-28s median %.4g  best %.4g  (n=%d, %d calls)", name,
			flops/(med*1e-3)/1e9, flops/(lo*1e-3)/1e9, b, layerCalls)
	}
	gflops("dense.gemm_gflops", 2*n*n*n, nil, func() { dense.Gemm(dense.NoTrans, dense.NoTrans, 1, x, y, 0, z) })
	gflops("dense.syrk_gflops", n*n*n, nil, func() { dense.Syrk(dense.NoTrans, 1, x, 0, z) })
	gflops("dense.trsm_gflops", n*n*n, func() { z.CopyFrom(y) }, func() { dense.Trsm(dense.Right, dense.Trans, l, z) })
	gflops("dense.potrf_gflops", n*n*n/3, func() { z.CopyFrom(spd) }, func() { must(dense.Potrf(z)) })
}

// modelLayers times precision assembly from the SPDE builder up to the
// model's BTA workspaces.
func (lb *layerBench) modelLayers() {
	m, t := lb.m, lb.t
	lb.record("spde.precision_ms", 1, layerCalls, func() { m.Builder.Precision(t.Process[0]) })
	qs := make([]*sparse.CSR, m.Dims.Nv)
	for k := range qs {
		qs[k] = m.Builder.Precision(t.Process[k])
	}
	lb.record("coreg.joint_precision_ms", 1, layerCalls, func() {
		_, err := t.Lambda.JointPrecision(qs)
		must(err)
	})
	lb.record("model.new_ms", 1, layerCalls, func() {
		_, err := model.New(spde.NewBuilder(m.Builder.Mesh, m.Dims.Nt), m.Dims, m.Obs, model.WithLikelihood(m.Lik))
		must(err)
	})
	n, b, a := m.Dims.BTAShape()
	qp, qc := bta.NewMatrix(n, b, a), bta.NewMatrix(n, b, a)
	lb.record("model.qp_into_ms", 1, layerCalls, func() { must(m.QpInto(t, qp)) })
	tot := m.Dims.Total()
	dst, pm, obs := make([]float64, tot), make([]float64, tot), make([]float64, m.Obs.M())
	if lb.mode != nil {
		// Counts: the conditional precision's values come from the inner
		// Newton loop; what remains per evaluation is mapping them into BTA
		// form, and the right-hand side is the Newton score.
		lb.record("model.qc_into_ms", 1, layerCalls, func() { must(m.QcFromCSRInto(lb.mode.QcCSR, qc)) })
		lb.record("model.cond_rhs_ms", 1, layerCalls, func() { m.ScoreRHSForTest(t, lb.mode) })
	} else {
		lb.record("model.qc_into_ms", 1, layerCalls, func() { must(m.QcInto(t, qc)) })
		lb.record("model.cond_rhs_ms", 1, layerCalls, func() { m.CondRHSInto(t, dst, pm, obs) })
	}
	lb.record("model.loglik_ms", 1, layerCalls, func() { m.LogLik(t, lb.mu) })
	iters := 0.0
	if lb.mode != nil {
		iters = float64(lb.mode.Inner)
	}
	lb.res.set("model.newton_iters", iters)
}

// factorizeFlops counts the floating-point operations of one sequential BTA
// Cholesky from its shape (the calls of bta's factor step).
func factorizeFlops(n, b, a int) float64 {
	N, B, A := float64(n), float64(b), float64(a)
	return N*(B*B*B/3+A*B*B+A*A*B) + (N-1)*(2*B*B*B+2*A*B*B) + A*A*A/3
}

// btaLayer times the structured solver on Q_c(θ*).
func (lb *layerBench) btaLayer() error {
	n, b, a := lb.m.Dims.BTAShape()
	f := bta.NewFactor(n, b, a)
	if err := f.Refactorize(lb.qc); err != nil {
		return fmt.Errorf("Q_c(θ*): %w", err)
	}
	fms := lb.record("bta.factorize_ms", 1, layerCalls, func() { must(f.Refactorize(lb.qc)) })
	lb.res.set("bta.factorize_gflops", factorizeFlops(n, b, a)/(fms*1e-3)/1e9)
	rhs := make([]float64, f.Dim())
	lb.record("bta.solve_ms", 1, layerCalls, func() {
		copy(rhs, lb.mu)
		f.Solve(rhs)
	})
	lb.record("bta.logdet_us", 1e3, layerCalls, func() { probeSink += f.LogDet() })
	sig := bta.NewMatrix(n, b, a)
	lb.record("bta.selinv_ms", 1, layerCalls, func() { must(f.SelectedInversionInto(sig)) })
	ms := bta.NewMultiSolve(n, b, a, largeQueries)
	fill := func() {
		for i := range ms.RHS.Data {
			ms.RHS.Data[i] = float64(i%13) - 6
		}
	}
	lb.record("bta.solve_multi64_ms", 1, layerCalls, func() { fill(); f.SolveMultiInto(ms) })
	lb.record("bta.forward_multi64_ms", 1, layerCalls, func() { fill(); f.ForwardSolveMultiInto(ms) })
	pf, err := bta.NewParallelFactor(n, b, a, 2)
	if err != nil {
		return err
	}
	pms := lb.record("bta.parallel2_factorize_ms", 1, layerCalls, func() { must(pf.Refactorize(lb.qc)) })
	lb.res.set("bta.parallel2_ratio", pms/fms)
	return nil
}

// schedLayer times the executor itself: the spawn/join rate of empty tasks
// on one lane, and one heavy task submitted and help-joined (the shape of an
// evaluation batch).
func (lb *layerBench) schedLayer() {
	const tasksPerJoin = 256
	ex := sched.New(runtime.GOMAXPROCS(0))
	defer ex.Close()
	var g sched.Group
	g.Init(ex)
	tasks := make([]sched.Task, tasksPerJoin)
	nop := func() {}
	_, med := timeCalls(layerCalls, nil, func() {
		l := ex.AcquireLane()
		g.Add(tasksPerJoin)
		for i := range tasks {
			tasks[i].Reset(ex, &g, nop, nil)
			l.Spawn(&tasks[i])
		}
		g.Wait(l)
		ex.ReleaseLane(l)
	})
	lb.res.set("sched.spawn_join_per_s", tasksPerJoin/(med*1e-3))
	lb.record("sched.submit_heavy_us", 1e3, layerCalls, func() {
		g.Add(1)
		tasks[0].Reset(ex, &g, nop, nil)
		ex.Submit(&tasks[0])
		g.WaitHeavy(nil)
	})
}

// inlaLayer times the evaluator inla.Fit builds: the warm gradient batch
// (against fobj, one sequential evaluation), the width-1 line-search batch,
// and what an evaluation allocates.
func (lb *layerBench) inlaLayer(fobj float64) {
	ds := lb.s.ds
	theta := lb.s.warm.res.Theta
	one := [][]float64{theta}
	e := newEvaluator(ds)
	stencil := gradientStencil(theta, lb.s.w.fitOptions().Opt.GradStep)
	grad := lb.record("inla.eval_batch_grad_ms", 1, slowCalls, func() { e.EvalBatch(stencil) })
	lb.record("inla.eval_batch_line_ms", 1, layerCalls, func() { e.EvalBatch(one) })
	lb.res.set("inla.batch_efficiency", float64(len(stencil))*fobj/(float64(runtime.GOMAXPROCS(0))*grad))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.EvalBatch(stencil)
	runtime.ReadMemStats(&m1)
	w := float64(len(stencil))
	lb.res.set("inla.allocs_per_eval", float64(m1.Mallocs-m0.Mallocs)/w)
	lb.res.set("inla.bytes_per_eval", float64(m1.TotalAlloc-m0.TotalAlloc)/w)

	var blob []byte
	lb.record("inla.marshal_result_ms", 1, layerCalls, func() { blob = inla.MarshalResult(lb.s.warm.res) })
	lb.record("inla.unmarshal_result_ms", 1, layerCalls, func() {
		_, err := inla.UnmarshalResult(blob)
		must(err)
	})
}

// predictLayer times the in-process prediction path per request size.
func (lb *layerBench) predictLayer() {
	s := lb.s
	var tg target
	lb.record("predict.snapshot_build_ms", 1, layerCalls, func() {
		var err error
		tg, err = newInProcessTarget(s.ds.Model, s.warm.res)
		must(err)
	})
	fn := tg.client()
	means, vars := make([]float64, largeQueries), make([]float64, largeQueries)
	i := 0
	call := func(pool []request) func() {
		return func() {
			i++
			must(fn(&pool[i%len(pool)], means, vars, true))
		}
	}
	const calls = 300
	lb.record("predict.batch4_us", 1e3, calls, call(s.p.small))
	lb.record("predict.batch64_us", 1e3, calls, call(s.p.large))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < calls; k++ {
		call(s.p.small)()
	}
	runtime.ReadMemStats(&m1)
	lb.res.set("predict.allocs_per_request", float64(m1.Mallocs-m0.Mallocs)/calls)
}

// storeLayer times the durable checkpoint store on a temporary directory
// inside the checkout.
func (lb *layerBench) storeLayer(dir string) error {
	root, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	st, _, err := store.Open(root)
	if err != nil {
		return err
	}
	ck := &store.Checkpoint{Name: "bench", Spec: []byte(lb.s.w.name), Payload: inla.MarshalResult(lb.s.warm.res)}
	var opErr error
	keep := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	lb.record("store.publish_ms", 1, layerCalls, func() { _, err := st.Publish(ck); keep(err) })
	lb.record("store.load_ms", 1, layerCalls, func() { _, err := st.Load("bench"); keep(err) })
	lb.record("store.open_recover_ms", 1, layerCalls, func() {
		if st == nil {
			return // an earlier reopen failed
		}
		keep(st.Close())
		st, _, err = store.Open(root)
		keep(err)
	})
	if st != nil {
		keep(st.Close())
	}
	return opErr
}

// commLayer counts what one distributed mode-search iteration sends between
// two simulated ranks. A per-device memory cap between the one- and the
// two-rank working set makes the planner put both ranks on one
// factorization (layer S3), the only configuration in which two ranks
// exchange point-to-point messages. Counts only: the simulator's virtual
// time has no wall-clock meaning.
func (lb *layerBench) commLayer() error {
	ds := lb.s.ds
	m := ds.Model
	t, err := m.DecodeTheta(ds.Theta0)
	if err != nil {
		return err
	}
	qc, err := m.Qc(t)
	if err != nil {
		return err
	}
	_, b, _ := m.Dims.BTAShape()
	memCap := qc.BytesDense()*6/5 + int64(8*7*b*b)
	rep, err := inla.RunDistributed(m, inla.WeakPrior(ds.Theta0, priorSD), ds.Theta0,
		inla.DistConfig{World: 2, Machine: comm.DefaultMachine(), Iterations: 1, MemCapBytes: memCap})
	if err != nil {
		return err
	}
	var msgs, bytes int64
	for _, r := range rep.Stats.Ranks {
		msgs += r.MessagesSent
		bytes += r.BytesSent
	}
	lb.s.c.ok(rep.Plan.Groups == 1 && msgs > 0, "the 2-rank run planned %d groups and sent %d messages; want one shared factorization", rep.Plan.Groups, msgs)
	lb.res.set("comm.msgs_per_iter", float64(msgs))
	lb.res.set("comm.bytes_per_iter", float64(bytes))
	return nil
}
