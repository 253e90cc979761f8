package inla

import (
	"math"
	"slices"
	"sync"
)

// modeCache keeps, for a count model's evaluator, the conditional modes
// from x = 0 of the last batch that was not a gradient stencil and no
// wider than the core budget — a line-search round — by exact θ, in
// buffers reused from batch to batch. The accepted candidate of a line
// search is the centre of the gradient request that follows, so its mode
// is here when that request arrives.
type modeCache struct {
	mu    sync.Mutex
	theta [][]float64 // θ of entry i; empty when its evaluation failed
	x     [][]float64 // the mode at θ from x = 0, process-major
	n     int         // entries in use
}

// reset drops every entry and makes room for n, of length tot each.
func (c *modeCache) reset(n, tot int) {
	c.n = 0
	for len(c.x) < n {
		c.theta = append(c.theta, nil)
		c.x = append(c.x, make([]float64, tot))
	}
}

// set makes entry i the mode at θ, or an entry without one when !ok.
func (c *modeCache) set(i int, theta []float64, ok bool) {
	c.theta[i] = c.theta[i][:0]
	if ok {
		c.theta[i] = append(c.theta[i], theta...)
	}
	c.n = max(c.n, i+1)
}

// lookup returns the mode kept for θ, nil when there is none.
func (c *modeCache) lookup(theta []float64) []float64 {
	for i := range c.n {
		if slices.Equal(c.theta[i], theta) {
			return c.x[i]
		}
	}
	return nil
}

// evalCountBatch is EvalBatch for a count model. A batch laid out as a
// gradient stencil is a gradient request (evalGradientRequest): one
// Laplace step at the centre's mode from x = 0 — rebuilt without a Newton
// step from the kept mode when the centre is the last line-search round's
// accepted candidate, and otherwise solved — one selected inversion and
// one adjoint solve. The mode from x = 0 is a function of θ alone, so a
// kept and a solved mode give the same bits. Every other batch, and a
// stencil whose centre fails, evaluates every point from x = 0 and, when
// it is no wider than the core budget (a line-search round; not a Hessian
// or integration grid), keeps its modes in place of the kept ones. Batches
// of one count evaluator run one at a time.
func (e *BTAEvaluator) evalCountBatch(points [][]float64, out []float64) {
	if len(points) == 0 {
		return
	}
	c := &e.modes
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.evalGradientRequest(points, out, c) {
		return
	}
	if len(points) > e.cores() {
		e.evalPoints(points, out, nil)
		return
	}
	c.reset(len(points), e.Model.Dims.Total())
	e.evalPoints(points, out, c.x)
	for i, p := range points {
		c.set(i, p, !math.IsInf(out[i], 1))
	}
}
