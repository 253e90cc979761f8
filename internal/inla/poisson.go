package inla

import (
	"math"
	"slices"
	"sync"
)

// modeCache keeps, for a count model's evaluator, conditional modes from
// x = 0 by exact θ, in buffers reused from batch to batch: those of the
// last batch that was not a gradient stencil and no wider than the core
// budget (a line-search round), or the last stencil centre it solved. The
// accepted candidate of a line search is the centre of the gradient
// stencil that follows, so its mode is here when that stencil arrives.
type modeCache struct {
	mu     sync.Mutex
	theta  [][]float64 // θ of entry i; empty when its evaluation failed
	x      [][]float64 // the mode at θ from x = 0, process-major
	n      int         // entries in use
	centre []float64   // the current stencil's centre
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
// gradient stencil (gradientCentre) starts its arms' inner Newton loops
// from the mode at the stencil's centre, found from x = 0: evaluated first
// when the centre is points[0], kept from the previous batch when the
// centre is that batch's accepted line-search candidate, and otherwise
// (a fresh evaluator, a resumed search) solved from x = 0 before the
// batch. The mode from x = 0 is a function of θ alone, so a hit and a
// recompute give the same bits, and the arms' values depend only on the
// points. Every other batch starts every point from x = 0 and, when it is
// no wider than the core budget (a line-search round; not a Hessian or
// integration grid), keeps its modes in place of the kept ones. Batches of
// one count evaluator run one at a time.
func (e *BTAEvaluator) evalCountBatch(points [][]float64, out []float64) {
	if len(points) == 0 {
		return
	}
	c := &e.modes
	c.mu.Lock()
	defer c.mu.Unlock()
	tot := e.Model.Dims.Total()
	if len(c.centre) != len(points[0]) {
		c.centre = make([]float64, len(points[0]))
	}
	from, stencil := gradientCentre(points, c.centre)
	if !stencil {
		if len(points) > e.cores() {
			e.evalPoints(points, out, nil, nil)
			return
		}
		c.reset(len(points), tot)
		e.evalPoints(points, out, nil, c.x)
		for i, p := range points {
			c.set(i, p, !math.IsInf(out[i], 1))
		}
		return
	}
	start := c.lookup(c.centre)
	if from == 1 || start == nil {
		// Evaluate the centre from x = 0 ahead of the arms: as a point of
		// the batch when it is one, else for its mode alone.
		c.reset(1, tot)
		var ok bool
		if from == 1 {
			e.evalPoints(points[:1], out[:1], nil, c.x)
			ok = !math.IsInf(out[0], 1)
		} else {
			_, err := e.evalPoint(c.centre, nil, c.x[0])
			ok = err == nil
		}
		c.set(0, c.centre, ok)
		if start = nil; ok {
			start = c.x[0] // else the arms start from x = 0 as well
		}
	}
	e.evalPoints(points[from:], out[from:], start, nil)
}
