package main

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/coreg"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/predict"
	"github.com/dalia-hpc/dalia/internal/serve"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// Request mix (ISSUE 13): 90 in 100 requests carry smallQueries queries, 10
// in 100 largeQueries. The mix comes in blocks of mixBlock requests, the
// last of each block a large one, so that any run of whole blocks does the
// same work whichever pool entries the seed picks.
const (
	smallQueries = 4
	largeQueries = 64
	smallPool    = 512
	largePool    = 64
	mixBlock     = 10
	// blockQueries is what one block of the mix asks for.
	blockQueries = (mixBlock-1)*smallQueries + largeQueries
)

// splitmix is the seeded generator behind pools and the request mix
// (splitmix64: tiny, stateless to seed, identical on every platform).
type splitmix struct{ s uint64 }

func (g *splitmix) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *splitmix) float() float64 { return float64(g.next()>>11) / (1 << 53) }
func (g *splitmix) intn(n int) int { return int(g.next() % uint64(n)) }

// request is one pre-built prediction request with its expected answer.
type request struct {
	qs   []predict.Query
	body []byte // JSON form (HTTP workloads)
	// the same queries in model.PredictMean's argument form
	pts  []mesh.Point
	tidx []int
	cov  *dense.Matrix
	want []float64 // expected means at θ* (fillExpected)
}

type pools struct{ small, large []request }

// buildPools draws the request pools for a model shape from the seed.
func buildPools(seed int64, d coreg.Dims, width, height float64) *pools {
	g := &splitmix{s: uint64(seed) ^ 0x706f6f6c73} // "pools"
	mk := func(n, nq int) []request {
		out := make([]request, n)
		for i := range out {
			out[i] = newRequest(g, d, width, height, nq)
		}
		return out
	}
	return &pools{small: mk(smallPool, smallQueries), large: mk(largePool, largeQueries)}
}

func newRequest(g *splitmix, d coreg.Dims, width, height float64, nq int) request {
	r := request{
		qs:   make([]predict.Query, nq),
		pts:  make([]mesh.Point, nq),
		tidx: make([]int, nq),
	}
	if d.Nr > 0 {
		r.cov = dense.New(nq, d.Nr)
	}
	wire := serve.PredictRequest{Queries: make([]serve.QueryJSON, nq)}
	for i := 0; i < nq; i++ {
		p := mesh.Point{X: g.float() * width, Y: g.float() * height}
		q := predict.Query{Point: p, T: g.intn(d.Nt), Response: g.intn(d.Nv)}
		if d.Nr > 0 {
			q.Covariates = make([]float64, d.Nr)
			q.Covariates[0] = 1
			if d.Nr > 1 {
				q.Covariates[1] = synth.Elevation(p, width, height)
			}
			for k := 2; k < d.Nr; k++ {
				q.Covariates[k] = 2*g.float() - 1
			}
			copy(r.cov.Row(i), q.Covariates)
		}
		r.qs[i], r.pts[i], r.tidx[i] = q, p, q.T
		wire.Queries[i] = serve.QueryJSON{X: p.X, Y: p.Y, T: q.T, Response: q.Response, Covariates: q.Covariates}
	}
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err) // finite floats and ints only
	}
	r.body = body
	return r
}

// phi visits the nonzeros of one query's projection row as (BTA index,
// weight) pairs, so that the query's mean is Σ weight·μ[index]: the
// barycentric weights of the enclosing triangle and the covariates, spread
// over the processes by the query's row of Λ.
func phi(m *model.Model, t *model.Theta, q predict.Query, visit func(idx int, w float64)) error {
	d, msh := m.Dims, m.Builder.Mesh
	ti, bc, err := msh.Locate(q.Point)
	if err != nil {
		return err
	}
	lc := t.Lambda.CoregView()
	for j := 0; j <= q.Response; j++ {
		f := lc.At(q.Response, j)
		for v := 0; v < 3; v++ {
			visit(m.BTAIndex(j*d.PerProcess()+q.T*d.Ns+msh.Tri[ti][v]), f*bc[v])
		}
		for k, c := range q.Covariates {
			visit(m.BTAIndex(j*d.PerProcess()+d.Ns*d.Nt+k), f*c)
		}
	}
	return nil
}

// fillExpected computes every pooled request's expected means at the fitted
// mode — the oracle served predictions are checked against. Gaussian
// workloads are served by the snapshot engine and checked against
// model.PredictMean. The count workload is served by model.PredictMean
// itself, so its oracle is the projection-row dot product with μ instead.
func (p *pools) fillExpected(m *model.Model, res *inla.Result) error {
	t, err := m.DecodeTheta(res.Theta)
	if err != nil {
		return err
	}
	for _, pool := range [][]request{p.small, p.large} {
		for i := range pool {
			r := &pool[i]
			r.want = make([]float64, len(r.qs))
			if m.Lik != model.LikGaussian {
				for j, q := range r.qs {
					if err := phi(m, t, q, func(idx int, w float64) { r.want[j] += w * res.Mu[idx] }); err != nil {
						return fmt.Errorf("expected means: %w", err)
					}
				}
				continue
			}
			all, err := m.PredictMean(t, res.Mu, r.pts, r.tidx, r.cov)
			if err != nil {
				return fmt.Errorf("expected means: %w", err)
			}
			for j, q := range r.qs {
				r.want[j] = all[q.Response][j]
			}
		}
	}
	return nil
}

// mixGen draws the closed-loop request sequence of one client: the seed
// picks the pool entries, the position in the block the size.
type mixGen struct {
	g *splitmix
	p *pools
	n int // requests drawn
}

func newMixGen(seed int64, client int, p *pools) *mixGen {
	return &mixGen{g: &splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 + uint64(client+1)}, p: p}
}

func (m *mixGen) next() *request {
	m.n++
	if m.n%mixBlock == 0 {
		return &m.p.large[m.g.intn(len(m.p.large))]
	}
	return &m.p.small[m.g.intn(len(m.p.small))]
}

// closeTo is the 1e-9 relative agreement the output checks use.
func closeTo(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}
