package predict

import (
	"math/rand"
	"testing"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// solveOracle answers the queries along the route PredictInto replaced,
// kept here as the reference and nowhere else in the program: one dense φ
// column per query in an (n·b+a) × len(qs) workspace, one sequential
// half solve through the mode factor, variance = ‖L⁻¹φ‖², and the mean
// accumulated against μ in the order the fill visits φ's entries.
func solveOracle(t *testing.T, m *model.Model, res *inla.Result, qs []Query) (means, vars []float64) {
	t.Helper()
	th, fc, err := inla.ModeFactor(m, res.Theta)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dims
	n, b, a := d.BTAShape()
	ms := bta.NewMultiSolve(n, b, a, len(qs))
	rhs := ms.RHS
	lc := th.Lambda.CoregView()
	msh := m.Builder.Mesh
	per := d.PerProcess()
	means, vars = make([]float64, len(qs)), make([]float64, len(qs))
	for col, q := range qs {
		ti, bc, err := msh.Locate(q.Point)
		if err != nil {
			t.Fatal(err)
		}
		tri := msh.Tri[ti]
		var mean float64
		for j := 0; j <= q.Response; j++ {
			f := lc.At(q.Response, j)
			if f == 0 {
				continue
			}
			base := j * per
			for v := 0; v < 3; v++ {
				if bc[v] == 0 {
					continue
				}
				idx := m.BTAIndex(base + q.T*d.Ns + tri[v])
				w := f * bc[v]
				rhs.Set(idx, col, rhs.At(idx, col)+w)
				mean += w * res.Mu[idx]
			}
			for r, c := range q.Covariates {
				if c == 0 {
					continue
				}
				idx := m.BTAIndex(base + d.Ns*d.Nt + r)
				w := f * c
				rhs.Set(idx, col, rhs.At(idx, col)+w)
				mean += w * res.Mu[idx]
			}
		}
		means[col] = mean
	}
	fc.ForwardSolveMultiInto(ms)
	for r := 0; r < ms.Dim(); r++ {
		for col, y := range rhs.Row(r) {
			vars[col] += y * y
		}
	}
	return means, vars
}

// densePhi assembles a query's projection row as a dense vector in BTA
// coordinates, for the dense Q_c⁻¹ references.
func densePhi(t *testing.T, m *model.Model, th *model.Theta, q Query) []float64 {
	t.Helper()
	d := m.Dims
	lc := th.Lambda.CoregView()
	msh := m.Builder.Mesh
	ti, bc, err := msh.Locate(q.Point)
	if err != nil {
		t.Fatal(err)
	}
	phi := make([]float64, d.Total())
	for j := 0; j <= q.Response; j++ {
		fw := lc.At(q.Response, j)
		for v, node := range msh.Tri[ti] {
			phi[m.BTAIndex(j*d.PerProcess()+q.T*d.Ns+node)] += fw * bc[v]
		}
		for r, c := range q.Covariates {
			phi[m.BTAIndex(j*d.PerProcess()+d.Ns*d.Nt+r)] += fw * c
		}
	}
	return phi
}

// grid is one model with a latent mean to predict from. Only the shared
// fixture is fitted; the others stand at the generator's θ₀ with a random
// μ, which exercises the same arithmetic without paying for a fit.
type grid struct {
	name string
	m    *model.Model
	res  *inla.Result
}

// allGrids returns the fitted fixture, the three Gaussian benchmark shapes
// (nv=1 b=144 nr=2, nv=3 b=60 nr=1, nv=3 b=90 nr=2) and a model without
// fixed effects, whose Σ has no arrow and no tip.
func allGrids(t *testing.T) []grid {
	t.Helper()
	f := getFitted(t)
	gs := []grid{{"fitted nv=2 b=32 nr=2", f.ds.Model, f.res}}
	for _, c := range []struct {
		name string
		gen  synth.GenConfig
	}{
		{"nv=1 b=144 nr=2", synth.GenConfig{Nv: 1, Nt: 4, Nr: 2, MeshNx: 12, MeshNy: 12, ObsPerStep: 120, Seed: 3}},
		{"nv=3 b=60 nr=1", synth.GenConfig{Nv: 3, Nt: 8, Nr: 1, MeshNx: 5, MeshNy: 4, ObsPerStep: 30, Seed: 4}},
		{"nv=3 b=90 nr=2", synth.GenConfig{Nv: 3, Nt: 4, Nr: 2, MeshNx: 6, MeshNy: 5, ObsPerStep: 20, Seed: 5}},
		{"nv=2 b=40 nr=0", synth.GenConfig{Nv: 2, Nt: 3, Nr: 0, MeshNx: 5, MeshNy: 4, ObsPerStep: 20, Seed: 6}},
	} {
		gs = append(gs, unfitted(t, c.name, c.gen))
	}
	return gs
}

func unfitted(t testing.TB, name string, gen synth.GenConfig) grid {
	t.Helper()
	ds, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(gen.Seed))
	mu := make([]float64, ds.Model.Dims.Total())
	for i := range mu {
		mu[i] = rng.NormFloat64()
	}
	return grid{name, ds.Model, &inla.Result{Theta: ds.Theta0, Mu: mu}}
}

// gridQueries covers the shapes a projection row takes: interior points
// (three nonzero weights) with and without covariates, mesh nodes (one),
// edge midpoints (two) and points outside the domain, which Locate clamps
// onto the boundary, at random times and responses. On a model without fixed
// effects "with covariates" is the empty non-nil slice a JSON [] decodes to.
func gridQueries(rng *rand.Rand, m *model.Model) []Query {
	d := m.Dims
	msh := m.Builder.Mesh
	far := msh.Nodes[len(msh.Nodes)-1] // the structured mesh's top-right corner
	cov := func() []float64 {
		c := make([]float64, d.Nr)
		for r := range c {
			c[r] = 1 // the intercept
			if r > 0 {
				c[r] = rng.NormFloat64()
			}
		}
		return c
	}
	var pts []mesh.Point
	for i := 0; i < 12; i++ {
		pts = append(pts, mesh.Point{X: rng.Float64() * far.X, Y: rng.Float64() * far.Y})
	}
	for i := 0; i < 6; i++ {
		tri := msh.Tri[rng.Intn(len(msh.Tri))]
		a, b := msh.Nodes[tri[0]], msh.Nodes[tri[1]]
		pts = append(pts, a, mesh.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2})
	}
	pts = append(pts,
		mesh.Point{X: -40, Y: far.Y / 3}, mesh.Point{X: far.X + 15, Y: far.Y + 15},
		mesh.Point{X: far.X / 2, Y: -1}, mesh.Point{X: -5, Y: -5})
	var qs []Query
	for _, p := range pts {
		q := Query{Point: p, T: rng.Intn(d.Nt), Response: rng.Intn(d.Nv)}
		qs = append(qs, q)
		q.Covariates = cov()
		qs = append(qs, q)
	}
	return qs
}
