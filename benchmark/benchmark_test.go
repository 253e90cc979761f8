package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/coreg"
)

// These tests are deterministic: they run no workload and compare no wall
// clock. They pin the arithmetic the reported numbers go through.

func TestQuietEstimators(t *testing.T) {
	// 34 fit reps, as a fit_uni_gauss run holds: the lower decile is the
	// fourth fastest, whatever order they came in.
	reps := make([]float64, 34)
	for i := range reps {
		reps[i] = float64((i*13)%34 + 1)
	}
	if got := quiet(reps); got != 4 {
		t.Errorf("quiet of 1..34 = %g, want 4", got)
	}
	if got := quietRate(reps); got != 31 {
		t.Errorf("quietRate of 1..34 = %g, want 31", got)
	}
	// Up to ten samples the lower decile is the minimum.
	if got := quiet([]float64{5, 3, 9, 4, 7, 8, 6, 10, 11, 12}); got != 3 {
		t.Errorf("quiet of ten samples = %g, want their minimum 3", got)
	}
	if got := quiet([]float64{2}); got != 2 {
		t.Errorf("quiet of one sample = %g", got)
	}
	if got := quiet(nil); !math.IsNaN(got) {
		t.Errorf("quiet of no sample = %g, want NaN", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestPercentileChoice(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {10000, 0.999, true}, {9999, 0.999, false}, {100, 0.9, true}, {99, 0.9, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := percentileSupported(c.n, c.q); got != c.ok {
			t.Errorf("percentileSupported(%d, %g) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if p := quantile(xs, 0.99); p != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (10 samples beyond)", p)
	}
	if p := quantile(xs, 0.5); p != 500 {
		t.Errorf("p50 of 1..1000 = %g", p)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "inla", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "bta", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Layer: "bta", StartNS: 20, EndNS: 50},    // overlaps span 2
		{ID: 4, Parent: 1, Layer: "model", StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Parent: 3, Layer: "dense", StartNS: 25, EndNS: 45},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"inla":  100 - 40 - 10, // children cover [10,50] and [90,100]
		"bta":   20 + (30 - 20),
		"model": 30,
		"dense": 20,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

func TestRequestMixReproducible(t *testing.T) {
	d := coreg.Dims{Nv: 3, Ns: 30, Nt: 8, Nr: 2}
	bodies := func(seed int64) []byte {
		p := buildPools(seed, d, domainWidthKm, domainHeightKm)
		var b bytes.Buffer
		for _, pool := range [][]request{p.small, p.large} {
			for _, r := range pool {
				b.Write(r.body)
			}
		}
		return b.Bytes()
	}
	if !bytes.Equal(bodies(7), bodies(7)) {
		t.Fatal("the same seed built different pools")
	}
	if bytes.Equal(bodies(7), bodies(8)) {
		t.Fatal("different seeds built the same pools")
	}
	p := buildPools(7, d, domainWidthKm, domainHeightKm)
	if len(p.small) != smallPool || len(p.large) != largePool || len(p.small[0].qs) != smallQueries || len(p.large[0].qs) != largeQueries {
		t.Fatalf("pool shapes: %d×%d, %d×%d", len(p.small), len(p.small[0].qs), len(p.large), len(p.large[0].qs))
	}
	a, b, other := newMixGen(7, 0, p), newMixGen(7, 0, p), newMixGen(7, 1, p)
	differ := false
	for i := 0; i < 1000; i++ {
		ra := a.next()
		if ra != b.next() {
			t.Fatalf("draw %d differs between two generators of one seed and client", i)
		}
		if ra != other.next() {
			differ = true
		}
		// Every block of the mix ends with its one large request.
		if large := len(ra.qs) == largeQueries; large != (i%mixBlock == mixBlock-1) {
			t.Fatalf("draw %d carries %d queries", i, len(ra.qs))
		}
	}
	if !differ {
		t.Error("two clients drew the same sequence")
	}
	if blockQueries != 9*smallQueries+largeQueries {
		t.Errorf("a block asks for %d queries", blockQueries)
	}
}

func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, the command has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, the command prints %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s %d: %s [%s], the command prints %s [%s]", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			case bounded && (g.Bound == nil || *g.Bound != bound):
				t.Errorf("%s: bound %v, the command's -aa uses %g", g.Name, g.Bound, bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
