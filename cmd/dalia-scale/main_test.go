package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestScaling(t *testing.T) {
	for _, tc := range []struct {
		name            string
		t0              float64
		w0              int
		t               float64
		w               int
		speedup, effPct float64
	}{
		{"single width", 0.8, 4, 0.8, 4, 1, 100},
		{"first width 1", 1.0, 1, 0.25, 4, 4, 100},
		{"time halves from 2 to 4", 1.0, 2, 0.5, 4, 2, 100},
		{"time flat from 2 to 4", 1.0, 2, 1.0, 4, 1, 50},
	} {
		speedup, eff := scaling(tc.t0, tc.w0, tc.t, tc.w)
		if math.Abs(speedup-tc.speedup) > 1e-12 || math.Abs(eff-tc.effPct) > 1e-12 {
			t.Errorf("%s: speedup %v, efficiency %v %%; want %v, %v %%", tc.name, speedup, eff, tc.speedup, tc.effPct)
		}
	}
}

// TestFlagsAreCheckedBeforeRunning: a bad flag, an unknown figure, a
// figure beside a flag it fixes (-iters among them), a worker list that
// keeps none of the figure's points, -workers on a table or a negative
// memory cap exits 2 before anything runs —
// a typo or a retired flag must not quietly change what a run measures.
func TestFlagsAreCheckedBeforeRunning(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"-fig", "table4"}, 0},
		{[]string{"-fig", "fig99"}, 2},
		{[]string{"-fig", ""}, 2},
		{[]string{"-fig", "Fig5"}, 2},
		{[]string{"-fig", "fig4", "-workers", "3"}, 2},
		{[]string{"-fig", "table4", "extra"}, 2},
		{[]string{"-fig", "table4", "-workers", "3"}, 2},
		{[]string{"-fig", "table4", "-iters", "5"}, 2},
		{[]string{"-memcap", "-5", "-workers", "1"}, 2},
		{[]string{"-iters", "0"}, 2},
		{[]string{"-workers", "0"}, 2},
		{[]string{"-workers", "1,x"}, 2},
		{[]string{"-workers", "1,"}, 2},
		{[]string{"-nv", "two"}, 2},
		// Flags of retired commands and sweeps.
		{[]string{"-exp=fig5"}, 2},
		{[]string{"-quick"}, 2},
		{[]string{"-cpuprofile", "cpu.out"}, 2},
		{[]string{"-partitions", "2"}, 2},
		{[]string{"-lb", "1.6"}, 2},
	}
	for _, name := range figureFixed {
		cases = append(cases, struct {
			args []string
			code int
		}{[]string{"-fig", "fig5", "-" + name, "1"}, 2})
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%q: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			continue
		}
		if tc.code == 2 && stdout.Len() > 0 {
			t.Errorf("%q: exit 2 after running: %q", tc.args, stdout.String())
		}
		if tc.code == 2 && stderr.Len() == 0 {
			t.Errorf("%q: exit 2 without a message", tc.args)
		}
	}
}

// TestTable4 lists every Table IV dataset.
func TestTable4(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "table4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, id := range []string{"MB1", "MB2", "WA1", "WA2", "SA1", "AP1"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("Table4 missing dataset %s:\n%s", id, stdout.String())
		}
	}
}

// TestFig5QuickShapes: fig5 at 1, 2 and 4 ranks has the three solver phases
// under both splits, and every series reads 100 % at P = 1, the reference.
func TestFig5QuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test skipped in -short mode")
	}
	fig, err := fig5([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range fig.Series {
		names = append(names, s.Name)
		if len(s.X) != 3 || s.X[0] != 1 || s.X[2] != 4 {
			t.Fatalf("series %q: ranks %v, want [1 2 4]", s.Name, s.X)
		}
		if s.Y[0] < 99 || s.Y[0] > 101 {
			t.Errorf("series %q: efficiency at P=1 is %v, want 100", s.Name, s.Y[0])
		}
	}
	want := "factorization lb=1.0,factorization balanced,triangular solve lb=1.0,triangular solve balanced,selected inversion lb=1.0,selected inversion balanced"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("series %s, want %s", got, want)
	}
}

// TestFig6bOneLevel runs fig6b on its one-worker point: the DALIA column
// and the R-INLA-like reference at the coarsest mesh, with the level note.
func TestFig6bOneLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test skipped in -short mode")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "fig6b", "-workers", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== Fig6b:", "mesh nodes", "DALIA", "R-INLA-like", "level 0: ns=12", "coarsest mesh:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "level 1") {
		t.Errorf("-workers 1 ran the 4-worker level:\n%s", out)
	}
}

func TestFigureRendering(t *testing.T) {
	fig := &Figure{ID: "T", Title: "title", XLabel: "x"}
	a := fig.AddSeries("alpha")
	a.Add(1, 10)
	a.Add(2, 20)
	b := fig.AddSeries("beta")
	b.Add(2, 200)
	fig.Note("hello %d", 7)
	var buf bytes.Buffer
	fig.Fprint(&buf)
	want := "== T: title ==\n" +
		"  x  alpha  beta\n" +
		"  -  -----  ----\n" +
		"  1  10     -   \n" +
		"  2  20     200 \n" +
		"  note: hello 7\n\n"
	if got := buf.String(); got != want {
		t.Fatalf("rendered\n%s\nwant\n%s", got, want)
	}
}
