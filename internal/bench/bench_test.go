package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestFigureRendering(t *testing.T) {
	fig := NewFigure("T", "title", "x", "y")
	a := fig.AddSeries("alpha")
	a.Add(1, 10)
	a.Add(2, 20)
	b := fig.AddSeries("beta")
	b.Add(2, 200)
	fig.Note("hello %d", 7)
	var buf bytes.Buffer
	fig.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"T", "title", "alpha", "beta", "hello 7", "200", "10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
	// Missing cells render as '-'.
	if !strings.Contains(out, "-") {
		t.Fatal("missing-cell marker absent")
	}
}

func TestTable1And4(t *testing.T) {
	if len(Table1().Notes) < 3 {
		t.Fatal("Table1 must describe three frameworks")
	}
	t4 := Table4()
	var buf bytes.Buffer
	t4.Fprint(&buf)
	for _, id := range []string{"MB1", "MB2", "WA1", "WA2", "SA1", "AP1"} {
		if !strings.Contains(buf.String(), id) {
			t.Fatalf("Table4 missing dataset %s", id)
		}
	}
}

func TestFig5QuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test skipped in -short mode")
	}
	fig, err := Fig5(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 { // 3 phases × 2 lb values
		t.Fatalf("Fig5 series = %d, want 6", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
		// Efficiency at P=1 must be 100% for the lb=1.0 series.
		if strings.HasSuffix(s.Name, "lb=1.0") && (s.Y[0] < 99 || s.Y[0] > 101) {
			t.Fatalf("series %q: efficiency at P=1 is %v, want 100", s.Name, s.Y[0])
		}
	}
}

func TestAblationLBQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test skipped in -short mode")
	}
	fig, err := AblationLB(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for _, v := range s.Y {
			if v <= 0 {
				t.Fatalf("series %q has non-positive time %v", s.Name, v)
			}
		}
	}
}

func TestAblationMappingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test skipped in -short mode")
	}
	fig, err := AblationMapping(true)
	if err != nil {
		t.Fatal(err)
	}
	cached := fig.Series[0]
	naive := fig.Series[1]
	last := len(cached.Y) - 1
	if naive.Y[last] <= cached.Y[last] {
		t.Fatalf("naive densification (%v s) should be slower than the per-class assembly (%v s)",
			naive.Y[last], cached.Y[last])
	}
}
