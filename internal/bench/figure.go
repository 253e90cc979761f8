// Package bench contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation section, scaled to one host as
// README, Substitutions, describes. Each driver returns a Figure — named
// series of (x, y) points plus notes — that cmd/dalia-bench prints and
// bench_test.go wraps into testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a reproduced table or figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []*Series
	Notes  []string
}

// NewFigure constructs an empty figure.
func NewFigure(id, title, xlabel, ylabel string) *Figure {
	return &Figure{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries registers and returns a new series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Note appends a free-form annotation.
func (f *Figure) Note(format string, args ...interface{}) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the figure as an aligned text table: one row per distinct
// x value, one column per series.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var sorted []float64
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{}
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := "-"
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf("%.4g", s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	printAligned(w, header, rows)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.4g", x)
}

// printAligned prints a padded text table.
func printAligned(w io.Writer, header []string, rows [][]string) {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, width[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}
