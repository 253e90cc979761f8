package main

import (
	"math"
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
