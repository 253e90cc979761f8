package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// The two host probes are fixed loops that call no repository code: when a
// layer's number moves between two recordings, they tell host drift from a
// code change.

// probeSink keeps results alive; probeIn is a value the compiler cannot
// fold the probe loops around.
var (
	probeSink float64
	probeIn   = 1e-6
)

// probeScalar times a fixed dependent floating-point chain (latency-bound,
// cache-resident): milliseconds.
func probeScalar() float64 {
	t0 := time.Now()
	x, c := 1.0, probeIn
	for i := 0; i < 1_000_000; i++ {
		x = x*0.999999 + c
	}
	probeSink += x
	return time.Since(t0).Seconds() * 1e3
}

// streamWords sizes each of the three triad arrays at 32 MiB, 96 MiB in
// all — several times any last-level cache this class of host has.
const streamWords = 4 << 20

type streamProbe struct{ a, b, c []float64 }

func newStreamProbe() *streamProbe {
	p := &streamProbe{a: make([]float64, streamWords), b: make([]float64, streamWords), c: make([]float64, streamWords)}
	for i := range p.b {
		p.b[i], p.c[i] = float64(i&7), 0.5
	}
	return p
}

// run times one STREAM triad a = b + s·c: GB/s over the 3 arrays moved.
func (p *streamProbe) run() float64 {
	t0 := time.Now()
	a, b, c := p.a, p.b, p.c
	for i := range a {
		a[i] = b[i] + 3*c[i]
	}
	secs := time.Since(t0).Seconds()
	probeSink += a[len(a)/2]
	return 3 * 8 * float64(streamWords) / secs / 1e9
}

// peakRSSMB reads the process's high-water resident set from /proc (0 when
// the platform has none).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
