package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files around calls into each layer; spans inside the program are a later
// change. Parent 0 marks a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// tracer keeps spans in memory and writes them when the run ends.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	rep      int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) setRep(rep int) {
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		StartNS: now, Workload: t.workload, Rep: t.rep})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// in runs f inside a span; a nil tracer just runs f.
func (t *tracer) in(parent int, layer, name string, f func()) time.Duration {
	if t == nil {
		f()
		return 0
	}
	id := t.begin(parent, layer, name)
	f()
	return t.end(id)
}

// selfTimes attributes to each layer the self time of its spans: a span's
// duration minus the part of that interval its child spans cover (children
// may overlap one another, so their union is taken).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.EndNS - s.StartNS - covered(children[s.ID], s.StartNS, s.EndNS))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	at := lo
	for _, v := range iv {
		s, e := max(v[0], at), min(v[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
