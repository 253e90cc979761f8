package serve

import (
	"sort"
	"sync"
)

// registry holds the served models under one lock: lookups on the
// prediction hot path take its read lock; fits, deletes and stats take it
// too. A deleted model's counters fold into the retired totals under the
// same lock, so /stats never moves backwards — every model's batch
// statistics are counted on exactly one side of it.
type registry struct {
	mu      sync.RWMutex
	models  map[string]*servedModel
	fitting map[string]struct{} // names reserved by in-flight fits

	// counters of deleted models, folded in under mu by remove()
	retiredBatches    int64
	retiredBatchedQs  int64
	retiredMaxBatch   int64
	retiredSheds      int64
	retiredSLOFlushes int64
}

func newRegistry() *registry {
	return &registry{models: map[string]*servedModel{}, fitting: map[string]struct{}{}}
}

// get returns the named model.
func (r *registry) get(name string) (*servedModel, bool) {
	r.mu.RLock()
	m, ok := r.models[name]
	r.mu.RUnlock()
	return m, ok
}

// reserve marks a name as being fitted, failing if it is already
// registered or reserved. release undoes a reservation that did not
// register.
func (r *registry) reserve(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; ok {
		return false
	}
	if _, ok := r.fitting[name]; ok {
		return false
	}
	r.fitting[name] = struct{}{}
	return true
}

func (r *registry) release(name string) {
	r.mu.Lock()
	delete(r.fitting, name)
	r.mu.Unlock()
}

// put registers a model, failing on a duplicate name.
func (r *registry) put(m *servedModel) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[m.name]; ok {
		return false
	}
	r.models[m.name] = m
	return true
}

// remove unregisters a model whose batcher has already been joined,
// folding its final counters into the retired totals in the same critical
// section — stats never see the counters move backwards.
func (r *registry) remove(m *servedModel) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.models[m.name]; !ok || cur != m {
		// A concurrent DELETE won the fold.
		return false
	}
	delete(r.models, m.name)
	r.retiredBatches += m.batcher.batches.Load()
	r.retiredBatchedQs += m.batcher.batchedQs.Load()
	r.retiredSheds += m.batcher.shed.Load()
	r.retiredSLOFlushes += m.batcher.sloFlushes.Load()
	if mb := m.batcher.maxBatchSeen.Load(); mb > r.retiredMaxBatch {
		r.retiredMaxBatch = mb
	}
	return true
}

// snapshotAll returns every registered model, name-sorted.
func (r *registry) snapshotAll() []*servedModel {
	r.mu.RLock()
	out := make([]*servedModel, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// regTotals are the registry-wide batch statistics: live batchers plus the
// retired counters of deleted models, read under the registry's lock.
type regTotals struct {
	models     int
	batches    int64
	batchedQs  int64
	maxBatch   int64
	sheds      int64
	sloFlushes int64
}

func (r *registry) totals() regTotals {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := regTotals{
		models:     len(r.models),
		batches:    r.retiredBatches,
		batchedQs:  r.retiredBatchedQs,
		maxBatch:   r.retiredMaxBatch,
		sheds:      r.retiredSheds,
		sloFlushes: r.retiredSLOFlushes,
	}
	for _, m := range r.models {
		t.batches += m.batcher.batches.Load()
		t.batchedQs += m.batcher.batchedQs.Load()
		t.sheds += m.batcher.shed.Load()
		t.sloFlushes += m.batcher.sloFlushes.Load()
		if mb := m.batcher.maxBatchSeen.Load(); mb > t.maxBatch {
			t.maxBatch = mb
		}
	}
	return t
}
