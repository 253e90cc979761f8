package serve

import (
	"sort"
	"sync"
)

// registry holds the served models under one lock: lookups on the
// prediction hot path take its read lock; fits, deletes and listings take
// it too.
type registry struct {
	mu      sync.RWMutex
	models  map[string]*servedModel
	fitting map[string]struct{} // names reserved by in-flight fits
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

// remove unregisters m, failing when a concurrent DELETE already removed
// it (or its name now belongs to a newer model).
func (r *registry) remove(m *servedModel) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.models[m.name]; !ok || cur != m {
		return false
	}
	delete(r.models, m.name)
	return true
}

// count returns the number of registered models.
func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
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
